"""Constructive training: candidate search, acceptance test, readout refits.

Nodes are added one at a time. Each attempt draws a batch of random candidates
(binary weights, a power-of-two scale, a bias coupled to the scale), keeps the
ones whose score

    xi_q = <e_q, h>**2 / <h, h> - (1 - r) * <e_q, e_q>     (per output q)

is positive for every output, and takes the passing candidate with the largest
total score. The contraction factor r walks a schedule toward 1, so the test
relaxes before the layer gives up. After every accepted node the readout is
refit by least squares over all hidden outputs collected so far, which keeps
the training residual non-increasing. The fit is a thin QR of the hidden
outputs that gains one Gram-Schmidt column per node (TrainState).

Biases are drawn uniform on [-lambda, +lambda] and snapped to the Q7.25 grid
at draw time (saturating at the format range), and a node keeps the raw
value. Candidates and the accepted node's validation column get their bits
from model.threshold_bits, the integer test the reference path and the
emulator also make, so every path computes bit-identical activations.

A candidate's scores are computed without forming h, over the training rows
in blocks of SCORE_ROWS. A block's threshold bits are written as 0/1 into a
small float32 work array that the TrainState owns, and one float32 GEMM
multiplies them by the block's residual limbs (ResidualLimbs) and a row of
ones, summed over the blocks. Every partial sum over any rows is an integer
below 2**24, so <e_q, h> is the correctly rounded sum of the selected
residual entries (each kept to 60 bits below its column's power-of-two bound)
whatever order the BLAS and the blocks add in, and the bit count gives
<h, h> for SIGN. This holds while the training set has at most 2**23 rows
and every fan-in is below 2**24 (check_fan_in); train checks both first.

TrainData holds the encoded rows as BitMatrix objects. TrainState builds
their +-1 signal matrices once, fits the mechanism on the training one, and
keeps each accepted node's 0/1 weight row, scale code and raw bias for
finalize; add_node returns the node's TrainRecord, which train logs as is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix
from .encoding import EncodingSpec, encode_matrix
from .errors import TrainingFailedError
from .mechanism import (
    MechanismModel,
    fit_mechanism,
    mech_eval_float_batch,
    signals_pm1,
)
from .model import (
    Activation,
    ScmLayer,
    ScmModel,
    activation_values,
    check_fan_in,
    threshold_bits,
)

DEFAULT_R_SCHEDULE = (0.9, 0.99, 0.999, 0.9999)
DEFAULT_LAMBDA_POOL = (1, 2, 4, 8, 16, 32, 64, 128)
# training rows per scoring block: a (256, 500) float32 block of candidate
# bits is 512 KB, which stays in L2 between its threshold and its limb GEMM
SCORE_ROWS = 256


@dataclass(frozen=True)
class TrainConfig:
    layer_sizes: tuple[int, ...]
    activations: tuple[Activation, ...]
    t_max: int = 500
    r_schedule: tuple[float, ...] = DEFAULT_R_SCHEDULE
    lambda_pool: tuple[int, ...] = DEFAULT_LAMBDA_POOL
    l_step: int = 20
    tau: float = 0.0
    alpha: float = 1e-4
    use_mechanism: bool = True
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) != len(self.activations):
            raise ValueError("need one activation per layer")
        if any(s < 0 for s in self.layer_sizes):
            raise ValueError("layer sizes must be non-negative")
        if any(s == 0 for s in self.layer_sizes) and any(self.layer_sizes):
            raise ValueError("zero-node layers are only allowed as an all-zero config")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not self.r_schedule:
            raise ValueError("r schedule must be non-empty")
        if any(not 0.0 < r < 1.0 for r in self.r_schedule):
            raise ValueError("r values must lie in (0, 1)")
        if any(b >= a for a, b in zip(self.r_schedule[1:], self.r_schedule)):
            raise ValueError("r schedule must be strictly increasing")
        if not self.lambda_pool:
            raise ValueError("lambda pool must be non-empty")
        for lam in self.lambda_pool:
            if lam not in DEFAULT_LAMBDA_POOL:
                raise ValueError("lambda values must be powers of two in 1..128")
        if self.l_step < 1:
            raise ValueError("l_step must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    @classmethod
    def single_layer(cls, nodes: int, activation: Activation = Activation.STEP, **kw):
        if nodes == 0:
            return cls(layer_sizes=(), activations=(), **kw)
        return cls(layer_sizes=(nodes,), activations=(activation,), **kw)


@dataclass
class TrainData:
    """Encoded training and validation rows, each a BitMatrix (encode_matrix)."""

    bits_train: BitMatrix
    y_train: np.ndarray  # (N, m)
    bits_val: BitMatrix
    y_val: np.ndarray  # (K, m)
    encoding: EncodingSpec
    n_features: int

    def __post_init__(self):
        self.y_train = np.atleast_2d(np.asarray(self.y_train, dtype=np.float64))
        self.y_val = np.atleast_2d(np.asarray(self.y_val, dtype=np.float64))
        if self.y_train.shape[0] != len(self.bits_train):
            raise ValueError("training targets do not match training inputs")
        if self.y_val.shape[0] != len(self.bits_val):
            raise ValueError("validation targets do not match validation inputs")
        if len(self.bits_train) < 1 or len(self.bits_val) < 1:
            raise ValueError("need at least 1 training and 1 validation sample")
        d_enc = self.n_features * self.encoding.bits_per_input
        for b in (self.bits_train, self.bits_val):
            if b.n != d_enc:
                raise ValueError(f"encoded width {b.n} != expected {d_enc}")


def prepare_train_data(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    spec: EncodingSpec,
) -> TrainData:
    """Encode normalized feature matrices into a TrainData bundle."""
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    x_val = np.atleast_2d(np.asarray(x_val, dtype=np.float64))
    bits_tr, _ = encode_matrix(x_train, spec)
    bits_va, _ = encode_matrix(x_val, spec)
    return TrainData(bits_tr, y_train, bits_va, y_val, spec, x_train.shape[1])


@dataclass
class TrainRecord:
    layer: int
    node: int
    r: float
    lam: int
    xi_sum: float
    xi_min: float
    train_rmse: float
    val_rmse: float
    drawn: int  # candidates drawn for this node, over all r attempts
    passed: int  # candidates that passed at the accepted r
    r_attempts: int  # r values tried, the accepted one included

    def to_kv(self) -> str:
        return (
            f"layer={self.layer} node={self.node} r={self.r:g} lambda={self.lam} "
            f"xi_sum={self.xi_sum:.6e} xi_min={self.xi_min:.6e} "
            f"train_rmse={self.train_rmse:.9g} val_rmse={self.val_rmse:.9g} "
            f"drawn={self.drawn} passed={self.passed} r_attempts={self.r_attempts}"
        )


@dataclass
class TrainResult:
    model: ScmModel
    records: list[TrainRecord]
    events: list[dict]

    def log_text(self) -> str:
        lines = [rec.to_kv() for rec in self.records]
        for ev in self.events:
            lines.append(" ".join(f"{k}={v}" for k, v in ev.items()))
        return "\n".join(lines)


def xi_score(e_q: np.ndarray, h: np.ndarray, r: float) -> float | None:
    """Candidate score for one output; None signals a rejected zero vector."""
    h = np.asarray(h, dtype=np.float64)
    e_q = np.asarray(e_q, dtype=np.float64)
    hh = float(h @ h)
    if hh == 0.0:
        return None
    eh = float(e_q @ h)
    return eh * eh / hh - (1.0 - r) * float(e_q @ e_q)


def early_stop_check(val_errors: Sequence[float], l_step: int, tau: float) -> int | None:
    """Early-stopping test over the per-node validation error history.

    Returns None to continue, or the number of trailing nodes to remove
    before stopping the layer: once the relative improvement over the last
    `l_step` nodes is <= tau, trailing nodes are dropped while the one-step
    relative improvement stays <= tau.
    """
    n = len(val_errors)
    if n <= l_step:
        return None
    last = val_errors[-1]
    # a zero validation error cannot improve further, so it always stops
    if last > 0.0 and (val_errors[-1 - l_step] - last) / last > tau:
        return None
    keep = n
    while keep >= 2:
        cur = val_errors[keep - 1]
        prev = val_errors[keep - 2]
        improved = (prev - cur) / cur > tau if cur > 0.0 else prev > cur
        if improved:
            break
        keep -= 1
    return n - keep


def _outside_q725(values: np.ndarray) -> int:
    """How many values lie outside the Q7.25 range [-64, 64)."""
    return int(np.count_nonzero((values < fx.REAL_MIN) | (values >= -fx.REAL_MIN)))


def _rmse(resid: np.ndarray) -> float:
    return float(np.sqrt(np.mean(resid * resid))) if resid.size else 0.0


def _grown(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """a copied into the leading block of a zero array of the given shape."""
    out = np.zeros(shape)
    out[tuple(slice(0, k) for k in a.shape)] = a
    return out


class TrainState:
    """Mutable book-keeping while a model is grown.

    Holds the residual matrices, the hidden-output columns for the global
    readout refit with each column's node, the layer sizes, the signal matrices
    feeding the layer under construction (contiguous float32, made once per
    layer), and the (SCORE_ROWS, t_max) candidate work array.

    The hidden outputs live in (N, capacity) arrays whose first n_hidden
    columns are in use; the capacity starts at the configured node count (at
    most 64) and doubles when full. They are C-ordered because H @ beta then
    rounds as it does on a stacked matrix, so the residuals (and the model
    bytes) do not depend on the storage.

    The readout (SC-III of Wang & Li 2017) is kept as a thin QR of H: Q
    (N, capacity) with orthonormal columns, upper-triangular R and
    qt = Q^T target. A new column costs one classical Gram-Schmidt step and
    one reorthogonalization pass (Daniel, Gragg, Kaufman & Stewart 1976),
    O(N L), and beta solves R beta = qt; remove_trailing drops trailing
    columns of Q, R and qt, which is exact. A column whose orthogonal
    remainder is at most max(N, L) * eps * |h| (lstsq's cutoff) gets readout
    0 and no basis vector; while the residual lies above rounding level,
    xi > 0 rules that out. The residuals stay target - H @ beta on both row
    sets, the model's own errors, rather than an update through Q.
    """

    def __init__(self, data: TrainData, cfg: TrainConfig):
        self.m = data.y_train.shape[1]
        # float64 -1/+1 inputs, needed only while the state is built
        s1_train = signals_pm1(data.bits_train)
        s1_val = signals_pm1(data.bits_val)
        if cfg.use_mechanism:
            self.mech = fit_mechanism(s1_train, data.y_train, cfg.alpha)
        else:
            self.mech = MechanismModel.zero(s1_train.shape[1], self.m)
        self.target_train = data.y_train - mech_eval_float_batch(s1_train, self.mech)
        self.target_val = data.y_val - mech_eval_float_batch(s1_val, self.mech)
        # a C-order column write touches every row, so a large configured
        # node count is not allocated up front
        capacity = min(max(1, sum(cfg.layer_sizes)), 64)
        self.H_train = np.empty((len(data.bits_train), capacity))
        self.H_val = np.empty((len(data.bits_val), capacity))
        self.Q = np.empty_like(self.H_train)
        self.R = np.zeros((capacity, capacity))
        self.qt = np.zeros((capacity, self.m))
        self.n_hidden = 0
        self.in_basis: list[bool] = []  # per hidden column: owns a basis vector
        self.nodes: list[tuple] = []  # per hidden column: 0/1 uint8 weight row, shift, bias_raw
        self.beta = np.zeros((0, self.m))
        self.resid_train = self.target_train.copy()
        self.resid_val = self.target_val.copy()
        self.layer_sizes: list[int] = []
        self.layer_acts: list[Activation] = []
        # entries are -1, 0 or +1, so float32 holds them and every dot exactly
        self.cur_in_train = s1_train.astype(np.float32)
        self.cur_in_val = s1_val.astype(np.float32)
        # (SCORE_ROWS, t_max) float32 candidate dots of a row block, then their
        # 0/1 threshold bits; allocated by the first add_node
        self.work: np.ndarray | None = None
        # drawn candidate biases clamped to the Q7.25 range (by design at lambda 128)
        self.bias_saturated = 0

    # -- layer lifecycle -------------------------------------------------

    def begin_layer(self, act: Activation) -> None:
        self.layer_sizes.append(0)
        self.layer_acts.append(act)

    def end_layer(self) -> None:
        cols = slice(self.n_hidden - self.layer_sizes[-1], self.n_hidden)
        self.cur_in_train = np.ascontiguousarray(self.H_train[:, cols], np.float32)
        self.cur_in_val = np.ascontiguousarray(self.H_val[:, cols], np.float32)

    def append_node(self, node: tuple, h_tr: np.ndarray, h_va: np.ndarray) -> None:
        cap = self.H_train.shape[1]
        if self.n_hidden == cap:
            self.H_train = _grown(self.H_train, (len(self.H_train), 2 * cap))
            self.H_val = _grown(self.H_val, (len(self.H_val), 2 * cap))
            self.Q = _grown(self.Q, self.H_train.shape)
            self.R = _grown(self.R, (2 * cap, 2 * cap))
            self.qt = _grown(self.qt, (2 * cap, self.m))
        self.H_train[:, self.n_hidden] = h_tr
        self.H_val[:, self.n_hidden] = h_va
        self.n_hidden += 1
        self.nodes.append(node)
        self.layer_sizes[-1] += 1
        k = sum(self.in_basis)
        q = self.Q[:, :k]
        coef = q.T @ h_tr
        v = h_tr - q @ coef
        again = q.T @ v
        v -= q @ again
        norm = float(np.linalg.norm(v))
        dependent = norm <= max(len(v), self.n_hidden) * np.finfo(float).eps * np.linalg.norm(h_tr)
        self.in_basis.append(not dependent)
        if dependent:
            self.beta = np.vstack([self.beta, np.zeros((1, self.m))])
            return
        self.Q[:, k] = v / norm
        self.R[:k, k] = coef + again
        self.R[k, k] = norm
        self.qt[k] = self.Q[:, k] @ self.target_train
        self.solve_readout()

    def remove_trailing(self, n: int) -> None:
        if n <= 0:
            return
        del self.nodes[-n:]
        del self.in_basis[-n:]
        self.layer_sizes[-1] -= n
        self.n_hidden -= n
        self.solve_readout()

    # -- readout ---------------------------------------------------------

    def solve_readout(self) -> None:
        """beta from R beta = Q^T target, then the residuals target - H beta."""
        k = sum(self.in_basis)
        self.beta = np.zeros((self.n_hidden, self.m))
        if k:
            self.beta[np.array(self.in_basis)] = np.linalg.solve(self.R[:k, :k], self.qt[:k])
        self.resid_train = self.target_train - self.H_train[:, : self.n_hidden] @ self.beta
        self.resid_val = self.target_val - self.H_val[:, : self.n_hidden] @ self.beta

    def train_rmse(self) -> float:
        return _rmse(self.resid_train)

    def val_rmse(self) -> float:
        return _rmse(self.resid_val)

    def finalize(self, encoding: EncodingSpec) -> tuple[ScmModel, int]:
        """The quantized model, and how many readout weights saturated."""
        beta_raw, saturated = fx.quantize_array(self.beta)
        layers, start = [], 0
        for act, size in zip(self.layer_acts, self.layer_sizes):
            rows = slice(start, start + size)
            w01, shift, bias_raw = zip(*self.nodes[rows])
            layers.append(ScmLayer.from_arrays(
                act, BitMatrix.from01(np.array(w01)), np.array(shift, dtype=np.uint8),
                np.array(bias_raw, dtype=np.int32), self.beta[rows].copy(), beta_raw[rows],
            ))
            start = rows.stop
        model = ScmModel(encoding, self.mech, layers, self.m)
        model.validate()
        return model, saturated


# bits of each residual column that the limbs keep, below its power-of-two bound
LIMB_REACH = 60


def limb_layout(n: int) -> tuple[int, int, int]:
    """How residual limbs are laid out for exact sums over n rows.

    Returns (step, count, hi). Limbs are integers of magnitude at most
    2**(step - 1) <= 2**24 // n, so any sum of them over n rows is an integer
    of magnitude at most 2**24, which float32 holds exactly. Consecutive limbs
    are 2**step apart, and `count` of them reach LIMB_REACH bits. The scaled
    sums of the first `hi` limbs add up exactly in float64, and so do those of
    the rest. Raises ValueError when n is too large for a limb of one bit.
    """
    cap = 2**24 // n
    if cap < 2:
        raise ValueError(
            f"{n} training rows are too many for exact candidate scoring "
            f"(at most {2**23})"
        )
    step = cap.bit_length()
    return step, -(-LIMB_REACH // step), 1 + 28 // step


class ResidualLimbs:
    """Residual columns split into integer limbs, for exact dots with bit columns.

    Column q of the (N, m) residual e is scaled by 2**-exp[q], where
    2**exp[q] is the least power of two above max |e[:, q]|, and split into
    limbs at the scales 2**(1 - step * k), k = 1..count, each limb the
    scaled remainder rounded to nearest. This is the error-free splitting of
    Ozaki, Ogita, Oishi & Rump (2012, "Error-free transformations of matrix
    multiplication by using fast routines of matrix multiplication and its
    applications", Numer. Algorithms 59), cut off at LIMB_REACH bits: the
    limbs sum to each entry rounded to the multiple of 2**(exp[q] + 1 -
    step * count) <= 2**(exp[q] - 59) nearest it.

    The rows of `lhs` are the limbs (output-major) and then a row of ones, so
    lhs @ bits gives, exactly, every limb's dot with each bit column and the
    bit counts; so does the sum of lhs[:, rows] @ bits[rows] over any
    partition of the rows, added in any order.
    """

    def __init__(self, e: np.ndarray):
        n, m = e.shape
        step, count, self.hi = limb_layout(n)
        _, self.exp = np.frexp(np.max(np.abs(e), axis=0))
        x = np.ldexp(e.T, -self.exp[:, None])  # |x| < 1, exact
        self.lhs = np.empty((m * count + 1, n), dtype=np.float32)
        limbs = self.lhs[:-1].reshape(m, count, n)
        for k in range(count):
            shift = step * (k + 1) - 1
            limb = np.rint(np.ldexp(x, shift))
            x -= np.ldexp(limb, -shift)  # exact: the remainder has <= 53 bits
            limbs[:, k] = limb
        self.lhs[-1] = 1.0
        self.totals = limbs.sum(axis=2, dtype=np.float64)  # exact integers
        self.scale = np.ldexp(1.0, 1 - step * np.arange(1, count + 1))

    def dots(self, sums: np.ndarray, pm1: bool) -> tuple[np.ndarray, np.ndarray]:
        """The (m, t) products e^T h and the (t,) bit counts of 0/1 columns.

        `sums` is the float32 product lhs @ bits, where bits is (N, t) with
        entries 0 or 1, and h is bits, or 2 * bits - 1 when `pm1`. Each
        product is the correctly rounded sum of the limb-rounded residual
        entries that h selects, with their signs.
        """
        sums = sums.astype(np.float64)
        limb_dots = sums[:-1].reshape(*self.totals.shape, -1)
        if pm1:
            # limb . (2 bit - 1) = 2 limb . bit - sum(limb), exact in float64
            limb_dots *= 2.0
            limb_dots -= self.totals[:, :, None]
        limb_dots *= self.scale[:, None]
        # each group sums exactly, so the one addition rounds the total once
        eh = limb_dots[:, : self.hi].sum(axis=1) + limb_dots[:, self.hi :].sum(axis=1)
        return np.ldexp(eh, self.exp[:, None]), sums[-1]


def add_node(
    state: TrainState, layer: int, cfg: TrainConfig, rng: np.random.Generator
) -> TrainRecord | None:
    """Try to add one node to the layer under construction.

    Draws cfg.t_max candidates per r value until one passes the acceptance
    test for every output; picks the passing candidate with the largest total
    score (ties broken by draw order), appends it, and refits the readout.
    Returns the accepted node's TrainRecord, numbered `layer` (counted from
    1) and by the node's position in that layer; the node itself is
    state.nodes[-1]. Returns None when the whole r schedule is
    exhausted.
    """
    act = state.layer_acts[-1]
    pm1 = act == Activation.STEP  # h = 2 * bit - 1, else h = bit
    s_tr = state.cur_in_train
    s_va = state.cur_in_val
    n, fan_in = s_tr.shape
    t = cfg.t_max
    e = state.resid_train
    ee = np.einsum("ij,ij->j", e, e)  # (m,)
    limbs = ResidualLimbs(e)
    shift_pool = np.array([lam.bit_length() - 1 for lam in cfg.lambda_pool])
    if state.work is None or state.work.shape[1] != t:
        state.work = np.empty((SCORE_ROWS, t), dtype=np.float32)

    for attempt, r in enumerate(cfg.r_schedule, start=1):
        w01 = rng.integers(0, 2, size=(t, fan_in), dtype=np.int8)
        w = w01.astype(np.float32) * 2.0 - 1.0
        shift = rng.choice(shift_pool, size=t)
        lam = np.ldexp(1.0, shift)
        b_raw, n_sat = fx.quantize_array(rng.uniform(-lam, lam))
        state.bias_saturated += n_sat

        sums = np.zeros((len(limbs.lhs), t), dtype=np.float32)
        for a in range(0, n, SCORE_ROWS):
            blk = slice(a, min(a + SCORE_ROWS, n))
            bits = threshold_bits(s_tr[blk], w, shift, b_raw, state.work[: blk.stop - a])
            sums += limbs.lhs[:, blk] @ bits
        eh, count = limbs.dots(sums, pm1)
        hh = np.full(t, float(n)) if pm1 else count
        valid = hh > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(valid, eh * eh / hh, -np.inf) - (1.0 - r) * ee[:, None]
        passing = valid & (xi > 0).all(axis=0)
        if not passing.any():
            continue
        scores = np.where(passing, xi.sum(axis=0), -np.inf)
        j = int(np.argmax(scores))

        one = slice(j, j + 1)
        # the work array holds only the last block: rebuild the accepted column
        h_tr, h_va = (
            activation_values(threshold_bits(s, w[one], shift[one], b_raw[one],
                                             np.empty((len(s), 1), np.float32))[:, 0], act)
            for s in (s_tr, s_va)
        )
        state.append_node((w01[j].astype(np.uint8), int(shift[j]), int(b_raw[j])), h_tr, h_va)
        return TrainRecord(
            layer=layer,
            node=state.layer_sizes[-1],
            r=r,
            lam=1 << int(shift[j]),
            xi_sum=float(xi[:, j].sum()),
            xi_min=float(xi[:, j].min()),
            train_rmse=state.train_rmse(),
            val_rmse=state.val_rmse(),
            drawn=attempt * t,
            passed=int(np.count_nonzero(passing)),
            r_attempts=attempt,
        )
    return None


def train(data: TrainData, cfg: TrainConfig) -> TrainResult:
    """Grow, validate, and quantize a model according to the config.

    The mechanism model is fit first; layers then grow one node at a time
    under the acceptance test, with the readout refit globally after every
    change and early stopping (with trailing-node rollback) per layer.

    Besides the per-node records, the result's events report how the L1
    fit converged (`l1_fit`), how many kept hidden columns were linearly
    dependent and so got readout 0 (`readout`), and how many values were
    clamped to the Q7.25 range (`saturation`). Training warns when the L1
    fit hits its sweep cap, and when a target or a fitted intercept lies
    outside [-64, 64), where the emulated outputs saturate.
    """
    sizes = [s for s in cfg.layer_sizes if s > 0]
    acts = [a for s, a in zip(cfg.layer_sizes, cfg.activations) if s > 0]
    if sizes:  # candidate scoring is exact at these sizes
        for fan_in in [data.bits_train.n, *sizes[:-1]]:
            check_fan_in(fan_in)
        limb_layout(len(data.bits_train))
    rng = np.random.default_rng(cfg.seed)
    state = TrainState(data, cfg)
    records: list[TrainRecord] = []
    events: list[dict] = []
    fit = state.mech.fit
    if fit is not None:
        events.append({"event": "l1_fit", "sweeps": fit.sweeps, "converged": fit.converged,
                       "objective": fit.objective, "constant_columns": fit.constant_columns})
        if not fit.converged:
            warnings.warn(
                f"the L1 mechanism fit stopped at its sweep cap ({fit.sweeps} sweeps) "
                "without converging", stacklevel=2,
            )
    targets_out = _outside_q725(data.y_train)
    intercepts_out = _outside_q725(state.mech.intercepts)
    if targets_out or intercepts_out:
        warnings.warn(
            f"{targets_out} training targets and {intercepts_out} mechanism intercepts "
            "lie outside the Q7.25 range [-64, 64); emulated outputs will saturate",
            stacklevel=2,
        )

    for layer, (size, act) in enumerate(zip(sizes, acts), start=1):
        state.begin_layer(act)
        val_hist: list[float] = []
        for j in range(size):
            rec = add_node(state, layer, cfg, rng)
            if rec is None:
                if layer == 1 and j == 0:
                    raise TrainingFailedError(
                        "no acceptable candidate for the first node; "
                        "relax the r schedule or enlarge t_max"
                    )
                events.append({"event": "layer_stop", "layer": layer, "reason": "no_candidate"})
                break
            records.append(rec)
            val_hist.append(rec.val_rmse)
            stop = early_stop_check(val_hist, cfg.l_step, cfg.tau)
            if stop is not None:
                state.remove_trailing(stop)
                events.append({"event": "early_stop", "layer": layer, "removed": stop})
                break
        if not state.layer_sizes[-1]:
            # nothing to feed deeper layers; drop the empty layer and stop
            state.layer_sizes.pop()
            state.layer_acts.pop()
            break
        state.end_layer()

    model, readouts_saturated = state.finalize(data.encoding)
    events.append({"event": "readout", "dependent_columns": state.in_basis.count(False)})
    events.append({
        "event": "saturation",
        "targets_outside": targets_out,
        "mechanism": state.mech.saturated,
        "bias_draws": state.bias_saturated,
        "readouts": readouts_saturated,
    })
    return TrainResult(model=model, records=records, events=events)
