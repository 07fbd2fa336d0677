"""Constructive training: candidate search, acceptance test, readout refits.

Nodes are added one at a time. Each attempt draws a batch of random candidates
(binary weights, a power-of-two scale, a bias coupled to the scale), keeps the
ones whose score

    xi_q = <e_q, h>**2 / <h, h> - (1 - r) * <e_q, e_q>     (per output q)

is positive for every output, and takes the passing candidate with the largest
total score. The contraction factor r walks a schedule toward 1, so the test
relaxes before the layer gives up. After every accepted node the readout is
refit by least squares over all hidden outputs collected so far, which keeps
the training residual non-increasing. The fit keeps the triangle R of a thin
QR of the int8 hidden outputs, one column per node, without Q (TrainState).

Biases are drawn uniform on [-lambda, +lambda] and snapped to the Q7.25 grid
at draw time (saturating at the format range), and a node keeps the raw
value. Candidates and the accepted node's column get their bits from
model.threshold_bits, the integer test the reference path and the emulator
also make, so every path computes bit-identical activations.

Training rows with equal signals get equal bits from every candidate, so
begin_layer groups them, and a candidate's scores are computed without forming
h, over one row per group in blocks of SCORE_ROWS groups. A block's int8
signals give its threshold bits as 0/1 in a small float32 work array that the
TrainState owns (threshold_bits), and one float32 GEMM multiplies them by the
groups' sums of the residual limbs (ResidualLimbs) and their sizes, summed over
the blocks. Every partial sum of limbs over any rows is an integer below 2**24,
so <e_q, h> is the correctly rounded sum of the selected residual entries
(each kept to 60 bits below its column's power-of-two bound) whatever order
the BLAS and the blocks add in, and the weighted bit count gives <h, h> for
SIGN. This holds while the training set has at most 2**23 rows and every
fan-in is below 2**24 (check_fan_in); TrainState checks both first. The groups
are scored largest residual first, and after each block a candidate is dropped
once a bound over the unscored groups shows it cannot pass (add_node states the
bounds and their slack); an attempt with none left fails at once. Dropped
candidates could not have passed, so the decisions are unchanged.

TrainData holds the encoded training rows and then the validation rows in one
BitMatrix. TrainState(data, cfg) keeps its inputs, so add_node(state),
begin_layer() and finalize() take no others; it fits the mechanism on its
training rows, builds the int8 +-1 signal matrix once, and keeps each
accepted node's 0/1 weight row, scale code and raw bias; add_node returns the
node's TrainRecord, which train logs as is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix
from .encoding import EncodingSpec, encode_matrix, samples_2d
from .errors import TrainingFailedError
from .linalg import rmse, row_blocks
from .mechanism import fit_mechanism, mech_eval_float_batch, no_mechanism, signals_pm1
from .model import (Activation, ScmLayer, ScmModel, check_fan_in,
                    threshold_bits, threshold_edge)

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
        if (n := len(self.layer_sizes)) != (k := len(self.activations)):
            raise ValueError(f"{n} layers but {k} activations")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be >= 1; a mechanism-only model has no layers")
        if not (self.layer_sizes or self.use_mechanism):
            raise ValueError("no layers (layer_sizes, --nodes 0) and no mechanism "
                             "(use_mechanism, --no-mechanism) leave nothing to train")
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
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, not {self.tau}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and non-negative, not {self.alpha}")

    @classmethod
    def single_layer(cls, nodes: int, activation: Activation = Activation.STEP, **kw):
        return cls(layer_sizes=(nodes,), activations=(activation,), **kw)


@dataclass
class TrainData:
    """Encoded rows (encode_matrix) and targets; the first n_train are the training rows."""

    bits: BitMatrix
    y: np.ndarray  # (N + K, m)
    n_train: int  # N
    encoding: EncodingSpec

    def __post_init__(self):
        self.y = samples_2d(self.y)
        if self.y.shape[0] != len(self.bits):
            raise ValueError(f"{self.y.shape[0]} targets do not match {len(self.bits)} inputs")
        bad = np.argwhere(~np.isfinite(self.y))
        if bad.size:
            raise ValueError(f"non-finite target at row {bad[0, 0]}, column {bad[0, 1]}")
        if not 1 <= self.n_train < len(self.bits):
            raise ValueError("need at least 1 training and 1 validation sample")
        if not (self.bits.n and self.y.shape[1]):
            raise ValueError("need at least 1 encoded bit and 1 target column")
        if self.bits.n % self.encoding.bits_per_input:
            raise ValueError(f"encoded width {self.bits.n} must be a multiple of "
                             f"{self.encoding.bits_per_input} bits per input")


def prepare_train_data(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    spec: EncodingSpec,
) -> TrainData:
    """Encode normalized feature matrices, training rows first, into a TrainData bundle."""
    x = [samples_2d(x_train), samples_2d(x_val)]
    y = [samples_2d(y_train), samples_2d(y_val)]
    if x[0].shape[1] != x[1].shape[1]:
        raise ValueError(f"{x[0].shape[1]} training features against {x[1].shape[1]} validation")
    if [len(a) for a in x] != [len(a) for a in y]:
        raise ValueError("targets do not match inputs")
    bits, _ = encode_matrix(np.vstack(x), spec)
    return TrainData(bits, np.vstack(y), len(x[0]), spec)


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
        for ev in self.events:  # floats at %.9g, as in the records
            lines.append(" ".join(f"{k}={v:.9g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in ev.items()))
        return "\n".join(lines)


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
    for keep in range(n, 1, -1):
        prev, cur = val_errors[keep - 2], val_errors[keep - 1]
        if (prev - cur) / cur > tau if cur > 0.0 else prev > cur:
            return n - keep
    return n - 1


def _outside_q725(values: np.ndarray) -> int:
    """How many values lie outside the Q7.25 range [-64, 64)."""
    return int(np.count_nonzero((values < fx.REAL_MIN) | (values >= -fx.REAL_MIN)))


def _grown(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """a copied into the leading block of a zero array of the given shape."""
    return np.pad(a, [(0, size - k) for size, k in zip(shape, a.shape)])


class TrainState:
    """Mutable book-keeping while a model is grown.

    Checks the row count the L1 fit needs and the exactness limits before it
    allocates, then keeps the config, the encoding, the generator seeded by
    cfg.seed, the targets and residuals, the hidden-output columns for the
    global readout refit with each column's node, the layer sizes, the signals
    feeding the layer under construction (one contiguous int8 matrix, which
    the L1 fit, its targets and candidate scoring read as they are), its
    training rows listed group by group, a group of equal signals starting at
    each index in group_starts (by_group), and its one scratch array, the
    (SCORE_ROWS, t_max) candidate work array. Rows are in TrainData's order;
    R, the L1 fit and candidate scoring read [:n_train].

    The hidden outputs live in an int8 (N + K, capacity) array H (entries
    +-1 or 0/1) whose first n_hidden columns are in use; the capacity starts
    at the configured node count (at most 64) and doubles when full.

    The readout (SC-III of Wang & Li 2017) keeps R and qt = Q^T target[:n_train]
    of a thin QR H_B[:n_train] = Q R of the basis columns H_B, but not Q. A new
    column h gets coef = R^-T (H_B^T h) and v = h - H_B R^-1 coef, and one
    correction pass repeats both on v: corrected seminormal equations (Bjorck
    1987), O(N L). beta solves R beta = qt; remove_trailing drops trailing
    columns of R and qt, which is exact. A column whose remainder is at most
    max(N, L) * eps * |h| (lstsq's cutoff) gets readout 0 and no column of R;
    while the residual lies above rounding level, xi > 0 rules that out. The
    residuals on every row stay target - H @ beta, the model's own errors.
    Products with H run over its float64 row_blocks, so no float64 copy of
    H is held, and the targets and residuals are written in place.
    """

    def __init__(self, data: TrainData, cfg: TrainConfig):
        n = self.n_train = data.n_train
        if cfg.use_mechanism and n < 2:
            raise ValueError(f"the L1 mechanism fit needs at least 2 training rows, not {n}")
        if cfg.layer_sizes:  # candidate scoring is exact at these sizes
            for fan_in in [data.bits.n, *cfg.layer_sizes[:-1]]:
                check_fan_in(fan_in)
            limb_layout(n)
        self.cfg = cfg
        self.encoding = data.encoding
        self.rng = np.random.default_rng(cfg.seed)
        self.m = data.y.shape[1]
        # (SCORE_ROWS, t_max) float32 candidate dots of a row block, then their
        # 0/1 threshold bits; allocated before the L1 fit, so a t_max too large
        # to hold fails at once
        self.work = np.empty((SCORE_ROWS, cfg.t_max) if cfg.layer_sizes else (0, 0), np.float32)
        # entries are -1, 0 or +1, which every float product converts exactly
        self.cur_in = signals_pm1(data.bits)
        if cfg.use_mechanism:
            self.mech = fit_mechanism(self.cur_in[:n], data.y[:n], cfg.alpha)
            self.target = data.y.copy()
            for rows, s in row_blocks(self.cur_in):
                self.target[rows] -= mech_eval_float_batch(s, self.mech)
        else:
            self.mech = no_mechanism(data.bits.n, self.m)
            self.target = data.y
        # a C-order column write touches every row, so a large configured
        # node count is not allocated up front
        capacity = min(max(1, sum(cfg.layer_sizes)), 64)
        self.H = np.empty((len(data.bits), capacity), np.int8)
        self.R = np.zeros((capacity, capacity))
        self.qt = np.zeros((capacity, self.m))
        self.n_hidden = 0
        self.in_basis: list[bool] = []  # per hidden column: has a column of R
        self.nodes: list[tuple] = []  # per hidden column: 0/1 uint8 weight row, shift, bias_raw
        self.beta = np.zeros((0, self.m))
        self.resid = self.target.copy()
        self.layer_sizes: list[int] = []  # layer k has activation cfg.activations[k]
        # drawn candidate biases clamped to the Q7.25 range (by design at lambda 128)
        self.bias_saturated = 0

    # -- layer lifecycle -------------------------------------------------

    def begin_layer(self) -> None:
        """Start the next configured layer, fed by the last layer's columns if any."""
        if self.layer_sizes:
            cols = slice(self.n_hidden - self.layer_sizes[-1], self.n_hidden)
            self.cur_in = self.H[:, cols].copy()
        self.layer_sizes.append(0)
        # group the training rows by their packed signals, one void key per row
        packed = np.packbits(self.cur_in[: self.n_train] > 0, axis=1)
        key = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        self.by_group = np.argsort(key, kind="stable")
        key = key[self.by_group]
        self.group_starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])

    def append_node(self, node: tuple, h: np.ndarray) -> None:
        """Add a hidden column h (int8, on every row) and refit the readout."""
        cap = self.H.shape[1]
        if self.n_hidden == cap:
            self.H = _grown(self.H, (len(self.H), 2 * cap))
            self.R = _grown(self.R, (2 * cap, 2 * cap))
            self.qt = _grown(self.qt, (2 * cap, self.m))
        k, n = sum(self.in_basis), self.n_train
        basis = slice(0, k) if all(self.in_basis) else np.flatnonzero(self.in_basis)
        self.H[:, self.n_hidden] = h
        self.n_hidden += 1
        self.nodes.append(node)
        self.layer_sizes[-1] += 1
        r, v, col, h_b = self.R[:k, :k], h[:n].astype(np.float64), np.zeros(k), self.H[:n, basis]
        hv = sum(hb.T @ v[rows] for rows, hb in row_blocks(h_b))  # H_B^T h, exact
        for correct in (True, False):  # the projection, then one correction pass
            step = np.linalg.solve(r.T, hv)
            col += step
            x, hv = np.linalg.solve(r, step), np.zeros(k)
            for rows, hb in row_blocks(h_b):
                v[rows] -= hb @ x
                if correct:  # H_B^T v, for the correction pass
                    hv += hb.T @ v[rows]
        norm = float(np.linalg.norm(v))
        dependent = norm <= max(n, self.n_hidden) * np.finfo(float).eps * np.linalg.norm(h[:n])
        self.in_basis.append(not dependent)
        if dependent:
            self.beta = np.vstack([self.beta, np.zeros((1, self.m))])
            return
        self.R[: k + 1, k] = np.append(col, norm)
        self.qt[k] = v / norm @ self.target[:n]
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
        """beta from R beta = qt, then the residuals target - H beta."""
        k = sum(self.in_basis)
        self.beta = np.zeros((self.n_hidden, self.m))
        if k:
            self.beta[np.array(self.in_basis)] = np.linalg.solve(self.R[:k, :k], self.qt[:k])
        for rows, hb in row_blocks(self.H[:, : self.n_hidden]):
            np.subtract(self.target[rows], hb @ self.beta, out=self.resid[rows])

    def train_rmse(self) -> float:
        return rmse(self.resid[: self.n_train])  # TrainData keeps both row sets non-empty

    def val_rmse(self) -> float:
        return rmse(self.resid[self.n_train :])

    def finalize(self) -> ScmModel:
        """The model; each layer rounds its readouts and counts the clamped ones."""
        layers, start = [], 0
        for act, size in zip(self.cfg.activations, self.layer_sizes):
            rows = slice(start, start + size)
            w01, shift, bias_raw = zip(*self.nodes[rows])
            layers.append(ScmLayer.from_arrays(
                act, BitMatrix.from01(np.array(w01)), np.array(shift, dtype=np.uint8),
                np.array(bias_raw, dtype=np.int32), self.beta[rows].copy()))
            start = rows.stop
        return ScmModel(self.encoding, self.mech, layers, self.m)


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
        raise ValueError(f"{n} training rows are too many for exact candidate scoring "
                         f"(at most {2**23})")
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


def add_node(state: TrainState) -> TrainRecord | None:
    """Try to add one node to the layer under construction.

    Draws state.cfg.t_max candidates per r value from state.rng until one
    passes the acceptance test for every output; picks the passing candidate
    with the largest total score (ties broken by draw order), appends it, and
    refits the readout. Returns the accepted node's TrainRecord, numbered by
    its layer (counted from 1) and its position in that layer; the node itself
    is state.nodes[-1]. Returns None when the whole r schedule is exhausted.

    A group of n equal training rows is scored once: its limb sums and n
    stand in for the rows' limbs and ones, and E_q is its sum of the
    limb-rounded e_q, which the scores use. Groups are scored by decreasing
    max_q E_q**2 / <e_q, e_q> (by |E| when m is 1) to 8 significant bits, the
    high half of its float32: a uint16 key that the stable sort radix-sorts.
    After each block but the last, a candidate is dropped when for some q a
    bound on its score, however the unscored groups go, is <= (1 - r) <e_q,
    e_q> (1 - 1e-9). STEP: g = 2 e^T bit - sum(e) from the bits so far counts
    every unscored group as h = -1, so <e_q, h> ends within S of g + U, U and
    S the unscored sums of E_q and |E_q|, and the score is at most
    (|g + U| + S)**2 / N. SIGN: with dot d and count c so far, Cauchy-Schwarz
    gives (d + T sqrt(c'))**2 / (c + c') <= d**2 / c + T**2 for c' more bits,
    T**2 the unscored sum of E_q**2 / n (T**2 alone when c is 0). As |E_q| and
    E_q**2 / n are at most the group's sums of |e_q| and e_q**2, neither bound
    is looser than over single rows. Limb sums are exact, so g, d and each E_q
    are rounded once; a tail adds at most SCORE_ROWS groups and then
    N / SCORE_ROWS <= 2**15 blocks in sequence, so at N <= 2**23 U and S are
    each within 2**-37 sum |e_q|. S gets a slack of 1e-9 sum |e_q| for them
    and g's rounding (< 2**-35 sum |e_q| in all). T**2 adds non-negative
    terms, so it is within 2**-37 of itself, and the factor 1 - 1e-9 covers
    that and the scores' rounding. Dropped candidates could not pass: the
    accepted node, `passed` and the scores are unchanged.
    """
    cfg, rng = state.cfg, state.rng
    layer = len(state.layer_sizes)
    pm1 = cfg.activations[layer - 1] == Activation.STEP  # h = 2 * bit - 1, else h = bit
    n, fan_in = state.n_train, state.cur_in.shape[1]
    t, m = cfg.t_max, state.m
    e = state.resid[:n]
    ee = np.einsum("ij,ij->j", e, e)  # (m,)
    limbs = ResidualLimbs(e[state.by_group])
    # the limbs' columns become the groups' sums (exact integers) and sizes,
    # largest share first, and one row per group is scored
    limbs.lhs = np.add.reduceat(limbs.lhs, state.group_starts, axis=1)
    eg, size = limbs.dots(limbs.lhs, False)  # each E rounded once
    eg = eg.T
    share = np.divide(eg * eg, ee, out=np.zeros_like(eg), where=ee > 0).max(axis=1).astype(np.float32)
    order = np.argsort(~(share.view(np.uint32) >> 16).astype(np.uint16), kind="stable")
    limbs.lhs, eg, size = np.take(limbs.lhs, order, axis=1), eg[order], size[order]
    rows = state.by_group[state.group_starts[order]]
    # what the groups after each block can still add, and the least value the
    # bound can take then: no check is made while that passes every limit
    g = len(rows)
    starts = np.arange(0, g, SCORE_ROWS)
    per_group = np.hstack([eg, np.abs(eg)]) if pm1 else eg * eg / size[:, None]
    tail = np.cumsum(np.add.reduceat(per_group, starts)[::-1], axis=0)[::-1]
    tail = np.vstack([tail[1:], np.zeros_like(tail[:1])])
    slack = 1e-9 * np.abs(e).sum(axis=0)
    floor = (tail[:, m:] + slack) ** 2 / n if pm1 else tail
    shift_pool = np.array([lam.bit_length() - 1 for lam in cfg.lambda_pool])

    for attempt, r in enumerate(cfg.r_schedule, start=1):
        w01 = rng.integers(0, 2, size=(t, fan_in), dtype=np.int8)
        w = w01.astype(np.float32) * 2.0 - 1.0
        shift = rng.choice(shift_pool, size=t)
        lam = np.ldexp(1.0, shift)
        b_raw, n_sat = fx.quantize_array(rng.uniform(-lam, lam))
        state.bias_saturated += n_sat
        edge = threshold_edge(shift, b_raw).astype(np.float32)

        limit = (1.0 - r) * ee * (1.0 - 1e-9)
        live, w_live, edge_live = np.arange(t), w, edge  # the survivors, in draw order
        sums = np.zeros((len(limbs.lhs), t), dtype=np.float32)
        for b, a in enumerate(starts):
            blk = slice(a, min(a + SCORE_ROWS, g))
            work = state.work.reshape(-1)[: (blk.stop - a) * live.size].reshape(-1, live.size)
            sums += limbs.lhs[:, blk] @ threshold_bits(state.cur_in[rows[blk]], w_live,
                                                       edge_live, work)
            if blk.stop == g or not (floor[b] <= limit).any():
                continue
            eh, count = limbs.dots(sums, pm1)
            if pm1:
                reach = np.abs(eh + tail[b, :m, None]) + tail[b, m:, None] + slack[:, None]
                bound = reach * reach / n
            else:
                bound = np.divide(eh * eh, count, out=np.zeros_like(eh), where=count > 0)
                bound += tail[b, :, None]
            alive = ~(bound <= limit[:, None]).any(axis=0)
            if not alive.all():
                live, w_live, edge_live = live[alive], w_live[alive], edge_live[alive]
                sums = sums[:, alive]
                if not live.size:
                    break
        eh, count = limbs.dots(sums, pm1)
        hh = np.full(live.size, float(n)) if pm1 else count
        valid = hh > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(valid, eh * eh / hh, -np.inf) - (1.0 - r) * ee[:, None]
        passing = valid & (xi > 0).all(axis=0)
        if not passing.any():
            continue
        scores = np.where(passing, xi.sum(axis=0), -np.inf)
        best = int(np.argmax(scores))
        j = int(live[best])

        # the work array holds only the last block: rebuild the accepted column h
        # SCORE_ROWS rows at a time, through the work array
        h = np.empty(len(state.cur_in), np.int8)
        for a in range(0, len(h), SCORE_ROWS):
            s_blk = state.cur_in[a : a + SCORE_ROWS]
            bit = threshold_bits(s_blk, w[[j]], edge[[j]], state.work.ravel()[: len(s_blk), None])
            h[a : a + SCORE_ROWS] = 2 * bit[:, 0] - 1 if pm1 else bit[:, 0]
        state.append_node((w01[j].astype(np.uint8), int(shift[j]), int(b_raw[j])), h)
        return TrainRecord(
            layer=layer,
            node=state.layer_sizes[-1],
            r=r,
            lam=1 << int(shift[j]),
            xi_sum=float(xi[:, best].sum()),
            xi_min=float(xi[:, best].min()),
            train_rmse=state.train_rmse(),
            val_rmse=state.val_rmse(),
            drawn=attempt * t,
            passed=int(np.count_nonzero(passing)),
            r_attempts=attempt,
        )
    return None


def train(data: TrainData, cfg: TrainConfig) -> TrainResult:
    """Grow a model according to the config and quantize it into a frozen ScmModel.

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
    state = TrainState(data, cfg)
    records: list[TrainRecord] = []
    events: list[dict] = []
    fit = state.mech.fit
    if fit is not None:
        events.append({"event": "l1_fit", "sweeps": fit.sweeps, "converged": fit.converged,
                       "objective": fit.objective, "constant_columns": fit.constant_columns})
        if not fit.converged:
            warnings.warn(f"the L1 mechanism fit stopped at its sweep cap ({fit.sweeps} sweeps) "
                          "without converging", stacklevel=2)
    targets_out = _outside_q725(data.y[: data.n_train])
    intercepts_out = _outside_q725(state.mech.intercepts)
    if targets_out or intercepts_out:
        warnings.warn(f"{targets_out} training targets and {intercepts_out} mechanism intercepts "
                      "lie outside the Q7.25 range [-64, 64); emulated outputs will saturate",
                      stacklevel=2)

    for layer, size in enumerate(cfg.layer_sizes, start=1):
        state.begin_layer()
        val_hist: list[float] = []
        for j in range(size):
            rec = add_node(state)
            if rec is None:
                if layer == 1 and j == 0:
                    why = "; the mechanism may leave nothing a node can fit" * cfg.use_mechanism
                    raise TrainingFailedError("no acceptable candidate for the first node; relax "
                                              f"the r schedule or enlarge t_max{why}")
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
            break

    model = state.finalize()
    events.append({"event": "readout", "dependent_columns": state.in_basis.count(False)})
    events.append({
        "event": "saturation",
        "targets_outside": targets_out,
        "mechanism": state.mech.saturated,
        "bias_draws": state.bias_saturated,
        "readouts": sum(layer.saturated for layer in model.layers),
    })
    return TrainResult(model=model, records=records, events=events)
