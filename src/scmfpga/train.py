"""Constructive training: candidate search, acceptance test, readout refits.

Nodes are added one at a time. Each attempt draws a batch of random candidates
(binary weights, a power-of-two scale, a bias coupled to the scale), keeps the
ones whose score

    xi_q = <e_q, h>**2 / <h, h> - (1 - r) * <e_q, e_q>     (per output q)

is positive for every output, and takes the passing candidate with the largest
total score. The contraction factor r walks a schedule toward 1, so the test
relaxes before the layer gives up. After every accepted node the readout is
refit by least squares over all hidden outputs collected so far, which keeps
the training residual non-increasing.

Biases are drawn uniform on [-lambda, +lambda] and snapped to the Q7.25 grid
at draw time (saturating at the format range): the stored bias must fit the
32-bit output-path word, and a grid bias makes the float path and the emulated
integer path compute bit-identical activations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix, BitVec, as_bit_matrix
from .encoding import EncodingSpec, encode_matrix
from .errors import TrainingFailedError
from .linalg import least_squares
from .mechanism import (
    MechanismModel,
    fit_mechanism,
    mech_eval_float_batch,
    signals_pm1,
)
from .model import Activation, ScmLayer, ScmModel, ScmNode, activation_values

DEFAULT_R_SCHEDULE = (0.9, 0.99, 0.999, 0.9999)
DEFAULT_LAMBDA_POOL = (1, 2, 4, 8, 16, 32, 64, 128)


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

    @property
    def grows_nodes(self) -> bool:
        return any(self.layer_sizes)

    @classmethod
    def single_layer(cls, nodes: int, activation: Activation = Activation.STEP, **kw):
        if nodes == 0:
            return cls(layer_sizes=(), activations=(), **kw)
        return cls(layer_sizes=(nodes,), activations=(activation,), **kw)


@dataclass
class TrainData:
    """Encoded training and validation rows (a list of BitVecs is packed once)."""

    bits_train: BitMatrix
    y_train: np.ndarray  # (N, m)
    bits_val: BitMatrix
    y_val: np.ndarray  # (K, m)
    encoding: EncodingSpec
    n_features: int

    def __post_init__(self):
        self.bits_train = as_bit_matrix(self.bits_train)
        self.bits_val = as_bit_matrix(self.bits_val)
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


@dataclass
class AddResult:
    node: ScmNode
    r: float
    xi_sum: float
    xi_min: float
    drawn: int
    passed: int
    r_attempts: int


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


class TrainState:
    """Mutable book-keeping while a model is grown.

    Holds the residual matrices, the accumulated hidden-output columns for
    the global readout refit, the per-layer node lists, and the signal
    matrices feeding the layer currently under construction.
    """

    def __init__(self, data: TrainData, cfg: TrainConfig):
        self.cfg = cfg
        self.m = data.y_train.shape[1]
        self.s1_train = signals_pm1(data.bits_train)
        self.s1_val = signals_pm1(data.bits_val)
        if cfg.use_mechanism:
            self.mech = fit_mechanism(self.s1_train, data.y_train, cfg.alpha)
        else:
            self.mech = MechanismModel.zero(self.s1_train.shape[1], self.m)
        self.target_train = data.y_train - mech_eval_float_batch(self.s1_train, self.mech)
        self.target_val = data.y_val - mech_eval_float_batch(self.s1_val, self.mech)
        self.h_train: list[np.ndarray] = []
        self.h_val: list[np.ndarray] = []
        self.beta = np.zeros((0, self.m))
        self.resid_train = self.target_train.copy()
        self.resid_val = self.target_val.copy()
        self.layer_nodes: list[list[ScmNode]] = []
        self.layer_acts: list[Activation] = []
        self.cur_in_train = self.s1_train
        self.cur_in_val = self.s1_val
        # drawn candidate biases clamped to the Q7.25 range (by design at lambda 128)
        self.bias_saturated = 0

    # -- layer lifecycle -------------------------------------------------

    def begin_layer(self, act: Activation) -> None:
        self.layer_nodes.append([])
        self.layer_acts.append(act)

    def end_layer(self) -> None:
        n = len(self.layer_nodes[-1])
        self.cur_in_train = np.column_stack(self.h_train[-n:])
        self.cur_in_val = np.column_stack(self.h_val[-n:])

    def append_node(self, node: ScmNode, h_tr: np.ndarray, h_va: np.ndarray) -> None:
        self.layer_nodes[-1].append(node)
        self.h_train.append(h_tr)
        self.h_val.append(h_va)
        self.refit_beta()

    def remove_trailing(self, n: int) -> None:
        if n <= 0:
            return
        del self.layer_nodes[-1][-n:]
        del self.h_train[-n:]
        del self.h_val[-n:]
        self.refit_beta()

    # -- readout ---------------------------------------------------------

    def refit_beta(self) -> None:
        if not self.h_train:
            self.beta = np.zeros((0, self.m))
            self.resid_train = self.target_train.copy()
            self.resid_val = self.target_val.copy()
            return
        h = np.column_stack(self.h_train)
        self.beta = least_squares(h, self.target_train)
        self.resid_train = self.target_train - h @ self.beta
        self.resid_val = self.target_val - np.column_stack(self.h_val) @ self.beta

    def train_rmse(self) -> float:
        return _rmse(self.resid_train)

    def val_rmse(self) -> float:
        return _rmse(self.resid_val)

    def finalize(self, encoding: EncodingSpec) -> tuple[ScmModel, int]:
        """The quantized model, and how many readout weights saturated."""
        layers = []
        g = 0
        saturated = 0
        for nodes, act in zip(self.layer_nodes, self.layer_acts):
            final_nodes = []
            for node in nodes:
                beta = self.beta[g].copy()
                beta_raw, n_sat = fx.quantize_array(beta)
                saturated += n_sat
                final_nodes.append(
                    ScmNode(node.w, node.shift, node.bias, node.bias_raw, beta, beta_raw)
                )
                g += 1
            layers.append(ScmLayer(act, final_nodes))
        model = ScmModel(encoding, self.mech, layers, self.m)
        model.validate()
        return model, saturated


def threshold_bits(
    s32: np.ndarray,
    w32: np.ndarray,
    lam: np.ndarray,
    b: np.ndarray,
    dot: np.ndarray,
    bit: np.ndarray,
) -> np.ndarray:
    """Threshold bits [s . w_k * lam_k + b_k > 0] of t candidates on N rows.

    s32 (N, fan_in) and w32 (t, fan_in) are float32 with entries in
    {-1, 0, +1}; dot (N, t) float32 and bit (N, t) bool are work buffers, and
    bit is returned. The test is dot > floor(-b / lam) on the integer dot,
    which is the same as dot * lam + b > 0: lam is a power of two and b lies
    on the Q7.25 grid. The float64 pre-activation is exact while
    fan_in * lam + |b| < 2**28, and the float32 dot while fan_in < 2**24.
    """
    np.matmul(s32, w32.T, out=dot)
    return np.greater(dot, np.floor(-b / lam).astype(np.float32), out=bit)


def add_node(
    state: TrainState, layer: int, cfg: TrainConfig, rng: np.random.Generator
) -> AddResult | None:
    """Try to add one node to the layer under construction.

    Draws cfg.t_max candidates per r value until one passes the acceptance
    test for every output; picks the passing candidate with the largest total
    score (ties broken by draw order), appends it, and refits the readout.
    Returns None when the whole r schedule is exhausted.
    """
    act = state.layer_acts[-1]
    s_tr = state.cur_in_train
    s_va = state.cur_in_val
    n, fan_in = s_tr.shape
    t = cfg.t_max
    e = state.resid_train
    ee = np.einsum("ij,ij->j", e, e)  # (m,)
    pool = np.array(cfg.lambda_pool, dtype=np.float64)
    # entries are -1, 0 or +1, so float32 holds them and every dot exactly
    s32 = s_tr.astype(np.float32)
    dot = np.empty((n, t), dtype=np.float32)
    bit = np.empty((n, t), dtype=bool)
    h = np.empty((n, t))

    for attempt, r in enumerate(cfg.r_schedule, start=1):
        w = rng.integers(0, 2, size=(t, fan_in), dtype=np.int8)
        w = w.astype(np.float32) * 2.0 - 1.0
        lam = rng.choice(pool, size=t)
        b_raw, n_sat = fx.quantize_array(rng.uniform(-lam, lam))
        state.bias_saturated += n_sat
        b = fx.dequantize_array(b_raw)

        np.copyto(h, threshold_bits(s32, w, lam, b, dot, bit))
        if act == Activation.STEP:
            h *= 2.0
            h -= 1.0
            hh = np.full(t, float(n))
        else:
            hh = np.count_nonzero(bit, axis=0)
        eh = e.T @ h  # (m, t)
        valid = hh > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.where(valid, eh * eh / hh, -np.inf) - (1.0 - r) * ee[:, None]
        passing = valid & (xi > 0).all(axis=0)
        if not passing.any():
            continue
        scores = np.where(passing, xi.sum(axis=0), -np.inf)
        j = int(np.argmax(scores))

        shift = int(lam[j]).bit_length() - 1
        bias = float(b[j])
        w_j = w[j].astype(np.float64)
        node = ScmNode(
            w=BitVec.from_pm1(w[j].astype(np.int8)),
            shift=shift,
            bias=bias,
            bias_raw=int(b_raw[j]),
            beta=np.zeros(state.m),
            beta_raw=np.zeros(state.m, dtype=np.int32),
        )
        h_v = activation_values((s_va @ w_j) * lam[j] + bias > 0, act)
        state.append_node(node, h[:, j].copy(), h_v)
        return AddResult(
            node=node,
            r=r,
            xi_sum=float(xi[:, j].sum()),
            xi_min=float(xi[:, j].min()),
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
    fit converged (`l1_fit`) and how many values were clamped to the Q7.25
    range (`saturation`). Training warns when the L1 fit hits its sweep cap,
    and when a target or a fitted intercept lies outside [-64, 64), where
    the emulated outputs saturate.
    """
    rng = np.random.default_rng(cfg.seed)
    state = TrainState(data, cfg)
    records: list[TrainRecord] = []
    events: list[dict] = []
    fit = state.mech.fit
    if fit is not None:
        events.append({"event": "l1_fit", "sweeps": fit.sweeps,
                       "converged": fit.converged, "objective": fit.objective})
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

    sizes = [s for s in cfg.layer_sizes if s > 0]
    acts = [a for s, a in zip(cfg.layer_sizes, cfg.activations) if s > 0]
    for k, (size, act) in enumerate(zip(sizes, acts)):
        state.begin_layer(act)
        val_hist: list[float] = []
        for j in range(size):
            res = add_node(state, k, cfg, rng)
            if res is None:
                if k == 0 and j == 0:
                    raise TrainingFailedError(
                        "no acceptable candidate for the first node; "
                        "relax the r schedule or enlarge t_max"
                    )
                events.append({"event": "layer_stop", "layer": k + 1, "reason": "no_candidate"})
                break
            records.append(
                TrainRecord(
                    layer=k + 1,
                    node=j + 1,
                    r=res.r,
                    lam=res.node.lam,
                    xi_sum=res.xi_sum,
                    xi_min=res.xi_min,
                    train_rmse=state.train_rmse(),
                    val_rmse=state.val_rmse(),
                    drawn=res.drawn,
                    passed=res.passed,
                    r_attempts=res.r_attempts,
                )
            )
            val_hist.append(state.val_rmse())
            stop = early_stop_check(val_hist, cfg.l_step, cfg.tau)
            if stop is not None:
                state.remove_trailing(stop)
                events.append(
                    {"event": "early_stop", "layer": k + 1, "removed": stop}
                )
                break
        if not state.layer_nodes[-1]:
            # nothing to feed deeper layers; drop the empty layer and stop
            state.layer_nodes.pop()
            state.layer_acts.pop()
            break
        state.end_layer()

    model, readouts_saturated = state.finalize(data.encoding)
    events.append({
        "event": "saturation",
        "targets_outside": targets_out,
        "mechanism": state.mech.saturated,
        "bias_draws": state.bias_saturated,
        "readouts": readouts_saturated,
    })
    return TrainResult(model=model, records=records, events=events)
