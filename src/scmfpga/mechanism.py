"""Linear mechanism model over encoded +-1 inputs.

A model is built from its float64 weights and intercepts, which training and
the reference ("PC") evaluation path use. The constructor derives their raw
Q7.25 integers, which the emulated datapath uses, once, and counts the values
it clamped to the format's range; the model file stores the raw integers, and
its reader requires them to equal the derived ones. The emulated evaluation
adds the stored weight when the input bit is 1 and its two's complement when
the bit is 0, then adds the intercept, all in the wide accumulator,
saturating once at the end.
mech_wide_fpga does this for a batch, before the saturation; the emulator's
scalar oracle, emulate.predict_fpga, runs the same sum on Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix
from .linalg import LassoFit, lasso_fit

SOURCE_LASSO = "lasso"
SOURCE_EXTERNAL = "external"


@dataclass(frozen=True, eq=False)  # == is identity: the fields hold arrays
class MechanismModel:
    weights: np.ndarray  # (d_enc, m) float64
    intercepts: np.ndarray  # (m,) float64
    source: str = SOURCE_LASSO
    alpha: float = 0.0
    fit: LassoFit | None = field(default=None, repr=False)  # how fit_mechanism converged
    # derived from weights and intercepts by __post_init__
    weights_raw: np.ndarray = field(init=False)  # (d_enc, m) int32
    intercepts_raw: np.ndarray = field(init=False)  # (m,) int32
    saturated: int = field(init=False)  # weights and intercepts clamped to the Q7.25 range

    def __post_init__(self):
        if self.weights.ndim != 2 or self.intercepts.ndim != 1:
            raise ValueError("weights must be (d_enc, m), intercepts (m,)")
        if self.weights.shape[1] != self.intercepts.shape[0]:
            raise ValueError("output count mismatch between weights and intercepts")
        if self.source not in (SOURCE_LASSO, SOURCE_EXTERNAL):
            raise ValueError(f"unknown mechanism source {self.source!r}")
        if not 0.0 <= self.alpha < np.inf:  # also refuses NaN
            raise ValueError(f"mechanism alpha {self.alpha!r} is not finite and non-negative")
        w_raw, w_sat = fx.quantize_array(self.weights)
        u_raw, u_sat = fx.quantize_array(self.intercepts)
        object.__setattr__(self, "weights_raw", w_raw)  # the dataclass is frozen
        object.__setattr__(self, "intercepts_raw", u_raw)
        object.__setattr__(self, "saturated", w_sat + u_sat)
        for held in (self.weights, self.intercepts, w_raw, u_raw):
            held.flags.writeable = False

    @property
    def d_enc(self) -> int:
        return self.weights.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[1]


def signals_pm1(bits: BitMatrix, dtype=np.float64) -> np.ndarray:
    """The (N, d_enc) -1/+1 matrix of encoded rows in dtype: a float type, or int8 made in place."""
    s = bits.to01().view(np.int8) if np.dtype(dtype) == np.int8 else bits.to01().astype(dtype)
    s *= 2
    s -= 1
    return s


def fit_mechanism(s: np.ndarray, y: np.ndarray, alpha: float) -> MechanismModel:
    """L1-fit the linear term on the (N, d_enc) +-1 matrix of encoded rows.

    `s` is signals_pm1 of the encoded rows; the intercepts are the lasso's own,
    mean(y) - mean(s) . weights. The model keeps the LassoFit as `fit`.
    """
    fit = lasso_fit(s, y, alpha)
    return MechanismModel(fit.p, fit.u, SOURCE_LASSO, alpha, fit)


def external_mechanism(weights: np.ndarray, intercepts: np.ndarray) -> MechanismModel:
    """Copies of user-supplied (d_enc, m) weights and (m,) intercepts (e.g. a plant model)."""
    return MechanismModel(np.array(weights, dtype=np.float64),
                          np.array(intercepts, dtype=np.float64), SOURCE_EXTERNAL)


def mech_eval_float_batch(s: np.ndarray, mech: MechanismModel) -> np.ndarray:
    """Evaluate on an (N, d_enc) +-1 matrix; returns (N, m)."""
    if s.shape[1] != mech.d_enc:
        raise ValueError(f"input width {s.shape[1]} != mechanism width {mech.d_enc}")
    return s @ mech.weights + mech.intercepts


def mech_wide_fpga(x01: np.ndarray, mech: MechanismModel) -> np.ndarray:
    """Emulated sums on an (N, d_enc) 0/1 matrix, before saturation; (N, m) int64.

    Adds the raw weight for set bits and its two's complement (fx_neg) for
    clear bits, then the intercept, exactly in the wide accumulator.
    """
    w = mech.weights_raw
    return fx.conditional_sum(x01, w, fx.fx_neg_array(w)) + mech.intercepts_raw
