"""Linear mechanism model over encoded +-1 inputs.

The model keeps two synchronized copies of its parameters: float64 values used
by training and the reference ("PC") evaluation path, and raw Q7.25 integers
used by the emulated datapath. The emulated evaluation adds the stored weight
when the input bit is 1 and its two's complement when the bit is 0, then adds
the intercept, all in the wide accumulator, saturating once at the end.
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


@dataclass(frozen=True)
class MechanismModel:
    weights: np.ndarray  # (d_enc, m) float64
    intercepts: np.ndarray  # (m,) float64
    weights_raw: np.ndarray  # (d_enc, m) int32
    intercepts_raw: np.ndarray  # (m,) int32
    source: str = SOURCE_LASSO
    alpha: float = 0.0
    saturated: int = 0  # weights and intercepts clamped by from_real
    fit: LassoFit | None = field(default=None, repr=False)  # how fit_mechanism converged

    def __post_init__(self):
        if self.weights.ndim != 2 or self.intercepts.ndim != 1:
            raise ValueError("weights must be (d_enc, m), intercepts (m,)")
        if self.weights.shape[1] != self.intercepts.shape[0]:
            raise ValueError("output count mismatch between weights and intercepts")
        if self.weights_raw.shape != self.weights.shape:
            raise ValueError("quantized weights shape mismatch")
        if (self.weights_raw.dtype, self.intercepts_raw.dtype) != (np.int32, np.int32):
            raise ValueError("raw weights and intercepts must be int32, as in the model file")
        fx.check_rounds_to(self.weights, self.weights_raw)
        fx.check_rounds_to(self.intercepts, self.intercepts_raw)
        if self.source not in (SOURCE_LASSO, SOURCE_EXTERNAL):
            raise ValueError(f"unknown mechanism source {self.source!r}")

    @property
    def d_enc(self) -> int:
        return self.weights.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_real(
        cls,
        weights: np.ndarray,
        intercepts: np.ndarray,
        source: str,
        alpha: float = 0.0,
        fit: LassoFit | None = None,
    ) -> "MechanismModel":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        u = np.atleast_1d(np.asarray(intercepts, dtype=np.float64))
        w_raw, w_sat = fx.quantize_array(w)
        u_raw, u_sat = fx.quantize_array(u)
        return cls(w, u, w_raw, u_raw, source, alpha, w_sat + u_sat, fit)

    @classmethod
    def zero(cls, d_enc: int, m: int) -> "MechanismModel":
        return cls.from_real(np.zeros((d_enc, m)), np.zeros(m), SOURCE_EXTERNAL)


def signals_pm1(bits: BitMatrix) -> np.ndarray:
    """The (N, d_enc) float64 -1/+1 matrix of encoded rows."""
    s = bits.to01().astype(np.float64)
    s *= 2.0
    s -= 1.0
    return s


def fit_mechanism(s: np.ndarray, y: np.ndarray, alpha: float) -> MechanismModel:
    """L1-fit the linear term on the (N, d_enc) +-1 matrix of encoded rows.

    `s` is signals_pm1 of the encoded rows. Intercepts are the target column
    means. The model keeps the LassoFit (sweeps, convergence, objective) as
    `fit`.
    """
    fit = lasso_fit(s, y, alpha)
    return MechanismModel.from_real(fit.p, fit.u, SOURCE_LASSO, alpha, fit)


def external_mechanism(weights: np.ndarray, intercepts: np.ndarray) -> MechanismModel:
    """Wrap user-supplied linear weights (e.g. a plant model) unchanged."""
    return MechanismModel.from_real(weights, intercepts, SOURCE_EXTERNAL)


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
