"""Linear mechanism model over encoded +-1 inputs, held as int8 (signals_pm1).

int8 @ int8 wraps, so a caller multiplying two signal matrices casts one first.
A model is built from its float64 weights and intercepts, which training and
the reference ("PC") evaluation path use. The constructor derives their raw
Q7.25 integers, which the emulated datapath uses, once, and counts the values
it clamped to the format's range; the model file stores the raw integers, and
its reader requires them to equal the derived ones. The emulated evaluation
adds the stored weight when the input bit is 1 and its two's complement when
the bit is 0, then adds the intercept, all in the wide accumulator,
saturating once at the end.
mech_wide_fpga prepares it once (fixedpoint.conditional_sum) for (d_enc, rows)
bits, unsaturated; the emulator's scalar test oracle runs it on Python ints.
A model trained without a mechanism holds no_mechanism's, of source "none": zero
views that store and evaluate no values (n_values 0), so every stage skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fixedpoint as fx
from .bits import BitMatrix
from .linalg import LassoFit, lasso_fit

SOURCE_LASSO = "lasso"
SOURCE_EXTERNAL = "external"
SOURCE_NONE = "none"  # no mechanism, decided by the source: an all-zero external one stays one


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
        if self.source not in (SOURCE_LASSO, SOURCE_EXTERNAL, SOURCE_NONE):
            raise ValueError(f"unknown mechanism source {self.source!r}")
        if not 0.0 <= self.alpha < np.inf:  # also refuses NaN
            raise ValueError(f"mechanism alpha {self.alpha!r} is not finite and non-negative")
        none = self.source == SOURCE_NONE  # zeros; a zero-stride view holds one value, read once
        if none and (self.alpha or any(a.any() if any(a.strides) else a.size and a.flat[0]
                                       for a in (self.weights, self.intercepts))):
            raise ValueError("a mechanism of source 'none' holds only zeros and alpha 0")
        zero = lambda a: (np.broadcast_to(np.int32(0), a.shape), 0)  # noqa: E731
        w_raw, w_sat = (zero if none else fx.quantize_array)(self.weights)
        u_raw, u_sat = (zero if none else fx.quantize_array)(self.intercepts)
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

    @property
    def n_values(self) -> int:  # stored and evaluated: 0 for "none", else (d_enc + 1) * m
        return 0 if self.source == SOURCE_NONE else (self.d_enc + 1) * self.n_outputs


def no_mechanism(d_enc: int, m: int, alpha: float = 0.0) -> MechanismModel:
    """The "none" mechanism of a d_enc-wide, m-output model: zero-stride views, O(1) in size."""
    zeros = np.broadcast_to(0.0, (d_enc + 1, m))  # the weight rows, then the intercepts
    return MechanismModel(zeros[:-1], zeros[-1], SOURCE_NONE, alpha)


def signals_pm1(bits: BitMatrix) -> np.ndarray:
    """The (N, d_enc) int8 -1/+1 matrix of encoded rows, made in place in the unpacked bits."""
    s = bits.to01().view(np.int8)
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


def mech_wide_fpga(mech: MechanismModel) -> Callable[[np.ndarray], np.ndarray]:
    """Emulated sums, prepared once: from (d_enc, N) 0/1 bits to (N, m) int64 sums
    before saturation. Adds the raw weight for set bits and its two's complement
    (fx_neg_array) for clear bits, then the intercept, exactly (conditional_sum)."""
    total = fx.conditional_sum(mech.weights_raw, fx.fx_neg_array(mech.weights_raw))
    return lambda x01: total(x01) + mech.intercepts_raw
