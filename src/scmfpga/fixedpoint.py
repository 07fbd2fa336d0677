"""Q7.25 signed fixed-point arithmetic and the wide accumulator used by the emulator.

Values on the output path (readouts, linear-model weights, biases, final
outputs) are stored as 32-bit signed integers with 25 fractional bits, so the
representable range is [-64, 64 - 2**-25] at a resolution of 2**-25.
Pre-activation and output sums are accumulated at the same 25-bit fractional
scale in a 64-bit-wide integer ("WideAcc"), which cannot overflow for any sum
of up to 2**20 in-range terms; saturation happens only when a wide value is
written back to the 32-bit format. conditional_sum prepares such sums once
and forms them from node-major 0/1 selects in float64 products, exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

FRAC_BITS = 25
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
REAL_MIN = RAW_MIN / SCALE  # -64.0
REAL_MAX = RAW_MAX / SCALE  # 64 - 2**-25
RESOLUTION = 1.0 / SCALE


def fx_neg_array(raw: np.ndarray) -> np.ndarray:
    """Two's-complement negation of raw Q7.25 values, in which the minimum raw
    saturates to the maximum; returns int32."""
    wide = np.asarray(raw, dtype=np.int64)
    return np.where(wide == RAW_MIN, RAW_MAX, -wide).astype(np.int32)


EXACT_TERMS = 2**20  # nodes per float64 product of conditional_sum


def conditional_sum(on: np.ndarray, off: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Per row of a 0/1 select, the sum over k of on[k] or off[k], prepared once.

    `on` and `off` are (K, m) raw values. The returned function maps a (K, N)
    select to (N, m) int64 sums, row i adding on[k] where select[k, i] is set
    and off[k] where it is clear, exactly: off's column sum plus select.T @ (on
    - off) in float64. Each term is an integer below 2**32 in magnitude, so in a
    product of at most EXACT_TERMS = 2**20 nodes every partial sum, in any order,
    is an integer below 2**52, which a double holds exactly; longer sums go in
    chunks of that many nodes, added in int64.
    """
    on, off = np.asarray(on, dtype=np.int64), np.asarray(off, dtype=np.int64)
    diff, base = (on - off).astype(np.float64), off.sum(axis=0)

    def total(select: np.ndarray) -> np.ndarray:
        select, out = np.asarray(select, dtype=np.float64), base
        for a in range(0, max(len(diff), 1), EXACT_TERMS):  # one product even for K = 0
            part = select[a : a + EXACT_TERMS].T @ diff[a : a + EXACT_TERMS]
            out = out + part.astype(np.int64)
        return out

    return total


def quantize_array(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Raw Q7.25 values nearest to an array of finite values (ties to even),
    clamped to the 32-bit range; values are bounded to +-128 first, where they
    saturate anyway, so that no finite value overflows when it is scaled.

    Returns (int32 array of raw values, count of saturated entries).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("fixed-point conversion requires finite values")
    scaled = np.rint(np.minimum(np.maximum(arr, -128.0), 128.0) * SCALE)  # rint: half to even
    clipped = np.minimum(np.maximum(scaled, RAW_MIN), RAW_MAX)
    n_sat = int(np.count_nonzero(scaled != clipped))
    return clipped.astype(np.int32), n_sat


def dequantize_array(raw: np.ndarray) -> np.ndarray:
    """Exact float64 values of an array of raw Q7.25 integers."""
    return np.asarray(raw, dtype=np.float64) / SCALE


def saturate_array(acc: np.ndarray) -> np.ndarray:
    """Clamp WideAcc values (at 2**-25 scale) into the 32-bit raw range; returns int32."""
    return np.minimum(np.maximum(acc, RAW_MIN), RAW_MAX).astype(np.int32)


def fx_to_decimal_string(raw: int) -> str:
    """Exact decimal string of raw / 2**25, without exponent or trailing zeros:
    frac / 2**25 = frac * 5**25 / 10**25, so no fraction digit is rounded."""
    whole, frac = divmod(abs(raw), SCALE)
    text = ("-%d.%025d" if raw < 0 else "%d.%025d") % (whole, frac * 5**25)
    return text.rstrip("0").rstrip(".")
