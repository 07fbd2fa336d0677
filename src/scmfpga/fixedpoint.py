"""Q7.25 signed fixed-point arithmetic and the wide accumulator used by the emulator.

Values on the output path (readouts, linear-model weights, biases, final
outputs) are stored as 32-bit signed integers with 25 fractional bits, so the
representable range is [-64, 64 - 2**-25] at a resolution of 2**-25.
Pre-activation and output sums are accumulated at the same 25-bit fractional
scale in a 64-bit-wide integer ("WideAcc"), which cannot overflow for any sum
of up to 2**20 in-range terms; saturation happens only when a wide value is
written back to the 32-bit format.
"""

from __future__ import annotations

import math

import numpy as np

FRAC_BITS = 25
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
REAL_MIN = RAW_MIN / SCALE  # -64.0
REAL_MAX = RAW_MAX / SCALE  # 64 - 2**-25
RESOLUTION = 1.0 / SCALE


def fx_from_real_flagged(x: float) -> tuple[int, bool]:
    """Convert a real to raw Q7.25 with round-half-even; flag saturation.

    Returns (raw, saturated). Saturated means the rounded value fell outside
    the 32-bit range and was clamped; it is signalled, never raised.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("fixed-point conversion requires a finite value")
    scaled = x * SCALE
    if scaled >= RAW_MAX + 0.5:
        return RAW_MAX, True
    if scaled < RAW_MIN - 0.5:
        return RAW_MIN, True
    raw = round(scaled)  # Python round: half to even
    if raw > RAW_MAX:
        return RAW_MAX, True
    if raw < RAW_MIN:
        return RAW_MIN, True
    return raw, False


def fx_from_real(x: float) -> int:
    """Raw Q7.25 value nearest to x (ties to even), saturating silently."""
    return fx_from_real_flagged(x)[0]


def fx_to_real(raw: int) -> float:
    """Exact real value of a raw Q7.25 integer (raw / 2**25)."""
    return raw / SCALE


def fx_neg(raw: int) -> int:
    """Two's-complement negation; the minimum raw saturates to the maximum."""
    if raw == RAW_MIN:
        return RAW_MAX
    return -raw


def fx_neg_array(raw: np.ndarray) -> np.ndarray:
    """Vectorized fx_neg over raw Q7.25 values; returns int32."""
    wide = np.asarray(raw, dtype=np.int64)
    return np.where(wide == RAW_MIN, RAW_MAX, -wide).astype(np.int32)


def conditional_sum(select: np.ndarray, on: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per row of an (N, K) 0/1 `select`, the sum over k of on[k] or off[k].

    Row i adds on[k] where select[i, k] is set and off[k] where it is clear;
    `on` and `off` are (K, m) raw values. The result is (N, m) int64 and
    exact: it is off's column sum plus the integer product select @ (on - off).
    """
    on = np.asarray(on, dtype=np.int64)
    off = np.asarray(off, dtype=np.int64)
    return off.sum(axis=0) + np.asarray(select, dtype=np.int64) @ (on - off)


def quantize_array(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized fx_from_real over an array.

    Returns (int32 array of raw values, count of saturated entries).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("fixed-point conversion requires finite values")
    with np.errstate(over="ignore"):  # a finite value past 2**1000 saturates like any other
        scaled = np.rint(arr * SCALE)  # rint: half to even
    clipped = np.clip(scaled, RAW_MIN, RAW_MAX)
    n_sat = int(np.count_nonzero(scaled != clipped))
    return clipped.astype(np.int32), n_sat


def dequantize_array(raw: np.ndarray) -> np.ndarray:
    """Exact float64 values of an array of raw Q7.25 integers."""
    return np.asarray(raw, dtype=np.float64) / SCALE


def saturate_to_fx(acc: int) -> int:
    """Clamp a WideAcc value (int at 2**-25 scale) into the 32-bit raw range."""
    if acc > RAW_MAX:
        return RAW_MAX
    if acc < RAW_MIN:
        return RAW_MIN
    return int(acc)


def saturate_array(acc: np.ndarray) -> np.ndarray:
    """Vectorized saturate_to_fx over WideAcc values; returns int32."""
    return np.clip(acc, RAW_MIN, RAW_MAX).astype(np.int32)


def fx_to_decimal_string(raw: int) -> str:
    """Exact decimal string of raw / 2**25 (dyadic, so it terminates)."""
    if raw == 0:
        return "0"
    sign = "-" if raw < 0 else ""
    mag = abs(raw)
    int_part, frac_part = divmod(mag, SCALE)
    if frac_part == 0:
        return f"{sign}{int_part}"
    # frac/2**25 = frac*5**25 / 10**25, then strip trailing zeros
    digits = f"{frac_part * 5**FRAC_BITS:025d}".rstrip("0")
    return f"{sign}{int_part}.{digits}"
