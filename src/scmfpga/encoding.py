"""Binary input encodings for normalized values in [0, 1].

Every code is a row of thermometer fields, and one field table defines them
all (see _layout and _ONES):

* density: one left-aligned unary field of N bits holding the bucket index
  min(floor(x*(N+1)), N).
* scheme 1: the integer bit, then per decimal place a 9-bit right-aligned
  field holding the digit's value in ones (1 + 9*u bits for u places).
* scheme 2: like scheme 1 but low-significance places collapse to 4-bit and
  2-bit fields holding fewer ones per digit. Variant 1 covers 3 places in
  16 bits ([1][9][4][2]); variant 2 covers 4 places in 25 bits
  ([1][9][9][4][2]).

Digits are read from the value's shortest decimal representation and
truncated, never rounded: 0.867 encodes as digits 8, 6, 7 even though the
nearest binary double is slightly below 0.867. Bit order inside a sample is
feature-major then field-major: feature 0's integer bit is bit 0, the
most significant pad bit of its first digit field is bit 1, and so on.

encode_matrix is the batch path, and EncodingSpec.encode_value, the one
encoder of a single value (parse_encoding(text).encode_value(x)), is a
one-row call of the same code.

Digit rule (_digit_table): the digits of all distinct values come from one
exact array rule instead of a Decimal per value. At q = min(places, 15)
places, with p = 10.0**q, y = v*p, m = rint(y) and f = floor(y), the
truncated digits are t = m where m/p == v, else f where f/p < v, else f - 1;
digit k is t // 10**k % 10. It is exact because p and t (below 2**53) are
exact doubles and IEEE multiply and divide round correctly: m/p == v holds
exactly when a q-place decimal rounds to v, and then the shortest repr is
that decimal; otherwise no q-place decimal lies between the shortest repr
and v, so both truncate alike, and the two comparisons undo a product that
rounded up to the next integer. Past 15 places two such decimals can round
to one double, so values with a 15-place form get zeros beyond place 15 and
only the rest go through the scalar _digits, which is also the test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import Decimal
from enum import IntEnum

import numpy as np

from .bits import BitMatrix, BitVec
from .errors import DataError


class EncodingKind(IntEnum):
    DENSITY = 0
    SCHEME1 = 1
    SCHEME2_V1 = 2
    SCHEME2_V2 = 3


def _layout(kind: EncodingKind, param: int) -> tuple[int, ...]:
    """Field widths of one value's code, in written order.

    Density is one field of N bits; every other kind is the integer bit
    followed by one field per decimal place.
    """
    if kind == EncodingKind.DENSITY:
        return (param,)
    if kind == EncodingKind.SCHEME1:
        return (1,) + (9,) * param
    return (1, 9, 4, 2) if kind == EncodingKind.SCHEME2_V1 else (1, 9, 9, 4, 2)


_DIGIT = np.arange(10, dtype=np.uint8)
# ones in a digit field of each width, indexed by the digit; width 1 is the
# integer bit, whose digit is 0 or 1. The 4-bit field maps digit pairs
# {0,1}..{8,9} to 0..4 ones and the 2-bit field maps {0-3}/{4-6}/{7-9} to 0/1/2.
_ONES = {1: _DIGIT[:2], 9: _DIGIT, 4: _DIGIT // 2,
         2: np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.uint8)}
# a field's bits for each digit: row c of np.tri(w + 1, w, -1) holds c ones
# from the left, and reversed c ones from the right
_FIELD_BITS = {w: np.tri(w + 1, w, -1, dtype=bool)[ones, ::-1] for w, ones in _ONES.items()}


@dataclass(frozen=True)
class EncodingSpec:
    kind: EncodingKind
    param: int = 0  # N for DENSITY, decimal places for SCHEME1, unused otherwise

    def __post_init__(self):
        if self.kind in (EncodingKind.DENSITY, EncodingKind.SCHEME1):
            if not 1 <= self.param <= 255:
                raise ValueError(f"{self.kind.name} needs a parameter in 1..255")
        elif self.param != 0:
            raise ValueError(f"{self.kind.name} takes no parameter")

    @property
    def bits_per_input(self) -> int:
        return sum(_layout(self.kind, self.param))

    def encode_value(self, x: float) -> BitVec:
        return BitVec.from01(_codes(np.array([_check_unit(x)]), self.kind, self.param)[0])

    def to_bytes(self) -> bytes:
        return bytes([int(self.kind), self.param])

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodingSpec":
        if len(data) != 2:
            raise ValueError("encoding spec is exactly 2 bytes")
        return cls(EncodingKind(data[0]), data[1])

    def __str__(self) -> str:
        if self.kind == EncodingKind.DENSITY:
            return f"density:{self.param}"
        if self.kind == EncodingKind.SCHEME1:
            return f"s1:{self.param}"
        return "s2v1" if self.kind == EncodingKind.SCHEME2_V1 else "s2v2"


def parse_encoding(text: str) -> EncodingSpec:
    """Parse a spec string: 'density:N', 's1:U', 's2v1', 's2v2'."""
    t = text.strip().lower()
    if t == "s2v1":
        return EncodingSpec(EncodingKind.SCHEME2_V1)
    if t == "s2v2":
        return EncodingSpec(EncodingKind.SCHEME2_V2)
    name, _, arg = t.partition(":")
    if name == "density":
        return EncodingSpec(EncodingKind.DENSITY, int(arg) if arg else 10)
    if name == "s1":
        return EncodingSpec(EncodingKind.SCHEME1, int(arg) if arg else 3)
    raise ValueError(f"unknown encoding {text!r}")


def _check_unit(x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"value {x!r} outside [0, 1]")
    return x


def _digits(x: float, places: int) -> list[int]:
    """Integer part of x, then its first `places` decimal digits, truncated.

    Digits come from the shortest decimal form of the float, so a value
    entered as 0.867 yields 8, 6, 7 exactly.
    """
    d = Decimal(repr(x))
    ones = int(d)
    frac = int((d - ones).scaleb(places))  # exact: the shift only moves the exponent
    return [ones, *map(int, str(frac).zfill(places))]


# places the array digit rule covers: 10**15 and every truncated value fit
# exactly in a double, and no two 15-place decimals share one double's
# rounding interval in [0, 1]
_EXACT_PLACES = 15


def _digit_table(values: np.ndarray, places: int) -> np.ndarray:
    """(V, 1 + places) uint8: _digits of each of V values in [0, 1].

    The exact array rule of the module docstring; past 15 places only the
    values without a 15-place form call _digits.
    """
    q = min(places, _EXACT_PLACES)
    p = 10.0**q
    y = values * p
    m = np.rint(y)
    f = np.floor(y)
    exact = m / p == values
    t = np.where(exact, m, np.where(f / p < values, f, f - 1)).astype(np.int64)
    digits = np.zeros((len(values), 1 + places), dtype=np.uint8)
    for k in range(q, -1, -1):  # the last place first
        t, digits[:, k] = np.divmod(t, 10)
    if places > q:
        for i in np.flatnonzero(~exact):
            digits[i] = _digits(values.item(i), places)
    return digits


def _codes(values: np.ndarray, kind: EncodingKind, param: int) -> np.ndarray:
    """(V, width) bool codes of V values in [0, 1], bits in written order.

    Each field is a thermometer holding a count of ones: the density field
    fills from the left with the bucket index, a digit field fills from the
    right with its _ONES count for the digit (a row of _FIELD_BITS).
    """
    if kind == EncodingKind.DENSITY:
        level = np.minimum(values * (param + 1), param).astype(np.int64)
        return level[:, None] > np.arange(param)
    widths = _layout(kind, param)
    digits = _digit_table(values, len(widths) - 1)
    return np.hstack([np.take(_FIELD_BITS[w], digits[:, k], axis=0)
                      for k, w in enumerate(widths)])


def samples_2d(a: np.ndarray) -> np.ndarray:
    """a as float64 with one sample per row: a 1-D array is one column, a scalar one sample."""
    a = np.array(a, dtype=np.float64, copy=None, ndmin=1)
    return a[:, None] if a.ndim == 1 else a


def encode_matrix(x: np.ndarray, spec: EncodingSpec) -> tuple[BitMatrix, int]:
    """Encode an (N, d) matrix row-wise into (rows, d_enc); features concatenate in order.

    Each distinct value is encoded once (real data repeats heavily after
    rounding); the codes are gathered into rows and packed, with no loop
    over rows. Values marginally outside [0, 1] (normalization drift on test
    rows) are clamped with a single warning carrying the clamp count;
    non-finite values raise DataError with their position.
    """
    arr = samples_2d(x)
    if arr.ndim != 2:
        raise DataError("encode_matrix expects a 2-D matrix")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"non-finite input at row {r}, column {c}")
    out_of_range = int(np.count_nonzero((arr < 0.0) | (arr > 1.0)))
    if out_of_range:
        warnings.warn(
            f"clamped {out_of_range} of {arr.size} values to [0, 1] before encoding",
            stacklevel=2,
        )
        arr = np.clip(arr, 0.0, 1.0)

    n, d = arr.shape
    values, inverse = np.unique(arr.ravel(), return_inverse=True)
    codes = _codes(values, spec.kind, spec.param)
    # (N*d, width) codes in row-major order are the (N, d*width) rows
    d_enc = d * codes.shape[1]
    return BitMatrix.from01(codes[inverse].reshape(n, d_enc)), d_enc
