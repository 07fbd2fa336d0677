"""Binary input encodings for normalized values in [0, 1].

Three families turn each real feature into a block of bits (stored as {0,1},
meaning {-1,+1} in arithmetic):

* density: one unary code over N+1 evenly divided buckets (N bits).
* scheme 1: one bit for the integer part plus, per decimal place, a 9-bit
  right-aligned unary code of the digit (1 + 9*u bits for u places).
* scheme 2: like scheme 1 but low-significance places collapse to quantized
  4-bit / 2-bit codes. Variant 1 covers 3 places in 16 bits
  ([1][9][4][2]); variant 2 covers 4 places in 25 bits ([1][9][9][4][2]).

Digits are read from the value's shortest decimal representation and
truncated, never rounded: 0.867 encodes as digits 8, 6, 7 even though the
nearest binary double is slightly below 0.867. Bit order inside a sample is
feature-major then field-major: feature 0's integer bit is bit 0, the
most significant pad bit of its first digit field is bit 1, and so on.
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
        if self.kind == EncodingKind.DENSITY:
            return self.param
        if self.kind == EncodingKind.SCHEME1:
            return 1 + 9 * self.param
        if self.kind == EncodingKind.SCHEME2_V1:
            return 16
        return 25

    def encode_value(self, x: float) -> BitVec:
        if self.kind == EncodingKind.DENSITY:
            return encode_density(x, self.param)
        if self.kind == EncodingKind.SCHEME1:
            return encode_scheme1(x, self.param)
        if self.kind == EncodingKind.SCHEME2_V1:
            return encode_scheme2(x, "V1")
        return encode_scheme2(x, "V2")

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


def encode_density(x: float, n: int) -> BitVec:
    """Unary bucket code: bucket min(floor(x*(N+1)), N), leading ones."""
    x = _check_unit(x)
    if n < 1:
        raise ValueError("N must be >= 1")
    level = min(int(x * (n + 1)), n)
    return BitVec(n, (1 << level) - 1)


def _digits(x: float, places: int) -> tuple[int, list[int]]:
    """Integer part and the first `places` decimal digits of x, truncated.

    Digits come from the shortest decimal form of the float, so a value
    entered as 0.867 yields 8, 6, 7 exactly.
    """
    d = Decimal(repr(float(x)))
    ones = int(d)
    frac = d - ones
    out = []
    for _ in range(places):
        frac *= 10
        dig = int(frac)
        out.append(dig)
        frac -= dig
    return ones, out


def decimal_digit(x: float, k: int) -> int:
    """The k-th decimal digit (k >= 1) of x in [0, 1], truncating."""
    x = _check_unit(x)
    if k < 1:
        raise ValueError("decimal place must be >= 1")
    return _digits(x, k)[1][k - 1]


def _unary9(digit: int) -> int:
    """9-bit right-aligned unary code of a digit, as a field integer.

    Field bit 0 is the leftmost (pad) position of the written code, so digit
    6 ('000111111') sets field bits 3..8.
    """
    return ((1 << digit) - 1) << (9 - digit)


def _quant4(digit: int) -> int:
    ones = digit // 2  # {0,1}->0, {2,3}->1, {4,5}->2, {6,7}->3, {8,9}->4
    return ((1 << ones) - 1) << (4 - ones)


def _quant2(digit: int) -> int:
    ones = 0 if digit <= 3 else (1 if digit <= 6 else 2)
    return ((1 << ones) - 1) << (2 - ones)


def _pack_fields(fields: list[tuple[int, int]]) -> BitVec:
    """Concatenate (width, field_value) pairs; field bit 0 goes first."""
    v = 0
    pos = 0
    for width, fv in fields:
        v |= fv << pos
        pos += width
    return BitVec(pos, v)


def encode_scheme1(x: float, u_places: int) -> BitVec:
    """Digit-wise unary code: [integer bit][9-bit unary per decimal place]."""
    x = _check_unit(x)
    if u_places < 1:
        raise ValueError("u_places must be >= 1")
    ones, digs = _digits(x, u_places)
    fields = [(1, ones)]
    fields += [(9, _unary9(d)) for d in digs]
    return _pack_fields(fields)


def encode_scheme2(x: float, variant: str) -> BitVec:
    """Digit-wise code with quantized low places.

    V1: [1][9-bit tenths][4-bit hundredths][2-bit thousandths] (16 bits).
    V2: [1][9-bit tenths][9-bit hundredths][4-bit thousandths][2-bit
    ten-thousandths] (25 bits).
    """
    x = _check_unit(x)
    if variant == "V1":
        ones, digs = _digits(x, 3)
        fields = [(1, ones), (9, _unary9(digs[0])), (4, _quant4(digs[1])), (2, _quant2(digs[2]))]
    elif variant == "V2":
        ones, digs = _digits(x, 4)
        fields = [
            (1, ones),
            (9, _unary9(digs[0])),
            (9, _unary9(digs[1])),
            (4, _quant4(digs[2])),
            (2, _quant2(digs[3])),
        ]
    else:
        raise ValueError("variant must be 'V1' or 'V2'")
    return _pack_fields(fields)


def encode_matrix(x: np.ndarray, spec: EncodingSpec) -> tuple[BitMatrix, int]:
    """Encode an (N, d) matrix row-wise into (rows, d_enc); features concatenate in order.

    Each distinct value is encoded once (real data repeats heavily after
    rounding); the codes are gathered into rows and packed, with no loop
    over rows. Values marginally outside [0, 1] (normalization drift on test
    rows) are clamped with a single warning carrying the clamp count;
    non-finite values raise DataError with their position.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
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
    width = spec.bits_per_input
    values, inverse = np.unique(arr.ravel(), return_inverse=True)
    code_bytes = -(-width // 8)
    codes = bytearray()
    for v in values:
        try:
            codes += spec.encode_value(float(v)).value.to_bytes(code_bytes, "little")
        except ValueError as exc:
            r, c = np.argwhere(arr == v)[0]
            raise DataError(f"row {r}, column {c}: {exc}") from exc
    code_bits = np.unpackbits(
        np.frombuffer(codes, dtype=np.uint8).reshape(len(values), code_bytes),
        axis=1, count=width, bitorder="little",
    )
    # (N*d, width) codes in row-major order are the (N, d*width) rows
    return BitMatrix.from01(code_bits[inverse].reshape(n, d * width)), d * width
