"""Binary input encodings for normalized values in [0, 1].

Every code is a row of thermometer fields, and one field table defines them
all (see _fields and _ONES):

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

encode_matrix is the batch path: a field's bits depend only on its digit
(density: its bucket), so it ORs table[digit] into each packed word the
field touches (_word_tables). One value's code is a one-row call: row 0 of
encode_matrix([[x]], spec)'s matrix.

Digit rule (_digit_table): the digits of each feature come from one exact
array rule. At q places, with p = 10.0**q, y = v*p, m = rint(y) and
f = floor(y), the truncated digits are t = m where m/p == v, else f where
f/p < v, else f - 1; digit k is t // 10**k % 10. It is exact because p and t
(below 2**53) are exact doubles and IEEE multiply and divide round correctly:
m/p == v holds exactly when a q-place decimal rounds to v, and then the
shortest repr is that decimal; otherwise no q-place decimal lies between the
shortest repr and v, so both truncate alike, and the two comparisons undo a
product that rounded up to the next integer. Past 15 places two decimals can
round to one double, so scheme 1 stops at 15 places, the rule's reach.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache

import numpy as np

from .bits import WORD, WORD_BITS, BitMatrix, n_words
from .errors import DataError


class EncodingKind(IntEnum):
    DENSITY = 0
    SCHEME1 = 1
    SCHEME2_V1 = 2
    SCHEME2_V2 = 3


# ones in a digit field of each width, indexed by the digit; width 1 is the
# integer bit, whose digit is 0 or 1. The 4-bit field maps digit pairs
# {0,1}..{8,9} to 0..4 ones and the 2-bit field maps {0-3}/{4-6}/{7-9} to 0/1/2.
_ONES = {1: [0, 1], 9: list(range(10)), 4: [c // 2 for c in range(10)],
         2: [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]}


@lru_cache(maxsize=64)
def _fields(spec: EncodingSpec) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Width and codes of each field of one value's code, in written order.

    codes[c] is the field's bits for index c, as an integer with bit 0
    first. Density is one field of N bits whose bucket c sets c ones from the
    left; every other kind is the integer bit and one field per decimal
    place, whose digit c sets _ONES[w][c] ones from the right of its w bits.
    """
    if spec.kind == EncodingKind.DENSITY:
        return ((spec.param, tuple((1 << c) - 1 for c in range(spec.param + 1))),)
    if spec.kind == EncodingKind.SCHEME1:
        widths = (1,) + (9,) * spec.param
    else:
        widths = (1, 9, 4, 2) if spec.kind == EncodingKind.SCHEME2_V1 else (1, 9, 9, 4, 2)
    return tuple((w, tuple((1 << w) - (1 << w - c) for c in _ONES[w])) for w in widths)


# each kind's spec-string name, the parameter a bare name takes, and the largest
# parameter (0: it takes none). N fills the model file's byte, and scheme 1
# stops at 15 places, the reach of the exact digit rule.
_KINDS = {EncodingKind.DENSITY: ("density", 10, 255), EncodingKind.SCHEME1: ("s1", 3, 15),
          EncodingKind.SCHEME2_V1: ("s2v1", 0, 0), EncodingKind.SCHEME2_V2: ("s2v2", 0, 0)}


@dataclass(frozen=True)
class EncodingSpec:
    kind: EncodingKind
    param: int = 0  # N for DENSITY, decimal places for SCHEME1, unused otherwise

    def __post_init__(self):
        top = _KINDS[EncodingKind(self.kind)][2]
        if top and not 1 <= self.param <= top:
            raise ValueError(f"{self.kind.name} needs a parameter in 1..{top}")
        if not top and self.param != 0:
            raise ValueError(f"{self.kind.name} takes no parameter")

    @cached_property
    def bits_per_input(self) -> int:
        return sum(w for w, _ in _fields(self))

    def to_bytes(self) -> bytes:
        return bytes([int(self.kind), self.param])

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodingSpec":
        if len(data) != 2:
            raise ValueError("encoding spec is exactly 2 bytes")
        return cls(EncodingKind(data[0]), data[1])

    def __str__(self) -> str:
        name = _KINDS[self.kind][0]
        return f"{name}:{self.param}" if self.param else name


def parse_encoding(text: str) -> EncodingSpec:
    """Parse a spec string: 'density:N', 's1:U', 's2v1', 's2v2'."""
    name, _, arg = text.strip().lower().partition(":")
    for kind, (kind_name, default, _) in _KINDS.items():
        if name == kind_name:
            return EncodingSpec(kind, int(arg) if arg else default)
    raise ValueError(f"unknown encoding {text!r}")


def _digit_table(values: np.ndarray, places: int) -> np.ndarray:
    """(V, 1 + places) uint8: the integer part and first places digits, truncated,
    of each of V values in [0, 1], by the exact array rule of the module docstring.
    """
    p = 10.0**places
    y = values * p
    m = np.rint(y)
    f = np.floor(y, out=y)
    exact = m / p == values
    f -= f / p >= values
    np.copyto(f, m, where=exact)
    t = f.astype(np.uint32 if places <= 9 else np.uint64)  # u32 divides faster
    digits = np.zeros((1 + places, len(values)), dtype=np.uint8)  # each place contiguous
    for k in range(places, -1, -1):  # the last place first
        np.divmod(t, 10, out=(t, digits[k]))
    return digits.T


@lru_cache(maxsize=64)
def _word_tables(spec: EncodingSpec, d: int) -> tuple[tuple[int, int, int, np.ndarray], ...]:
    """(feature, field, word, table) for each packed word a field of d features touches.

    table[c] holds the bits of _fields' codes[c] that fall in that word, in
    place. A field crossing a word boundary has one table per word.
    """
    tables, start = [], 0
    for j in range(d):
        for k, (width, codes) in enumerate(_fields(spec)):
            n = n_words(start % WORD_BITS + width)
            raw = b"".join((c << start % WORD_BITS).to_bytes(8 * n, "little") for c in codes)
            words = np.frombuffer(raw, WORD).reshape(len(codes), n)  # read-only, as cached
            tables += [(j, k, start // WORD_BITS + t, words[:, t]) for t in range(n)]
            start += width
    return tuple(tables)


def samples_2d(a: np.ndarray) -> np.ndarray:
    """a as float64 with one sample per row: a 1-D array is one column, a scalar one sample."""
    a = np.array(a, dtype=np.float64, copy=None, ndmin=1)
    return a[:, None] if a.ndim == 1 else a


def encode_matrix(x: np.ndarray, spec: EncodingSpec) -> tuple[BitMatrix, int]:
    """Encode an (N, d) matrix row-wise into (rows, d_enc); features concatenate in order.

    Each field's digit or bucket picks its bits from _word_tables straight into
    the packed words, with no loop over rows. Values marginally outside [0, 1]
    (normalization drift on test rows) are clamped with a single warning
    carrying the clamp count; non-finite values raise DataError with their position.
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
        warnings.warn(f"clamped {out_of_range} of {arr.size} values to [0, 1] before encoding",
                      stacklevel=2)
        arr = np.clip(arr, 0.0, 1.0)

    n, d = arr.shape
    d_enc = d * spec.bits_per_input
    words = np.zeros((n_words(d_enc), n), dtype=WORD)  # word-major, so each OR is contiguous
    feature = None
    for j, k, w, table in _word_tables(spec, d):
        if j != feature:  # one column at a time, copied contiguous: temporaries of N values
            feature, values = j, np.ascontiguousarray(arr[:, j])
            if spec.kind == EncodingKind.DENSITY:  # the bucket index
                index = np.minimum(values * (spec.param + 1), spec.param).astype(np.uint8)[:, None]
            else:
                index = _digit_table(values, len(_fields(spec)) - 1)
        words[w] |= np.take(table, index[:, k])
    return BitMatrix(np.ascontiguousarray(words.T), d_enc), d_enc
