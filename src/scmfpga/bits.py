"""Packed bit vectors and bit matrices.

Bits hold {0,1} but usually stand for {-1,+1} signals: bit 0 means -1 and
bit 1 means +1. There are two packed forms:

* BitMatrix, the batch form: N rows of `n` bits in an (N, W) matrix of
  little-endian uint64 words, W = ceil(n / 64). Bit j of row i is bit
  j % 64 of words[i, j // 64], so bit 0 is input 0, the order of the model
  file's weight rows; pad bits past `n` are zero. Encoded samples travel in
  this form, and it is the only input type of every batch entry point
  (signals_pm1, TrainData, predict_float_batch, predict_fpga_batch,
  evaluate_bits). A layer's weights are one BitMatrix too, one row per node,
  written to the model file as it is.
* BitVec, the scalar form: one row of `n` bits in a Python integer (bit i of
  the integer is bit i of the vector). Indexing a BitMatrix row gives one.
  The per-sample functions that serve as test oracles for the batch paths
  (predict_fpga, xnor_count, ones_count_dot, ...) take BitVecs, as does the
  ScmNode that ScmLayer.node(i) hands them; training does not build any.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

WORD_BITS = 64
WORD = np.dtype("<u8")  # one little-endian 64-bit word


def n_words(n: int) -> int:
    """Words per row of `n` bits."""
    return -(-n // WORD_BITS)


class BitVec:
    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        if n < 0:
            raise ValueError("bit vector length must be non-negative")
        self.n = n
        self.value = value & ((1 << n) - 1) if n else 0

    @classmethod
    def from01(cls, bits: Iterable[int] | np.ndarray) -> "BitVec":
        """Build from an iterable of 0/1 values; element i becomes bit i."""
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("from01 expects only 0/1 values")
        packed = np.packbits(arr.astype(np.uint8), bitorder="little")
        return cls(int(arr.size), int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_pm1(cls, values: Iterable[int] | np.ndarray) -> "BitVec":
        """Build from a {-1,+1} vector; +1 becomes bit 1."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.size and not np.isin(arr, (-1, 1)).all():
            raise ValueError("from_pm1 expects only -1/+1 values")
        return cls.from01((arr > 0).astype(np.uint8))

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Build from a '0'/'1' string read left to right (char i -> bit i)."""
        return cls.from01([int(c) for c in s])

    @classmethod
    def join(cls, parts: Sequence["BitVec"]) -> "BitVec":
        out_n = 0
        out_v = 0
        for p in parts:
            out_v |= p.value << out_n
            out_n += p.n
        return cls(out_n, out_v)

    def to01(self) -> np.ndarray:
        if self.n == 0:
            return np.zeros(0, dtype=np.uint8)
        n_bytes = -(-self.n // 8)
        raw = np.frombuffer(self.value.to_bytes(n_bytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n]

    def to_pm1(self) -> np.ndarray:
        return (self.to01().astype(np.int8) * 2 - 1).astype(np.int8)

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError("bit index out of range")
        return (self.value >> i) & 1

    def popcount(self) -> int:
        return self.value.bit_count()

    def to_string(self) -> str:
        return "".join(str((self.value >> i) & 1) for i in range(self.n))

    def invert(self) -> "BitVec":
        return BitVec(self.n, ~self.value)

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.value ^ other.value)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.value & other.value)

    def __or__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.value | other.value)

    def _check(self, other: "BitVec") -> None:
        if self.n != other.n:
            raise ValueError(f"bit vector length mismatch: {self.n} vs {other.n}")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __repr__(self) -> str:
        s = self.to_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"BitVec({self.n}, '{s}')"


class BitMatrix:
    """A batch of `n`-bit rows packed into an (N, W) little-endian uint64 matrix.

    See the module docstring for the layout. len() is the row count;
    m[i] is row i as a BitVec, m[a:b] a BitMatrix of those rows.
    """

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int):
        words = np.asarray(words, dtype=WORD)
        if n < 0 or words.ndim != 2 or words.shape[1] != n_words(n):
            raise ValueError(f"words of shape {words.shape} do not hold {n}-bit rows")
        if n % WORD_BITS and words.size and np.any(words[:, -1] >> np.uint64(n % WORD_BITS)):
            raise ValueError("pad bits past the row width must be zero")
        self.words = words
        self.n = n

    @classmethod
    def from01(cls, bits01: np.ndarray) -> "BitMatrix":
        """Pack an (N, n) array of truth values; column j becomes bit j.

        A nonzero entry is a 1 bit.
        """
        a = np.asarray(bits01)
        if a.ndim != 2:
            raise ValueError("from01 expects an (N, n) array")
        n_rows, n = a.shape
        out = np.zeros((n_rows, 8 * n_words(n)), dtype=np.uint8)
        packed = np.packbits(a, axis=1, bitorder="little")
        out[:, : packed.shape[1]] = packed
        return cls(out.view(WORD), n)

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec], n: int | None = None) -> "BitMatrix":
        """Pack BitVecs of one width (`n`, default the first row's, else 0)."""
        if n is None:
            n = rows[0].n if len(rows) else 0
        if any(r.n != n for r in rows):
            raise ValueError(f"every row must be {n} bits wide")
        word_bytes = 8 * n_words(n)
        data = bytearray().join(r.value.to_bytes(word_bytes, "little") for r in rows)
        return cls(np.frombuffer(data, dtype=WORD).reshape(len(rows), n_words(n)), n)

    def to01(self) -> np.ndarray:
        """(N, n) uint8 matrix of the bits."""
        return np.unpackbits(
            self.words.view(np.uint8), axis=1, count=self.n, bitorder="little"
        )

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return BitMatrix(self.words[key], self.n)
        row = self.words[operator.index(key)]
        return BitVec(self.n, int.from_bytes(row.tobytes(), "little"))

    def __iter__(self) -> Iterator[BitVec]:
        return (self[i] for i in range(len(self)))

