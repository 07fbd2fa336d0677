"""Packed bit matrices, and the 0/1 bit row of a node built from a list.

Bits hold {0,1} but usually stand for {-1,+1} signals: bit 0 means -1 and
bit 1 means +1. They have one packed form, BitMatrix: N rows of `n` bits in
an (N, W) matrix of little-endian uint64 words, W = ceil(n / 64). Bit j of
row i is bit j % 64 of words[i, j // 64], so bit 0 is input 0, the order of
the model file's weight rows; pad bits past `n` are zero. Encoded samples
travel in this form, and it is the only input type of every batch entry
point (signals_pm1, TrainData, predict_float_batch, predict_fpga_batch,
evaluate_bits). A layer's weights are one BitMatrix too, one row per node,
written to the model file as it is. BitMatrix.from01 is the one packer.

BitVec, one unpacked row of `n` bits as a 0/1 uint8 array, is the weight
record of an ScmNode, which only the benchmark's synthetic model builds;
ScmLayer stacks its nodes' rows and packs them with BitMatrix.from01.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

WORD_BITS = 64
WORD = np.dtype("<u8")  # one little-endian 64-bit word
HALF = np.dtype("<u4")  # one little-endian 32-bit half of a word


def n_words(n: int) -> int:
    """Words per row of `n` bits."""
    return -(-n // WORD_BITS)


class BitVec:
    """One row of n bits, element i bit i, in a read-only (n,) 0/1 uint8 array (bits)."""

    __slots__ = ("n", "bits")

    @classmethod
    def from01(cls, bits: Iterable[int] | np.ndarray) -> "BitVec":
        """Build from a 1-D iterable of 0/1 values; element i becomes bit i."""
        arr = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
        if arr.ndim != 1:
            raise ValueError("from01 expects a 1-D row of bits")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("from01 expects only 0/1 values")
        row = cls()
        row.n, row.bits = arr.size, arr.astype(np.uint8)
        row.bits.flags.writeable = False
        return row


class BitMatrix:
    """A batch of `n`-bit rows packed into an (N, W) little-endian uint64 matrix.

    See the module docstring for the layout; words and n cannot be rebound.
    len() is the row count; m[a:b] is a BitMatrix of those rows, and any key but
    a slice is a TypeError.
    """

    def __init__(self, words: np.ndarray, n: int):
        words = np.asarray(words, dtype=WORD)
        if n < 0 or words.ndim != 2 or words.shape[1] != n_words(n):
            raise ValueError(f"words of shape {words.shape} do not hold {n}-bit rows")
        if n % WORD_BITS and words.size and np.any(words[:, -1] >> np.uint64(n % WORD_BITS)):
            raise ValueError("pad bits past the row width must be zero")
        vars(self).update(words=words, n=n)

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

    def __setattr__(self, name, value):
        raise AttributeError(f"a bit matrix's {name} cannot be rebound")

    def to01(self) -> np.ndarray:
        """(N, n) uint8 matrix of the bits."""
        return np.unpackbits(
            self.words.view(np.uint8), axis=1, count=self.n, bitorder="little"
        )

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, rows: slice) -> "BitMatrix":
        if not isinstance(rows, slice):  # words[i] would be 1-D and skip the shape check
            raise TypeError(f"a bit matrix takes row slices, not {type(rows).__name__}")
        out = object.__new__(BitMatrix)  # rows of a checked matrix need no pad-bit scan
        vars(out).update(words=self.words[rows], n=self.n)
        return out
