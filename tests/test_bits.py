import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga.bits import BitMatrix, BitVec, n_words


def test_from_string_and_back():
    v = BitVec.from_string("1001101")
    assert v.n == 7
    assert v.to_string() == "1001101"
    assert v.get(0) == 1 and v.get(1) == 0 and v.get(6) == 1


def test_from01_pm1_consistency():
    v = BitVec.from01([1, 0, 1, 1])
    assert np.array_equal(v.to01(), [1, 0, 1, 1])
    assert np.array_equal(v.to_pm1(), [1, -1, 1, 1])


def test_popcount_zerocount():
    v = BitVec.from_string("110100")
    assert v.popcount() == 3
    assert v.popcount() + (v.n - v.popcount()) == v.n


def test_invert_masks_to_length():
    v = BitVec.from_string("101")
    assert v.invert().to_string() == "010"
    assert v.invert().popcount() + v.popcount() == v.n


def test_bitwise_ops():
    a = BitVec.from_string("1100")
    b = BitVec.from_string("1010")
    assert (a ^ b).to_string() == "0110"
    assert (a & b).to_string() == "1000"


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        BitVec(3) ^ BitVec(4)


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        BitVec.from01([0, 2])


def test_index_errors():
    v = BitVec(4)
    with pytest.raises(IndexError):
        v.get(4)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=200))
def test_roundtrip_property(bits):
    v = BitVec.from01(bits)
    assert v.n == len(bits)
    assert list(v.to01()) == bits
    assert v.popcount() == sum(bits)


# -- BitMatrix -------------------------------------------------------------


def _rows(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return [BitVec.from01(rng.integers(0, 2, size=n)) for _ in range(count)]


def test_bit_matrix_layout_is_the_model_file_word_order():
    rows = _rows(130, 4)
    m = BitMatrix.from_rows(rows)
    assert m.words.shape == (4, 3) and m.words.dtype == np.dtype("<u8")
    for i, r in enumerate(rows):
        assert m.words[i].tobytes() == r.value.to_bytes(8 * n_words(130), "little")


def test_bit_matrix_indexing_keeps_the_row_api():
    rows = _rows(70, 6)
    m = BitMatrix.from_rows(rows)
    assert len(m) == 6
    assert m[2] == rows[2] and m[-1] == rows[-1]
    assert list(m) == rows
    part = m[1:5:2]
    assert isinstance(part, BitMatrix) and part.n == 70
    assert list(part) == rows[1:5:2]


def test_bit_matrix_empty_rows():
    assert len(BitMatrix.from_rows([])) == 0
    m = BitMatrix.from_rows([], 70)
    assert m.words.shape == (0, 2) and m.to01().shape == (0, 70)


def test_bit_matrix_rejects_bad_shapes_and_pad_bits():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([BitVec(3), BitVec(4)])
    with pytest.raises(ValueError):
        BitMatrix(np.zeros((2, 1), dtype=np.uint64), 65)
    with pytest.raises(ValueError):
        BitMatrix(np.array([[1 << 5]], dtype=np.uint64), 5)


def test_a_row_slice_shares_its_parents_words():
    m = BitMatrix.from01(np.random.default_rng(0).integers(0, 2, size=(9, 70)))
    part = m[2:7]
    assert part.n == 70 and len(part) == 5
    assert np.shares_memory(part.words, m.words)
    assert list(part) == list(m)[2:7]
    assert len(m[5:5]) == 0 and list(m[::3]) == list(m)[::3]
    # the constructor still scans the pad bits of words from elsewhere
    bad = m.words[2:7].copy()
    bad[1, -1] |= np.uint64(1 << 63)
    with pytest.raises(ValueError, match="pad bits"):
        BitMatrix(bad, 70)


@given(st.integers(0, 200), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_bit_matrix_from01_matches_rows(n, count, seed):
    rows = _rows(n, count, seed)
    a01 = np.array([r.to01() for r in rows], dtype=np.uint8).reshape(count, n)
    m = BitMatrix.from01(a01)
    assert np.array_equal(m.words, BitMatrix.from_rows(rows, n).words)
    assert np.array_equal(m.to01(), a01)
    assert list(m) == rows


def test_a_bit_matrix_and_its_row_slices_refuse_rebinding():
    m = BitMatrix.from01(np.eye(3, dtype=np.uint8))
    for part in (m, m[1:]):
        for name in ("words", "n"):
            with pytest.raises(AttributeError, match="cannot be rebound"):
                setattr(part, name, getattr(part, name))
    assert m[1:].n == 3 and np.array_equal(m[1:].to01(), np.eye(3)[1:])
