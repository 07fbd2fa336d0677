import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga.bits import BitMatrix, BitVec
from scmfpga.mechanism import signals_pm1

from oracles import rows


def test_from01_pm1_consistency():
    v = BitVec.from01([1, 0, 1, 1])
    assert v.n == 4 and v.bits.dtype == np.uint8 and v.bits.tolist() == [1, 0, 1, 1]
    assert not v.bits.flags.writeable
    assert np.array_equal(signals_pm1(BitMatrix.from01(v.bits[None])), [[1, -1, 1, 1]])
    assert np.array_equal(signals_pm1(BitMatrix.from01([[1, 0, 1, 1]])), [[1, -1, 1, 1]])


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        BitVec.from01([0, 2])


def test_index_errors():
    # an int would pick a 1-D row of words, which no BitMatrix may hold
    m = BitMatrix.from01(np.eye(3, dtype=np.uint8))
    for key in (0, -1, np.int64(1), (0, 1), [0, 1]):
        with pytest.raises(TypeError, match="row slices"):
            m[key]
    with pytest.raises(TypeError):
        list(m)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=200))
def test_roundtrip_property(bits):
    # the benchmark's synthetic weights: BitVec.from01, packed by BitMatrix.from01
    v = BitVec.from01(bits)
    assert v.n == len(bits) and v.bits.tolist() == bits
    assert BitMatrix.from01(v.bits[None]).to01()[0].tolist() == bits


# -- BitMatrix -------------------------------------------------------------


def _rows(n, count, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(count, n), dtype=np.uint8)


def test_bit_matrix_layout_is_the_model_file_word_order():
    a01 = _rows(130, 4)
    m = BitMatrix.from01(a01)
    assert m.words.shape == (4, 3) and m.words.dtype == np.dtype("<u8")
    assert rows(m) == [int("".join(map(str, r[::-1])), 2) for r in a01]
    assert np.array_equal(BitMatrix.from01(np.array([BitVec.from01(r).bits for r in a01])).words,
                          m.words)


def test_bit_matrix_indexing_keeps_the_row_api():
    a01 = _rows(70, 6)
    m = BitMatrix.from01(a01)
    assert len(m) == 6
    assert np.array_equal(m[2:3].to01(), a01[2:3]) and np.array_equal(m[-1:].to01(), a01[-1:])
    part = m[1:5:2]
    assert isinstance(part, BitMatrix) and part.n == 70
    assert np.array_equal(part.to01(), a01[1:5:2])


def test_bit_matrix_empty_rows():
    m = BitMatrix.from01(np.zeros((0, 70), dtype=np.uint8))
    assert m.words.shape == (0, 2) and m.to01().shape == (0, 70)


def test_bit_matrix_rejects_bad_shapes_and_pad_bits():
    with pytest.raises(ValueError, match="from01 expects a 1-D row of bits"):
        BitVec.from01(np.ones((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"from01 expects an \(N, n\) array"):
        BitMatrix.from01(np.ones(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        BitMatrix(np.zeros((2, 1), dtype=np.uint64), 65)
    with pytest.raises(ValueError):
        BitMatrix(np.array([[1 << 5]], dtype=np.uint64), 5)


def test_a_row_slice_shares_its_parents_words():
    m = BitMatrix.from01(np.random.default_rng(0).integers(0, 2, size=(9, 70)))
    part = m[2:7]
    assert part.n == 70 and len(part) == 5
    assert np.shares_memory(part.words, m.words)
    assert rows(part) == rows(m)[2:7]
    assert len(m[5:5]) == 0 and rows(m[::3]) == rows(m)[::3]
    # the constructor still scans the pad bits of words from elsewhere
    bad = m.words[2:7].copy()
    bad[1, -1] |= np.uint64(1 << 63)
    with pytest.raises(ValueError, match="pad bits"):
        BitMatrix(bad, 70)


@given(st.integers(0, 200), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_bit_matrix_from01_matches_rows(n, count, seed):
    a01 = _rows(n, count, seed)
    vecs = [BitVec.from01(r) for r in a01]
    m = BitMatrix.from01(a01)
    assert np.array_equal(m.to01(), a01)
    assert rows(m) == [sum(int(b) << j for j, b in enumerate(v.bits)) for v in vecs]


def test_a_bit_matrix_and_its_row_slices_refuse_rebinding():
    m = BitMatrix.from01(np.eye(3, dtype=np.uint8))
    for part in (m, m[1:]):
        for name in ("words", "n"):
            with pytest.raises(AttributeError, match="cannot be rebound"):
                setattr(part, name, getattr(part, name))
    assert m[1:].n == 3 and np.array_equal(m[1:].to01(), np.eye(3)[1:])
