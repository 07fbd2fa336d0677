import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga import fixedpoint as fx


def test_zero_and_one():
    assert fx.fx_from_real(0.0) == 0
    assert fx.fx_from_real(1.0) == 2**25 == 33554432


def test_resolution():
    assert fx.RESOLUTION == 2.0**-25
    # half a step is about 1.49e-8
    assert abs(fx.RESOLUTION / 2 - 1.49e-8) < 0.01e-8
    assert fx.fx_from_real(fx.RESOLUTION) == 1


def test_range_endpoints():
    assert fx.fx_from_real(-64.0) == fx.RAW_MIN
    assert fx.fx_from_real(64.0 - 2.0**-25) == fx.RAW_MAX


@pytest.mark.parametrize(
    "x,saturated",
    [(100.0, True), (-100.0, True), (64.0, True), (0.5, False), (-64.0, False)],
)
def test_saturation_flag(x, saturated):
    raw, flag = fx.fx_from_real_flagged(x)
    assert flag == saturated
    assert fx.RAW_MIN <= raw <= fx.RAW_MAX


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        fx.fx_from_real(float("nan"))
    with pytest.raises(ValueError):
        fx.fx_from_real(float("inf"))


def test_round_half_even():
    # halfway between raw 0 and raw 1 rounds to the even raw 0
    assert fx.fx_from_real(0.5 * fx.RESOLUTION) == 0
    # halfway between raw 1 and raw 2 rounds to raw 2
    assert fx.fx_from_real(1.5 * fx.RESOLUTION) == 2


def test_roundtrip_random_raws():
    rng = np.random.default_rng(0)
    raws = rng.integers(fx.RAW_MIN, fx.RAW_MAX + 1, size=100_000, dtype=np.int64)
    back, n_sat = fx.quantize_array(raws / fx.SCALE)
    assert n_sat == 0
    assert np.array_equal(back.astype(np.int64), raws)


def test_quantize_array_saturates_the_largest_finite_values():
    # their products with 2**25 overflow to inf, which saturates like 100.0
    back, n_sat = fx.quantize_array(np.array([1e308, -1e308, 100.0]))
    assert back.tolist() == [fx.RAW_MAX, fx.RAW_MIN, fx.RAW_MAX] and n_sat == 3


@given(st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX))
def test_roundtrip_property(raw):
    assert fx.fx_from_real(fx.fx_to_real(raw)) == raw


def test_neg_basics():
    assert fx.fx_neg(33554432) == -33554432
    assert fx.fx_neg(0) == 0
    assert fx.fx_neg(1) == -1
    assert fx.fx_neg(fx.RAW_MIN) == fx.RAW_MAX


@given(st.integers(min_value=fx.RAW_MIN + 1, max_value=fx.RAW_MAX))
def test_neg_involution(raw):
    assert fx.fx_neg(fx.fx_neg(raw)) == raw


def test_saturate_to_fx():
    assert fx.saturate_to_fx(fx.RAW_MAX + 123) == fx.RAW_MAX
    assert fx.saturate_to_fx(fx.RAW_MIN - 123) == fx.RAW_MIN
    assert fx.saturate_to_fx(42) == 42


raw_values = st.one_of(
    st.sampled_from([fx.RAW_MIN, fx.RAW_MIN + 1, -1, 0, 1, fx.RAW_MAX]),
    st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX),
)


@given(st.lists(raw_values, max_size=20))
def test_neg_array_matches_scalar(raws):
    out = fx.fx_neg_array(np.array(raws, dtype=np.int32))
    assert out.dtype == np.int32
    assert out.tolist() == [fx.fx_neg(r) for r in raws]


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=20))
def test_saturate_array_matches_scalar(accs):
    out = fx.saturate_array(np.array(accs, dtype=np.int64))
    assert out.dtype == np.int32
    assert out.tolist() == [fx.saturate_to_fx(a) for a in accs]


@given(st.integers(0, 5), st.integers(0, 70), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_conditional_sum_matches_loop(n_rows, k, m, seed):
    rng = np.random.default_rng(seed)
    on = rng.choice([fx.RAW_MIN, fx.RAW_MAX, 0, 12345], size=(k, m)).astype(np.int32)
    off = fx.fx_neg_array(on)
    select = rng.integers(0, 2, size=(n_rows, k))
    expected = [
        [sum(int(on[j, q]) if select[i, j] else int(off[j, q]) for j in range(k))
         for q in range(m)]
        for i in range(n_rows)
    ]
    out = fx.conditional_sum(select, on, off)
    assert out.shape == (n_rows, m)
    assert out.tolist() == expected


def test_decimal_string_exact():
    assert fx.fx_to_decimal_string(0) == "0"
    assert fx.fx_to_decimal_string(2**25) == "1"
    assert fx.fx_to_decimal_string(1) == "0." + f"{5**25:025d}".rstrip("0")
    assert fx.fx_to_decimal_string(-(2**24)) == "-0.5"
    assert float(fx.fx_to_decimal_string(12345678)) == 12345678 / 2**25
