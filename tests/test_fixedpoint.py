import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scmfpga import fixedpoint as fx

from oracles import fx_from_real, fx_neg, saturate_to_fx


def rounded(x: float) -> int:
    """The oracle's raw value of x, which quantize_array must give too."""
    raw = fx_from_real(x)
    assert fx.quantize_array(np.array([x]))[0].tolist() == [raw]
    return raw


def test_zero_and_one():
    assert rounded(0.0) == 0
    assert rounded(1.0) == 2**25 == 33554432


def test_resolution():
    assert fx.RESOLUTION == 2.0**-25
    # half a step is about 1.49e-8
    assert abs(fx.RESOLUTION / 2 - 1.49e-8) < 0.01e-8
    assert rounded(fx.RESOLUTION) == 1


def test_range_endpoints():
    assert rounded(-64.0) == fx.RAW_MIN
    assert rounded(64.0 - 2.0**-25) == fx.RAW_MAX


@pytest.mark.parametrize(
    "x,saturated",
    [(100.0, True), (-100.0, True), (64.0, True), (0.5, False), (-64.0, False),
     (1e308, True), (-1e308, True)],  # x * 2**25 is inf
)
def test_saturation_flag(x, saturated):
    clamped = fx.RAW_MAX if x > 0 else fx.RAW_MIN
    assert rounded(x) == (clamped if saturated else x * fx.SCALE)


def test_nonfinite_rejected():
    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fx_from_real(x)
        with pytest.raises(ValueError):
            fx.quantize_array(np.array([x]))


def test_round_half_even():
    # halfway between raw 0 and raw 1 rounds to the even raw 0
    assert rounded(0.5 * fx.RESOLUTION) == 0
    # halfway between raw 1 and raw 2 rounds to raw 2
    assert rounded(1.5 * fx.RESOLUTION) == 2


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


def exact_quantized(x: float) -> tuple[int, bool]:
    """Python's round (half to even) of the exact value x * 2**25, clamped to
    the 32-bit range, and whether it was clamped: every |x| >= 128 is."""
    raw = round(Fraction(x) * fx.SCALE)
    clamped = min(max(raw, fx.RAW_MIN), fx.RAW_MAX)
    return clamped, clamped != raw


QUANTIZE_EDGES = [
    64.0, -64.0, 64.0 - 2.0**-26, -(64.0 - 2.0**-26), 64.0 - 2.0**-25, -64.0 - 2.0**-26,
    -64.0 - 2.0**-25, 128.0, -128.0,
    0.5 * fx.RESOLUTION, -0.5 * fx.RESOLUTION, 1.5 * fx.RESOLUTION, -2.5 * fx.RESOLUTION,
    5e-324, -5e-324, 1e-310, 0.0, -0.0, 2.0**1000, -(2.0**1000),
    sys.float_info.max, -sys.float_info.max,
]
quantize_inputs = st.one_of(
    st.sampled_from(QUANTIZE_EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-130.0, 130.0),
    # ties: half an LSB above a raw value, exact in a double
    st.integers(-(2**32), 2**32).map(lambda k: (k + 0.5) / fx.SCALE),
)


@given(st.lists(quantize_inputs, max_size=20))
@example(QUANTIZE_EDGES)
def test_quantize_array_equals_the_exact_oracle_in_raws_and_saturations(xs):
    raw, n_sat = fx.quantize_array(np.array(xs, dtype=np.float64))
    expected = [exact_quantized(x) for x in xs]
    assert raw.dtype == np.int32 and raw.shape == (len(xs),)
    assert raw.tolist() == [r for r, _ in expected]
    assert type(n_sat) is int and n_sat == sum(sat for _, sat in expected)


@given(quantize_inputs)
def test_quantize_array_of_a_scalar_gives_a_numpy_int32_and_an_int(x):
    for value in (x, np.float64(x), np.array(x)):
        raw, n_sat = fx.quantize_array(value)
        assert type(raw) is np.int32 and type(n_sat) is int
        assert (int(raw), n_sat == 1) == exact_quantized(x)


@given(st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX))
def test_roundtrip_property(raw):
    assert rounded(raw / 2**25) == raw


def test_neg_basics():
    assert fx_neg(33554432) == -33554432
    assert fx_neg(0) == 0
    assert fx_neg(1) == -1
    assert fx_neg(fx.RAW_MIN) == fx.RAW_MAX


@given(st.integers(min_value=fx.RAW_MIN + 1, max_value=fx.RAW_MAX))
def test_neg_involution(raw):
    assert fx_neg(fx_neg(raw)) == raw


def test_saturate_to_fx():
    assert saturate_to_fx(fx.RAW_MAX + 123) == fx.RAW_MAX
    assert saturate_to_fx(fx.RAW_MIN - 123) == fx.RAW_MIN
    assert saturate_to_fx(42) == 42


raw_values = st.one_of(
    st.sampled_from([fx.RAW_MIN, fx.RAW_MIN + 1, -1, 0, 1, fx.RAW_MAX]),
    st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX),
)


@given(st.lists(raw_values, max_size=20))
def test_neg_array_matches_scalar(raws):
    out = fx.fx_neg_array(np.array(raws, dtype=np.int32))
    assert out.dtype == np.int32
    assert out.tolist() == [fx_neg(r) for r in raws]


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=20))
def test_saturate_array_matches_scalar(accs):
    out = fx.saturate_array(np.array(accs, dtype=np.int64))
    assert out.dtype == np.int32
    assert out.tolist() == [saturate_to_fx(a) for a in accs]


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
    out = fx.conditional_sum(on, off)(select.T)  # prepared once, applied node-major
    assert out.shape == (n_rows, m)
    assert out.tolist() == expected


@pytest.mark.parametrize("k", [0, 1, 3, 4, 7])
def test_conditional_sum_adds_its_chunks_exactly(monkeypatch, k):
    # three columns per product, so the chunk loop runs; on and off at the
    # raw extremes
    monkeypatch.setattr(fx, "EXACT_TERMS", 3)
    rng = np.random.default_rng(k)
    on = rng.choice([fx.RAW_MIN, fx.RAW_MAX], size=(k, 2)).astype(np.int32)
    off = rng.choice([fx.RAW_MIN, fx.RAW_MAX, 0], size=(k, 2)).astype(np.int32)
    select = rng.integers(0, 2, size=(6, k)).astype(bool)
    select[0], select[1] = True, False
    expected = [[sum(int(on[j, q] if row[j] else off[j, q]) for j in range(k)) for q in range(2)]
                for row in select]
    out = fx.conditional_sum(on, off)(select.T)
    assert out.dtype == np.int64 and out.shape == (6, 2)
    assert out.tolist() == expected


def test_decimal_string_exact():
    assert fx.fx_to_decimal_string(0) == "0"
    assert fx.fx_to_decimal_string(2**25) == "1"
    assert fx.fx_to_decimal_string(1) == "0." + f"{5**25:025d}".rstrip("0")
    assert fx.fx_to_decimal_string(-(2**24)) == "-0.5"
    assert float(fx.fx_to_decimal_string(12345678)) == 12345678 / 2**25


@given(st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX))
@example(fx.RAW_MIN)
@example(fx.RAW_MAX)
@example(-1)
def test_decimal_string_equals_the_decimal_module_string(raw):
    # raw / 2**25 is an exact double and Decimal converts a float exactly
    assert fx.fx_to_decimal_string(raw) == format(Decimal(raw / 2**25), "f")


@given(st.integers(min_value=fx.RAW_MIN, max_value=fx.RAW_MAX))
def test_decimal_string_is_raw_over_2_25_without_exponent_or_trailing_zero(raw):
    out = fx.fx_to_decimal_string(raw)
    assert Fraction(Decimal(out)) == Fraction(raw, 2**25)
    assert "e" not in out.lower()
    assert "." not in out or not out.endswith(("0", "."))
