import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga import encoding
from scmfpga.encoding import (
    EncodingKind,
    EncodingSpec,
    decimal_digit,
    encode_density,
    encode_matrix,
    encode_scheme1,
    encode_scheme2,
    parse_encoding,
    _digit_table,
    _digits,
)
from scmfpga.bits import BitVec
from scmfpga.errors import DataError

UNARY_FIELD = re.compile(r"^0*1*$")


# -- density -----------------------------------------------------------


def test_density_buckets_n3():
    assert encode_density(0.3, 3).to_string() == "100"
    assert encode_density(0.0, 3).to_string() == "000"
    assert encode_density(0.2499, 3).to_string() == "000"
    assert encode_density(0.25, 3).to_string() == "100"
    assert encode_density(0.5, 3).to_string() == "110"
    assert encode_density(0.75, 3).to_string() == "111"
    assert encode_density(1.0, 3).to_string() == "111"


def test_density_top_clamps():
    assert encode_density(1.0, 10).to_string() == "1111111111"


def test_density_matches_bucket_enumeration():
    # oracle: explicit bucket boundaries k/(N+1)
    n = 7
    edges = [k / (n + 1) for k in range(1, n + 1)]
    for x in np.linspace(0, 1, 1001):
        level = sum(x >= e for e in edges)
        expected = "1" * level + "0" * (n - level)
        assert encode_density(float(x), n).to_string() == expected


def test_density_errors():
    with pytest.raises(ValueError):
        encode_density(-0.01, 3)
    with pytest.raises(ValueError):
        encode_density(1.01, 3)
    with pytest.raises(ValueError):
        encode_density(0.5, 0)


# -- digit extraction ----------------------------------------------------


def test_digits_of_0867():
    assert decimal_digit(0.867, 1) == 8
    assert decimal_digit(0.867, 2) == 6
    assert decimal_digit(0.867, 3) == 7


def test_digit_zero_and_one():
    for k in (1, 2, 5):
        assert decimal_digit(0.0, k) == 0
        assert decimal_digit(1.0, k) == 0


def test_digit_truncates_not_rounds():
    assert decimal_digit(0.9999999, 3) == 9
    assert decimal_digit(0.129, 2) == 2
    assert decimal_digit(0.1999, 1) == 1


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(1, 6))
def test_digit_matches_string_format_oracle(x, k):
    # oracle: print the shortest repr and read the k-th character after the dot
    s = repr(float(x))
    if "e" in s or "E" in s:  # tiny magnitudes format exponentially; digits are 0
        expected = 0
        if abs(x) >= 1e-7:
            return
    elif s.startswith("1"):
        expected = 0
    else:
        frac = s.split(".", 1)[1] if "." in s else ""
        expected = int(frac[k - 1]) if k <= len(frac) else 0
    assert decimal_digit(x, k) == expected


# -- scheme 1 ------------------------------------------------------------


def test_scheme1_golden_0867():
    v = encode_scheme1(0.867, 3)
    assert v.n == 28
    assert v.to_string() == "0" + "011111111" + "000111111" + "001111111"


def test_scheme1_zero_and_one():
    assert encode_scheme1(0.0, 3).to_string() == "0" * 28
    v = encode_scheme1(1.0, 3)
    assert v.to_string() == "1" + "0" * 27
    # cross-check: after the ones bit every digit is zero
    assert all(decimal_digit(1.0, k) == 0 for k in (1, 2, 3))


def test_scheme1_widths():
    for u in (1, 2, 3, 4, 7):
        assert encode_scheme1(0.5, u).n == 1 + 9 * u


# -- scheme 2 ------------------------------------------------------------


def test_scheme2_v2_golden_08674():
    v = encode_scheme2(0.8674, "V2")
    assert v.n == 25
    assert v.to_string() == "0" + "011111111" + "000111111" + "0111" + "01"


def test_scheme2_v1_golden_025():
    v = encode_scheme2(0.25, "V1")
    assert v.n == 16
    assert v.to_string() == "0" + "000000011" + "0011" + "00"


def test_scheme2_v1_zero():
    assert encode_scheme2(0.0, "V1").to_string() == "0" * 16


def test_scheme2_quant_tables():
    # 4-bit field over the hundredths digit (V1 bits 10..13)
    four_bit = {0: "0000", 1: "0000", 2: "0001", 3: "0001", 4: "0011", 5: "0011",
                6: "0111", 7: "0111", 8: "1111", 9: "1111"}
    two_bit = {0: "00", 1: "00", 2: "00", 3: "00", 4: "01", 5: "01", 6: "01",
               7: "11", 8: "11", 9: "11"}
    for d, code in four_bit.items():
        s = encode_scheme2(d / 100, "V1").to_string()
        assert s[10:14] == code, f"digit {d}"
    for d, code in two_bit.items():
        s = encode_scheme2(d / 1000, "V1").to_string()
        assert s[14:16] == code, f"digit {d}"


def test_scheme2_bad_variant():
    with pytest.raises(ValueError):
        encode_scheme2(0.5, "V3")


@pytest.mark.parametrize("encode,width", [(encode_density, 255), (encode_scheme1, 1 + 9 * 255)])
def test_one_value_encoders_refuse_a_parameter_no_spec_takes(encode, width):
    # EncodingSpec, and so a model file's one parameter byte, takes 1..255
    assert encode(0.5, 255).n == width
    for bad in (0, 256, 300):
        with pytest.raises(ValueError, match="parameter in 1..255"):
            encode(0.5, bad)


# -- spec + matrix -------------------------------------------------------


def test_spec_bits_per_input_table():
    assert EncodingSpec(EncodingKind.DENSITY, 10).bits_per_input == 10
    assert EncodingSpec(EncodingKind.SCHEME1, 3).bits_per_input == 28
    assert EncodingSpec(EncodingKind.SCHEME1, 4).bits_per_input == 37
    assert EncodingSpec(EncodingKind.SCHEME2_V1).bits_per_input == 16
    assert EncodingSpec(EncodingKind.SCHEME2_V2).bits_per_input == 25


def test_parse_roundtrip():
    for text in ("density:10", "s1:3", "s2v1", "s2v2"):
        spec = parse_encoding(text)
        assert str(spec) == text
        assert EncodingSpec.from_bytes(spec.to_bytes()) == spec
    with pytest.raises(ValueError):
        parse_encoding("thermometer")


def test_encoded_input_counts_match_dataset_shapes():
    cases = [
        (1, parse_encoding("s2v2"), 25),  # db1
        (2, parse_encoding("s1:3"), 56),  # db2
        (36, parse_encoding("s2v1"), 576),  # db3-shaped
        (14, parse_encoding("s2v1"), 224),  # db4-shaped
        (1, parse_encoding("density:10"), 10),
    ]
    rng = np.random.default_rng(0)
    for d, spec, expected in cases:
        bits, d_enc = encode_matrix(rng.uniform(size=(3, d)), spec)
        assert d_enc == expected
        assert all(b.n == expected for b in bits)


def test_encode_matrix_feature_order():
    spec = parse_encoding("density:3")
    bits, d_enc = encode_matrix(np.array([[0.3, 0.8]]), spec)
    assert d_enc == 6
    assert bits[0].to_string() == "100" + "111"


def test_encode_matrix_clamps_with_warning():
    spec = parse_encoding("s2v1")
    with pytest.warns(UserWarning, match="clamped 2"):
        bits, _ = encode_matrix(np.array([[-0.01], [1.2], [0.5]]), spec)
    assert bits[0] == spec.encode_value(0.0)
    assert bits[1] == spec.encode_value(1.0)


def test_encode_matrix_nonfinite_reports_position():
    spec = parse_encoding("s2v1")
    with pytest.raises(DataError, match="row 1, column 0"):
        encode_matrix(np.array([[0.1], [np.nan]]), spec)


# -- properties ----------------------------------------------------------

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit_floats)
def test_width_always_matches_spec(x):
    for spec in (
        EncodingSpec(EncodingKind.DENSITY, 10),
        EncodingSpec(EncodingKind.SCHEME1, 3),
        EncodingSpec(EncodingKind.SCHEME2_V1),
        EncodingSpec(EncodingKind.SCHEME2_V2),
    ):
        assert spec.encode_value(x).n == spec.bits_per_input


@given(unit_floats)
def test_unary_fields_are_right_aligned(x):
    s = encode_scheme1(x, 3).to_string()
    for k in range(3):
        field = s[1 + 9 * k : 10 + 9 * k]
        assert UNARY_FIELD.match(field)
    s2 = encode_scheme2(x, "V2").to_string()
    for field in (s2[1:10], s2[10:19], s2[19:23], s2[23:25]):
        assert UNARY_FIELD.match(field)


@given(unit_floats, unit_floats)
def test_same_digits_same_encoding(a, b):
    da = [int(a), *(decimal_digit(a, k) for k in (1, 2, 3))]
    db = [int(b), *(decimal_digit(b, k) for k in (1, 2, 3))]
    if da == db:
        assert encode_scheme1(a, 3) == encode_scheme1(b, 3)
        assert encode_scheme2(a, "V1") == encode_scheme2(b, "V1")


def test_monotone_ones_within_place():
    # larger digit in one place never yields fewer ones in that field
    for k in range(10):
        for j in range(k, 10):
            lo = encode_scheme1(k / 10, 1)
            hi = encode_scheme1(j / 10, 1)
            assert hi.popcount() >= lo.popcount()
            lo4 = encode_scheme2(k / 100, "V1")
            hi4 = encode_scheme2(j / 100, "V1")
            assert hi4.popcount() >= lo4.popcount()


specs = st.one_of(
    st.integers(1, 255).map(lambda n: EncodingSpec(EncodingKind.DENSITY, n)),
    st.integers(1, 40).map(lambda u: EncodingSpec(EncodingKind.SCHEME1, u)),
    st.sampled_from([EncodingSpec(EncodingKind.SCHEME2_V1), EncodingSpec(EncodingKind.SCHEME2_V2)]),
)

# 0, 1, the smallest double, the largest below 1, and values whose repr is in
# exponent form
EDGE_VALUES = [0.0, 1.0, 5e-324, 1 - 2**-53, 1e-4, 9.99e-5, 3.25e-5, 1e-7, 0.867, 0.1999]
pool_values = st.one_of(unit_floats, st.sampled_from(EDGE_VALUES))
# ones per digit of each digit-field width, as the README tables state them
README_ONES = {
    9: list(range(10)),
    4: [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
    2: [0, 0, 0, 0, 1, 1, 1, 2, 2, 2],
}


def _oracle_code(v: float, spec: EncodingSpec) -> str:
    """One value's code as a '0'/'1' string, built from the README tables."""
    if spec.kind == EncodingKind.DENSITY:
        level = min(int(v * (spec.param + 1)), spec.param)
        return "1" * level + "0" * (spec.param - level)
    widths = {
        EncodingKind.SCHEME1: [9] * spec.param,
        EncodingKind.SCHEME2_V1: [9, 4, 2],
        EncodingKind.SCHEME2_V2: [9, 9, 4, 2],
    }[spec.kind]
    whole, _, frac = format(Decimal(repr(v)), "f").partition(".")
    code = str(int(whole))
    for w, ch in zip(widths, frac.ljust(len(widths), "0")):
        ones = README_ONES[w][int(ch)]
        code += "0" * (w - ones) + "1" * ones
    return code


def _check_rows_against_oracles(x, spec):
    bits, d_enc = encode_matrix(x, spec)
    n_rows, d = x.shape
    w = spec.bits_per_input
    assert d_enc == d * w and len(bits) == n_rows
    for i in range(n_rows):
        assert bits[i] == BitVec.join([spec.encode_value(v) for v in x[i]])
        row = bits[i].to_string()
        for j, v in enumerate(x[i]):
            assert row[j * w : (j + 1) * w] == _oracle_code(float(v), spec), (v, str(spec))


@given(specs, st.lists(pool_values, min_size=1, max_size=6), st.data())
def test_encode_matrix_rows_match_encode_value(spec, pool, data):
    # values drawn from a small pool repeat, as rounded real data does
    n_rows = data.draw(st.integers(0, 5))
    d = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=n_rows * d, max_size=n_rows * d))
    _check_rows_against_oracles(np.array(cells, dtype=np.float64).reshape(n_rows, d), spec)


@pytest.mark.parametrize(
    "text", ["density:1", "density:255", "s1:1", "s1:3", "s1:20", "s2v1", "s2v2"]
)
def test_encode_matrix_edge_values_match_oracle(text):
    x = np.array(EDGE_VALUES).reshape(-1, 1)
    _check_rows_against_oracles(np.hstack([x, x[::-1]]), parse_encoding(text))


# -- the array digit rule ----------------------------------------------


def _ulps(x: float, n: int) -> float:
    """x moved n doubles up (n > 0) or down (n < 0), kept in [0, 1]."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, 2.0 if n > 0 else -1.0))
    return min(max(x, 0.0), 1.0)


def _decimal_neighbours(max_p: int = 15):
    """k/10^P for P <= max_p, moved 0-3 ulps: where truncation and rounding part ways."""
    return st.integers(1, max_p).flatmap(
        lambda p: st.builds(
            lambda k, n: _ulps(k / 10**p, n), st.integers(0, 10**p), st.integers(-3, 3)
        )
    )


def _digit_pool(max_p: int = 15):
    # subnormals and values below 1e-4 have exponent-form reprs
    return st.one_of(
        _decimal_neighbours(max_p),
        unit_floats,
        st.floats(0.0, 1e-4, exclude_max=True),
        st.floats(0.0, 2.2250738585072014e-308, exclude_max=True),
        st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53]),
    )


@given(st.integers(1, 15), st.data())
def test_digit_table_matches_scalar_digits(places, data):
    # decimals with at most `places` places can reach every branch of the
    # rule; the grid test below reaches the f - 1 branch on every run
    values = data.draw(st.lists(_digit_pool(places), min_size=1, max_size=40))
    expected = [_digits(x, places) for x in values]
    assert _digit_table(np.array(values), places).tolist() == expected


def test_digit_table_on_every_short_decimal_and_its_neighbours():
    base = np.concatenate([np.arange(10**p + 1) / 10**p for p in (1, 2, 3)])
    v = [base]
    up = down = base
    for _ in range(3):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
        v += [up, down]
    v = np.unique(np.clip(np.concatenate(v), 0.0, 1.0))
    for places in range(1, 16):
        expected = [_digits(x, places) for x in v.tolist()]
        assert _digit_table(v, places).tolist() == expected, places


@given(st.lists(_digit_pool(), min_size=1, max_size=20), st.sampled_from([16, 20, 255]))
def test_digit_table_beyond_15_places_matches_scalar_digits(values, places):
    expected = [_digits(x, places) for x in values]
    assert _digit_table(np.array(values), places).tolist() == expected


all_kinds = st.sampled_from(
    ["density:1", "density:7", "density:255", "s1:1", "s1:3", "s1:4", "s1:15",
     "s1:16", "s1:20", "s1:255", "s2v1", "s2v2"]
).map(parse_encoding)


@given(all_kinds, st.lists(_digit_pool(), min_size=1, max_size=12))
def test_encode_matrix_on_the_digit_pool_matches_encode_value(spec, values):
    x = np.array(values).reshape(-1, 1)
    _check_rows_against_oracles(np.hstack([x, x[::-1]]), spec)


@pytest.mark.parametrize("text", ["density:7", "s1:3", "s1:4", "s1:15", "s2v1", "s2v2"])
def test_encode_matrix_has_no_per_value_digit_loop(monkeypatch, text):
    # up to 15 places the digits come from the array rule alone; the scalar
    # _digits is the oracle and must not creep back into the batch path
    def scalar_digits(x, places):
        raise AssertionError("encode_matrix read digits one value at a time")

    monkeypatch.setattr(encoding, "_digits", scalar_digits)
    x = np.random.default_rng(0).random((50, 3))
    x[0] = [0.0, 1.0, 5e-324]
    bits, d_enc = encode_matrix(x, parse_encoding(text))
    assert len(bits) == 50 and d_enc == 3 * parse_encoding(text).bits_per_input
