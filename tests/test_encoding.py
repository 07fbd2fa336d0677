import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga import encoding
from scmfpga.bits import BitMatrix
from scmfpga.encoding import (
    EncodingKind,
    EncodingSpec,
    encode_matrix,
    parse_encoding,
    _digit_table,
    _digits,
    _word_tables,
)
from scmfpga.errors import DataError

UNARY_FIELD = re.compile(r"^0*1*$")


def code(text, x):
    """The code of one value x under the encoding text names, as a '0'/'1' string."""
    return encode_matrix(np.array([[x]]), parse_encoding(text))[0][0].to_string()


# -- density -----------------------------------------------------------


def test_density_buckets_n3():
    assert code("density:3", 0.3) == "100"
    assert code("density:3", 0.0) == "000"
    assert code("density:3", 0.2499) == "000"
    assert code("density:3", 0.25) == "100"
    assert code("density:3", 0.5) == "110"
    assert code("density:3", 0.75) == "111"
    assert code("density:3", 1.0) == "111"


def test_density_top_clamps():
    assert code("density:10", 1.0) == "1111111111"


def test_density_matches_bucket_enumeration():
    # oracle: explicit bucket boundaries k/(N+1)
    n = 7
    edges = [k / (n + 1) for k in range(1, n + 1)]
    for x in np.linspace(0, 1, 1001):
        level = sum(x >= e for e in edges)
        expected = "1" * level + "0" * (n - level)
        assert code(f"density:{n}", float(x)) == expected


def test_density_errors():
    # a value outside [0, 1] is clamped with a warning, not refused
    with pytest.warns(UserWarning, match="clamped 1"):
        assert code("density:3", -0.01) == "000"
    with pytest.warns(UserWarning, match="clamped 1"):
        assert code("density:3", 1.01) == "111"
    with pytest.raises(ValueError):
        parse_encoding("density:0")


# -- digit extraction ----------------------------------------------------


def test_digits_of_0867():
    assert _digits(0.867, 3) == [0, 8, 6, 7]


def test_digit_zero_and_one():
    assert _digits(0.0, 5) == [0, 0, 0, 0, 0, 0]
    assert _digits(1.0, 5) == [1, 0, 0, 0, 0, 0]


def test_digit_truncates_not_rounds():
    assert _digits(0.9999999, 3)[3] == 9
    assert _digits(0.129, 2)[2] == 2
    assert _digits(0.1999, 1)[1] == 1


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
    assert _digits(x, k)[k] == expected


# -- scheme 1 ------------------------------------------------------------


def test_scheme1_golden_0867():
    assert code("s1:3", 0.867) == "0" + "011111111" + "000111111" + "001111111"


def test_scheme1_zero_and_one():
    assert code("s1:3", 0.0) == "0" * 28
    assert code("s1:3", 1.0) == "1" + "0" * 27
    # cross-check: after the ones bit every digit is zero
    assert _digits(1.0, 3) == [1, 0, 0, 0]


def test_scheme1_widths():
    for u in (1, 2, 3, 4, 7):
        assert len(code(f"s1:{u}", 0.5)) == 1 + 9 * u


# -- scheme 2 ------------------------------------------------------------


def test_scheme2_v2_golden_08674():
    assert code("s2v2", 0.8674) == "0" + "011111111" + "000111111" + "0111" + "01"


def test_scheme2_v1_golden_025():
    assert code("s2v1", 0.25) == "0" + "000000011" + "0011" + "00"


def test_scheme2_v1_zero():
    assert code("s2v1", 0.0) == "0" * 16


def test_scheme2_quant_tables():
    # 4-bit field over the hundredths digit (V1 bits 10..13)
    four_bit = {0: "0000", 1: "0000", 2: "0001", 3: "0001", 4: "0011", 5: "0011",
                6: "0111", 7: "0111", 8: "1111", 9: "1111"}
    two_bit = {0: "00", 1: "00", 2: "00", 3: "00", 4: "01", 5: "01", 6: "01",
               7: "11", 8: "11", 9: "11"}
    for d, want in four_bit.items():
        assert code("s2v1", d / 100)[10:14] == want, f"digit {d}"
    for d, want in two_bit.items():
        assert code("s2v1", d / 1000)[14:16] == want, f"digit {d}"


def test_scheme2_bad_variant():
    with pytest.raises(ValueError):
        parse_encoding("s2v3")


@pytest.mark.parametrize("name,width", [("density", 255), ("s1", 1 + 9 * 255)])
def test_a_spec_takes_a_parameter_in_1_to_255(name, width):
    # a model file holds the parameter in one byte
    assert len(code(f"{name}:255", 0.5)) == width
    for bad in (0, 256, 300):
        with pytest.raises(ValueError, match="parameter in 1..255"):
            parse_encoding(f"{name}:{bad}")


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
    assert bits[0].to_string() == code("s2v1", 0.0)
    assert bits[1].to_string() == code("s2v1", 1.0)


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
        assert encode_matrix(np.array([[x]]), spec)[0].n == spec.bits_per_input


@given(unit_floats)
def test_unary_fields_are_right_aligned(x):
    s = code("s1:3", x)
    for k in range(3):
        field = s[1 + 9 * k : 10 + 9 * k]
        assert UNARY_FIELD.match(field)
    s2 = code("s2v2", x)
    for field in (s2[1:10], s2[10:19], s2[19:23], s2[23:25]):
        assert UNARY_FIELD.match(field)


@given(unit_floats, unit_floats)
def test_same_digits_same_encoding(a, b):
    if _digits(a, 3) == _digits(b, 3):
        assert code("s1:3", a) == code("s1:3", b)
        assert code("s2v1", a) == code("s2v1", b)


def test_monotone_ones_within_place():
    # larger digit in one place never yields fewer ones in that field
    for k in range(10):
        for j in range(k, 10):
            assert code("s1:1", j / 10).count("1") >= code("s1:1", k / 10).count("1")
            assert code("s2v1", j / 100).count("1") >= code("s2v1", k / 100).count("1")


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


# every digit in every one of three places, 0, 1 and exponent-form reprs
EVERY_DIGIT = [0.0, 1.0, 0.012, 0.123, 0.234, 0.345, 0.456, 0.567, 0.678, 0.789,
               0.891, 0.901, 0.999, 5e-324, 1e-4]


@pytest.mark.parametrize(
    "text,d,feature,field,words",
    [
        # feature 2 starts at bit 56, so its first digit field covers bits 57-65
        ("s1:3", 3, 2, 1, {0, 1}),
        # feature 1 covers bits 70-139
        ("density:70", 2, 1, 0, {1, 2}),
    ],
)
def test_fields_straddling_a_word_boundary_match_the_oracle(text, d, feature, field, words):
    spec = parse_encoding(text)
    assert {w for j, k, w, _ in _word_tables(spec, d) if (j, k) == (feature, field)} == words
    values = EVERY_DIGIT + [(c + 0.5) / 71 for c in range(71)]  # every density level
    x = np.array([np.roll(values, 7 * j) for j in range(d)]).T
    _check_rows_against_oracles(x, spec)


@pytest.mark.parametrize("text", ["density:70", "s1:3", "s1:20", "s2v2"])
def test_a_matrix_of_no_rows_encodes_to_no_rows(text):
    spec = parse_encoding(text)
    bits, d_enc = encode_matrix(np.zeros((0, 3)), spec)
    assert d_enc == 3 * spec.bits_per_input
    assert len(bits) == 0 and bits.n == d_enc and bits.words.shape == (0, -(-d_enc // 64))


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


def test_encode_matrix_packs_words_without_a_bool_matrix(monkeypatch):
    # the words are ORed from per-field tables: nothing packs an (N, d_enc)
    # bool matrix, whether through BitMatrix.from01 or np.packbits
    n_rows = 300  # more rows than any field table (at most 256)
    pack = np.packbits

    def from01(bits01):
        raise AssertionError("encode_matrix packed a bool matrix through BitMatrix.from01")

    def small_packbits(a, *args, **kwargs):
        if np.ndim(a) == 2 and np.shape(a)[0] >= n_rows:
            raise AssertionError(f"encode_matrix packed a {np.shape(a)} bool matrix")
        return pack(a, *args, **kwargs)

    monkeypatch.setattr(BitMatrix, "from01", from01)
    monkeypatch.setattr(np, "packbits", small_packbits)
    x = np.random.default_rng(1).random((n_rows, 3))
    for text in ["density:7", "density:255", "s1:3", "s1:15", "s1:20", "s2v1", "s2v2"]:
        spec = parse_encoding(text)
        _word_tables.cache_clear()  # build the tables under the guard too
        bits, d_enc = encode_matrix(x, spec)
        assert len(bits) == n_rows and d_enc == 3 * spec.bits_per_input


def test_values_without_a_15_place_form_read_their_digits_once_each(monkeypatch):
    # the Decimal fallback past 15 places runs once per distinct value, not per cell
    values = [float(np.nextafter(k / 10, 1.0)) for k in range(1, 6)]  # 0.10000000000000002, ...
    assert all(len(repr(v).partition(".")[2]) > 15 for v in values)
    x = np.tile(values, (200, 1))
    spec = parse_encoding("s1:20")
    expected = "".join(_oracle_code(v, spec) for v in values)
    calls = []
    scalar_digits = encoding._digits

    def counted_digits(v, places):
        calls.append(v)
        return scalar_digits(v, places)

    monkeypatch.setattr(encoding, "_digits", counted_digits)
    bits, _ = encode_matrix(x, spec)
    assert x.size == 1000 and len(calls) <= 5
    assert bits[0].to_string() == bits[199].to_string() == expected
