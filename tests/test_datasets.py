import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scmfpga.datasets import (
    Dataset,
    db1_function,
    gen_db1,
    gen_db2,
    load_dataset,
    rastrigin,
    split,
    write_dataset,
)
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.errors import DataError


def test_db1_spot_value():
    # x = 0.4: first bump peaks, the others are negligible
    expected = 0.2 + 0.5 * np.exp(-16.0) + 0.3 * np.exp(-144.0)
    assert abs(db1_function(np.array([0.4]))[0] - expected) < 1e-15
    assert abs(expected - 0.20000006) < 5e-8


def test_db1_shape_and_split():
    ds = gen_db1(seed=3)
    assert ds.x.shape == (1300, 1)
    assert ds.train_idx.size == 1000
    assert ds.test_idx.size == 300
    assert np.all(ds.y > 0)
    assert ds.x.min() >= 0 and ds.x.max() <= 1


def test_db1_seed_determinism():
    a, b = gen_db1(seed=9), gen_db1(seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = gen_db1(seed=10)
    assert not np.array_equal(a.x, c.x)


def test_rastrigin_values():
    assert rastrigin(np.array([[0.0, 0.0]]))[0] == 0.0
    assert abs(rastrigin(np.array([[0.5, 0.0]]))[0] - 20.25) < 1e-12


def test_db2_shapes():
    ds = gen_db2(seed=0, scale=0.1)
    assert ds.train_idx.size == 4000
    assert ds.test_idx.size == 4489  # 67 x 67 grid
    assert ds.x.shape[1] == 2
    # grid corners exist in the test rows
    corners = ds.x[ds.test_idx]
    assert corners.min() == -5.12 and corners.max() == 5.12


def test_db2_target_scaling():
    ds = gen_db2(seed=0, scale=0.05)
    y_tr = ds.y[ds.train_idx]
    assert y_tr.min() == 0.0 and y_tr.max() == 1.0
    raw = gen_db2(seed=0, scale=0.05, normalize_targets=False)
    assert raw.y.max() > 10  # unscaled function values


def test_db2_random_test_flag():
    ds = gen_db2(seed=1, scale=0.05, grid_test=False)
    assert ds.test_idx.size == 4489
    grid = gen_db2(seed=1, scale=0.05, grid_test=True)
    assert not np.array_equal(ds.x[ds.test_idx], grid.x[grid.test_idx])


def test_normalization_maps_train_extremes():
    ds = gen_db2(seed=2, scale=0.05)
    xn = ds.x_norm(ds.train_idx)
    assert np.allclose(xn.min(axis=0), 0.0)
    assert np.allclose(xn.max(axis=0), 1.0)
    # grid corners can poke slightly outside the training range
    xt = ds.x_norm(ds.test_idx)
    assert xt.min() < 0.0 or xt.max() > 1.0


def random_wide_table() -> Dataset:
    # 36 features as column slices of one (N, 37) buffer, as load_dataset makes them
    values = np.random.default_rng(5).normal(size=(500, 37))
    return Dataset(x=values[:, :36], y=values[:, 36:], train_idx=np.arange(0, 400, 2),
                   val_idx=np.arange(1, 400, 2), test_idx=np.arange(400, 500))


@pytest.mark.parametrize("make", [
    lambda: split(gen_db2(seed=7, scale=0.1), 0.2, seed=7),  # the db2 desk split
    random_wide_table,
    lambda: gen_db1(seed=4),  # one feature and no validation rows
    lambda: split(gen_db2(seed=8, scale=0.05), 0.0, seed=8),  # an empty validation split
    lambda: Dataset(x=np.arange(12.0).reshape(6, 2), y=np.zeros(6), train_idx=np.arange(0),
                    val_idx=np.arange(0), test_idx=np.arange(6)),  # bounds from every row
])
def test_normalization_equals_the_fancy_indexed_rows_bit_for_bit(make):
    ds = make()
    fit = np.concatenate([ds.train_idx, ds.val_idx])
    rows = ds.x[fit] if fit.size else ds.x
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    span = hi - lo
    assert ds.feature_min.tobytes() == lo.tobytes() and ds.feature_max.tobytes() == hi.tobytes()
    for which in ("train", "val", "test", "all"):
        idx = ds.rows(which)
        xn = ds.x_norm(idx)
        expected = (ds.x[idx] - lo) / np.where(span == 0.0, 1.0, span)
        assert xn.shape == expected.shape == (idx.size, ds.n_features)
        assert xn.flags.c_contiguous and xn.tobytes() == expected.tobytes()


# k = ceil(512 / d) rows per run: 512 at one feature, 1 past 511 features
RUN_WIDTHS = [1, 2, 3, 7, 14, 36, 37, 511, 512, 513]
REPEATS_AND_ZEROS = np.array([-0.0, 0.0, 0.0, -0.0, 1.5, -2.25, 3.0])


@st.composite
def run_tables(draw):
    """A table of d features whose row count is below k, a multiple of k, or a
    multiple of k plus a remainder; a C array or column slices of a wider buffer,
    as load_dataset makes them; values drawn with repeats and both zeros, or
    normal; rows split at random, or bounds from every row (an empty fit set)."""
    d = draw(st.sampled_from(RUN_WIDTHS))
    k = -(-512 // d)
    runs = draw(st.integers(0, 2))
    rest = draw(st.integers(1, max(k - 1, 1))) if runs == 0 or draw(st.booleans()) else 0
    n = runs * k + rest
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, d + 1) if draw(st.booleans()) else (n, d)
    values = (rng.choice(REPEATS_AND_ZEROS, size=shape) if draw(st.booleans())
              else rng.normal(size=shape))
    order = rng.permutation(n)
    if draw(st.booleans()):  # no train or validation rows: bounds from every row
        n_train = n_val = 0
    else:
        n_train = draw(st.integers(1, n))
        n_val = draw(st.integers(0, n - n_train))
    return Dataset(x=values[:, :d], y=np.zeros(n), train_idx=order[:n_train],
                   val_idx=order[n_train:n_train + n_val], test_idx=order[n_train + n_val:])


@given(run_tables())
def test_bounds_and_normalization_over_row_runs_equal_the_plain_expressions(ds):
    fit = np.concatenate([ds.train_idx, ds.val_idx])
    rows = ds.x[fit] if fit.size else ds.x
    lo, hi = rows.min(axis=0), rows.max(axis=0)
    # equal values; the bytes can differ in the sign of a zero bound alone, as a
    # reduction in another order may pick the other zero (x = [0.0, -0.0] is one)
    assert np.array_equal(ds.feature_min, lo) and np.array_equal(ds.feature_max, hi)
    span, own_span = hi - lo, ds.feature_max - ds.feature_min
    spec = parse_encoding("s2v1")
    for idx in (ds.train_idx, ds.val_idx, ds.test_idx, ds.rows("all"), np.arange(0)):
        xn = ds.x_norm(idx)
        expected = (ds.x[idx] - lo) / np.where(span == 0.0, 1.0, span)
        own = (ds.x[idx] - ds.feature_min) / np.where(own_span == 0.0, 1.0, own_span)
        assert xn.shape == expected.shape == (idx.size, ds.n_features)
        assert xn.flags.c_contiguous and xn.tobytes() == own.tobytes()
        assert np.array_equal(xn, expected)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="clamped")  # rows outside the fit set
            got, want = encode_matrix(xn, spec)[0], encode_matrix(expected, spec)[0]
        assert np.array_equal(got.words, want.words)


@pytest.mark.parametrize("d", [1, 2, 36])
def test_a_table_with_no_rows_has_no_bounds(d):
    ds = Dataset(x=np.zeros((0, d)), y=np.zeros(0), train_idx=np.arange(0),
                 val_idx=np.arange(0), test_idx=np.arange(0))
    with pytest.raises(ValueError):
        ds.feature_min
    with pytest.raises(ValueError):
        ds.x_norm(np.arange(0))


def test_split_counts_and_determinism():
    ds = gen_db1(seed=0)
    s1 = split(ds, 0.2, seed=5)
    assert s1.train_idx.size == 800 and s1.val_idx.size == 200
    s2 = split(ds, 0.2, seed=5)
    assert np.array_equal(s1.val_idx, s2.val_idx)
    s3 = split(ds, 0.0, seed=5)
    assert s3.val_idx.size == 0
    assert set(s1.train_idx) | set(s1.val_idx) == set(ds.train_idx)


def test_split_ten_rows():
    ds = gen_db1(seed=0)
    import dataclasses

    small = dataclasses.replace(
        ds, train_idx=np.arange(10), val_idx=np.arange(0), test_idx=np.arange(10, 12)
    )
    out = split(small, 0.2, seed=1)
    assert out.train_idx.size == 8 and out.val_idx.size == 2


def test_split_errors():
    ds = gen_db1(seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)
    import dataclasses

    tiny = dataclasses.replace(ds, train_idx=np.arange(1), val_idx=np.arange(0))
    with pytest.raises(DataError):
        split(tiny, 0.9, seed=0)


# -- csv i/o -----------------------------------------------------------------


def test_csv_roundtrip_exact(tmp_path):
    ds = split(gen_db1(seed=4), 0.25, seed=4)
    path = tmp_path / "db1.csv"
    files = write_dataset(ds, path)
    assert files[1].name == "db1.manifest"
    back = load_dataset(path)
    for role in ("train", "val", "test"):
        a, b = ds.rows(role), back.rows(role)
        assert np.max(np.abs(ds.x[a] - back.x[b])) == 0.0
        assert np.max(np.abs(ds.y[a] - back.y[b])) == 0.0
    assert np.array_equal(ds.feature_min, back.feature_min)
    assert np.array_equal(ds.feature_max, back.feature_max)


def test_write_refuses_a_path_that_is_its_own_manifest(tmp_path):
    with pytest.raises(ValueError, match="overwritten by its manifest"):
        write_dataset(gen_db1(seed=6), tmp_path / "db1.manifest")
    assert list(tmp_path.iterdir()) == []


def _dataset_csv_by_rows(ds: Dataset) -> bytes:
    """write_dataset's CSV built one row at a time: the reference for the column-wise writer."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(list(ds.feature_names) + list(ds.target_names))
    for i in np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx]):
        w.writerow([repr(float(v)) for v in ds.x[i]] + [repr(float(v)) for v in ds.y[i]])
    return fh.getvalue().encode()


def test_write_matches_the_row_by_row_writer(tmp_path):
    # two targets, validation rows interleaved with training rows by split, and
    # cells whose repr is not plain: a negative zero, the least subnormal, 1e308
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    x[3, 1], x[7, 0], y[11, 1], y[0, 0] = -0.0, 5e-324, 1e308, -1e308
    ds = split(Dataset(x=x, y=y, train_idx=np.arange(32), val_idx=np.arange(0),
                       test_idx=np.arange(32, 40), target_names=["a", "b"]), 0.25, seed=1)
    assert ds.val_idx.size == 8
    assert not np.array_equal(np.concatenate([ds.train_idx, ds.val_idx]), np.arange(32))
    path = tmp_path / "two.csv"
    write_dataset(ds, path)
    assert path.read_bytes() == _dataset_csv_by_rows(ds)
    assert b",-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()


def test_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(gen_db1(seed=6), p1)
    write_dataset(gen_db1(seed=6), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.manifest").read_bytes() == (tmp_path / "b.manifest").read_bytes()


def test_load_csv_normalization_endpoints(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("f,y\n2,0.1\n4,0.2\n6,0.3\n")
    ds = load_dataset(p)
    xn = ds.x_norm(ds.rows("train"))
    assert np.allclose(xn[:, 0], [0.0, 0.5, 1.0])
    assert ds.y.shape == (3, 1)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_dataset(p)


def test_load_csv_non_numeric(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3,zebra\n")
    with pytest.raises(DataError, match="line 3.*zebra"):
        load_dataset(p)


def _csv_with(cell: str, line: int, col: int) -> str:
    """A 2-feature, 1-target CSV of 8 data rows with `cell` at (line, col)."""
    rows = [[f"{0.1 * i:g}", f"{0.2 * i:g}", f"{0.3 * i:g}"] for i in range(8)]
    rows[line - 2][col] = cell  # line 1 is the header
    return "a,b,y\n" + "".join(",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("col,name", [(0, "a"), (1, "b"), (2, "y")])
def test_load_csv_refuses_non_finite_cells_at_their_position(tmp_path, cell, col, name):
    # data row 5 is line 6; a NaN used to poison the normalization of every row
    p = tmp_path / "bad.csv"
    p.write_text(_csv_with(cell, 6, col))
    with pytest.raises(DataError, match=f"line 6: non-finite value in column '{name}'"):
        load_dataset(p)


def test_load_dataset_refuses_a_non_finite_cell(tmp_path):
    path = tmp_path / "db1.csv"
    write_dataset(split(gen_db1(seed=4), 0.25, seed=4), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[9] = "nan," + lines[9].split(",", 1)[1]
    path.write_text("".join(lines))
    with pytest.raises(DataError, match="line 10: non-finite value in column 'x0'"):
        load_dataset(path)


def test_load_csv_db3_db4_shapes(tmp_path):
    rng = np.random.default_rng(0)
    for d in (36, 14):
        cols = [f"f{j}" for j in range(d)] + ["target"]
        rows = rng.uniform(size=(5, d + 1))
        p = tmp_path / f"shape{d}.csv"
        p.write_text(
            ",".join(cols)
            + "\n"
            + "\n".join(",".join(repr(float(v)) for v in r) for r in rows)
            + "\n"
        )
        ds = load_dataset(p)
        assert ds.n_features == d
        assert ds.n_targets == 1


def test_one_dimensional_features_and_targets_are_one_column():
    x = np.linspace(0.0, 1.0, 50)
    ds = Dataset(x=x, y=2 * x, train_idx=np.arange(40), val_idx=np.arange(40, 45),
                 test_idx=np.arange(45, 50))
    assert ds.x.shape == ds.y.shape == (50, 1)
    assert (ds.n_features, ds.n_targets) == (1, 1)
    # one feature, whose bounds come from the train and validation rows
    assert ds.feature_min.tolist() == [0.0] and ds.feature_max.tolist() == [x[44]]


def test_load_dataset_without_manifest(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("a,y\n1,2\n3,4\n")
    ds = load_dataset(p)
    assert ds.rows("train").size == 2
    assert ds.rows("test").size == 0
    with pytest.raises(ValueError, match="unknown row selector 'bogus'"):
        ds.rows("bogus")


def test_without_a_manifest_x_and_y_are_column_slices_of_the_parsed_values(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("a,b,y\n1,2,3\n4,5,6\n")
    ds = load_dataset(p)
    parsed = ds.x.base
    assert parsed is not None and parsed is ds.y.base
    assert np.shares_memory(ds.x, parsed) and np.shares_memory(ds.y, parsed)
    assert parsed.reshape(2, 3).tolist() == [[1, 2, 3], [4, 5, 6]]
    assert (ds.feature_names, ds.target_names, ds.name, ds.seed) == (["a", "b"], ["y"], "plain", 0)
    assert (ds.train_idx.tolist(), ds.val_idx.size, ds.test_idx.size) == ([0, 1], 0, 0)


def test_loading_a_csv_peaks_below_three_times_its_values(tmp_path):
    # a list of float lists and its array copy peaked at 7.3x the values
    rows, cols = 20000, 10
    values = np.random.default_rng(0).uniform(size=(rows, cols))
    p = tmp_path / "wide.csv"
    p.write_text(",".join(f"c{j}" for j in range(cols)) + "\n"
                 + "".join(",".join(map(repr, r)) + "\n" for r in values.tolist()))
    tracemalloc.start()
    try:
        ds = load_dataset(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.column_stack([ds.x, ds.y]), values)
    assert peak < 3 * values.nbytes, peak / values.nbytes


def test_load_dataset_skips_blank_lines(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("a,y\n1,2\n\n3,4\n\n")
    ds = load_dataset(p)
    assert ds.x.tolist() == [[1.0], [3.0]] and ds.y.tolist() == [[2.0], [4.0]]


@pytest.mark.parametrize("case,match", [
    ("directory", "cannot open"),
    ("empty", "empty file"),
    ("header-only", "no data rows"),
    ("one-column", "no feature columns left after removing targets"),
    ("manifest-columns", "expected 3 columns, found 2"),
    ("manifest-rows", "row count does not match the manifest"),
], ids=["directory", "empty", "header-only", "one-column", "manifest-columns", "manifest-rows"])
def test_load_dataset_refuses_a_file_it_cannot_read(tmp_path, case, match):
    p = tmp_path / "data.csv"
    if case == "directory":
        p.mkdir()
    elif case.startswith("manifest"):
        write_dataset(gen_db1(seed=1), p)
        key, value = ("n_features", "2") if case == "manifest-columns" else ("n_test", "299")
        manifest = tmp_path / "data.manifest"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(f"{key}={value}\n" if ln.startswith(key + "=") else ln + "\n"
                                    for ln in lines))
    else:
        p.write_text({"empty": "", "header-only": "a,y\n", "one-column": "y\n1\n2\n"}[case])
    with pytest.raises(DataError, match=match):
        load_dataset(p)


@pytest.mark.parametrize(
    "edits,field",
    [
        # the counts still sum to the 1300 rows, but test rows 900-1299 would
        # overlap training rows 900-999
        ({"n_val": "-100", "n_test": "400"}, "n_val=-100"),
        ({"n_train": "-1", "n_test": "301"}, "n_train=-1"),
        ({"seed": "abc"}, "invalid literal"),  # a ValueError, which the CLI calls a usage error
        # a model needs a feature and a target column
        ({"n_features": "0", "n_targets": "2"}, "n_features=0 is below 1"),
        ({"n_features": "2", "n_targets": "0"}, "n_targets=0 is below 1"),
    ],
    ids=["n_val", "n_train", "seed", "n_features", "n_targets"],
)
def test_load_dataset_refuses_a_manifest_that_lies(tmp_path, edits, field):
    path = tmp_path / "db1.csv"
    write_dataset(gen_db1(seed=1), path)
    manifest = tmp_path / "db1.manifest"
    lines = manifest.read_text().splitlines()
    for key, value in edits.items():
        lines = [f"{key}={value}" if ln.startswith(key + "=") else ln for ln in lines]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="db1.manifest: bad manifest: " + field):
        load_dataset(path)


def test_load_dataset_ignores_the_bounds_and_names_of_an_older_manifest(tmp_path):
    # older manifests stored the bounds; read back, one edited to a far maximum
    # would squash every training row into one encoded row
    ds = gen_db1(seed=1)
    path = tmp_path / "db1.csv"
    write_dataset(ds, path)
    manifest = tmp_path / "db1.manifest"
    older = ["feature_names=a", "target_names=b", "feature_0_min=0.0", "feature_0_max=1000000.0"]
    manifest.write_text(manifest.read_text() + "\n".join(older) + "\n")
    back = load_dataset(path)
    assert back.feature_max[0] == ds.x[ds.train_idx].max() < 1.0
    assert (back.feature_names, back.target_names) == (["x0"], ["y0"])
    for role in ("train", "test"):
        assert np.array_equal(back.x_norm(back.rows(role)), ds.x_norm(ds.rows(role)))
    bits, _ = encode_matrix(back.x_norm(back.train_idx), parse_encoding("s1:3"))
    assert np.unique(bits.words, axis=0).shape[0] > 1


def test_load_dataset_reads_every_key_that_write_dataset_writes(tmp_path):
    # written under another name and with a nonzero seed, so that a key the
    # loader dropped would change what it returns
    ds = split(gen_db1(seed=4), 0.25, seed=4)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    manifest = tmp_path / "data.manifest"
    lines = manifest.read_text().splitlines()

    def loaded():
        try:
            back = load_dataset(path)
        except DataError as exc:
            return str(exc)
        return back.name, back.seed, back.train_idx.size, back.val_idx.size, back.test_idx.size

    full = loaded()
    assert full == ("db1", 4, 750, 250, 300)
    for i, line in enumerate(lines):
        manifest.write_text("\n".join(lines[:i] + lines[i + 1 :]) + "\n")
        assert loaded() != full, f"load_dataset does not read {line!r}"
