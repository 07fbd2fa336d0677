import numpy as np
import pytest

from scmfpga.datasets import (
    db1_function,
    gen_db1,
    gen_db2,
    load_csv,
    load_dataset,
    rastrigin,
    split,
    write_dataset,
)
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


def test_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(gen_db1(seed=6), p1)
    write_dataset(gen_db1(seed=6), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.manifest").read_bytes() == (tmp_path / "b.manifest").read_bytes()


def test_load_csv_normalization_endpoints(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("f,y\n2,0.1\n4,0.2\n6,0.3\n")
    ds = load_csv(p, target_cols=["y"])
    xn = ds.x_norm(ds.rows("train"))
    assert np.allclose(xn[:, 0], [0.0, 0.5, 1.0])
    assert ds.y.shape == (3, 1)


def test_load_csv_missing_target(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="'z' not found"):
        load_csv(p, target_cols=["z"])


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p)


def test_load_csv_non_numeric(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3,zebra\n")
    with pytest.raises(DataError, match="line 3.*zebra"):
        load_csv(p)


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
        load_csv(p)


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
        ds = load_csv(p, target_cols=["target"])
        assert ds.n_features == d
        assert ds.n_targets == 1


def test_load_dataset_without_manifest(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("a,y\n1,2\n3,4\n")
    ds = load_dataset(p)
    assert ds.rows("train").size == 2
    assert ds.rows("test").size == 0


@pytest.mark.parametrize(
    "edits,field",
    [
        # the counts still sum to the 1300 rows, but test rows 900-1299 would
        # overlap training rows 900-999
        ({"n_val": "-100", "n_test": "400"}, "n_val=-100"),
        ({"n_train": "-1", "n_test": "301"}, "n_train=-1"),
        ({"feature_0_min": "nan"}, "feature_0_min=nan"),
        ({"feature_0_max": "inf"}, "feature_0_max=inf"),
        ({"seed": "abc"}, "invalid literal"),  # a ValueError, which the CLI calls a usage error
    ],
    ids=["n_val", "n_train", "min-nan", "max-inf", "seed"],
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
