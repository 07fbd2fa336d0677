"""Benchmark dataset generation, CSV ingestion, normalization, and splits.

A Dataset keeps features in their original units and computes their
per-feature min/max from its non-test rows; consumers ask for the normalized
view. On disk a dataset is a CSV (header row, rows ordered train/val/test)
whose repr-exact values make a write/load round trip exact, plus a key=value
manifest of the counts, name and seed; without one, load_dataset, the one
reader, takes the last column as the target and every row as a training row.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .encoding import samples_2d
from .errors import DataError


@dataclass
class Dataset:
    x: np.ndarray  # (N, d) raw features
    y: np.ndarray  # (N, m) targets
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        self.x = samples_2d(self.x)
        self.y = samples_2d(self.y)
        if not self.feature_names:
            self.feature_names = [f"x{j}" for j in range(self.x.shape[1])]
        if not self.target_names:
            self.target_names = [f"y{j}" for j in range(self.y.shape[1])]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_targets(self) -> int:
        return self.y.shape[1]

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature (min, max) of the train and validation rows (all rows if none),
        computed on first use: split's replace reruns __post_init__."""
        fit = np.concatenate([self.train_idx, self.val_idx])
        rows = np.take(self.x, fit, axis=0) if fit.size else self.x
        return rows.min(axis=0), rows.max(axis=0)

    feature_min = property(lambda self: self._bounds[0])  # (d,)
    feature_max = property(lambda self: self._bounds[1])

    def x_norm(self, idx: np.ndarray) -> np.ndarray:
        """Min-max normalized features for the given rows (not clamped)."""
        span = self.feature_max - self.feature_min
        safe = np.where(span == 0.0, 1.0, span)
        return (np.take(self.x, idx, axis=0) - self.feature_min) / safe

    def rows(self, which: str) -> np.ndarray:
        try:
            return {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx,
                    "all": np.arange(self.x.shape[0])}[which]
        except KeyError:
            raise ValueError(f"unknown row selector {which!r}") from None


def db1_function(x: np.ndarray) -> np.ndarray:
    """Sum of three narrow Gaussian bumps on [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    return (
        0.2 * np.exp(-((10 * x - 4) ** 2))
        + 0.5 * np.exp(-((90 * x - 40) ** 2))
        + 0.3 * np.exp(-((80 * x - 20) ** 2))
    )


def rastrigin(x: np.ndarray, a: float = 10.0) -> np.ndarray:
    """Rastrigin function over rows of x; global minimum 0 at the origin."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[1]
    return a * n + np.sum(x * x - a * np.cos(2 * np.pi * x), axis=1)


def gen_db1(seed: int = 0) -> Dataset:
    """1300 uniform draws on [0, 1]; 1000 train rows, 300 held-out test rows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=1300)
    y = db1_function(x)
    return Dataset(
        x=x[:, None],
        y=y[:, None],
        train_idx=np.arange(1000),
        val_idx=np.arange(0),
        test_idx=np.arange(1000, 1300),
        name="db1",
        seed=seed,
    )


def gen_db2(
    seed: int = 0,
    scale: float = 0.1,
    normalize_targets: bool = True,
    grid_test: bool = True,
) -> Dataset:
    """2-D Rastrigin regression set on [-5.12, 5.12]^2.

    Training rows are uniform draws: 40000 at scale=1.0, 4000 at the
    desk-scale default of 0.1. The 4489 test rows sit on a 67x67 grid
    (uniform draws with grid_test=False). Targets are min-max scaled to
    [0, 1] using the training rows unless normalize_targets is False.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n_train = int(round(40000 * scale))
    if n_train < 2:  # one row leaves the target scaling no spread
        raise ValueError(f"scale {scale} leaves {n_train} training rows; at least 2 are needed")
    rng = np.random.default_rng(seed)
    lo, hi = -5.12, 5.12
    x_train = rng.uniform(lo, hi, size=(n_train, 2))
    if grid_test:
        g = np.linspace(lo, hi, 67)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        x_test = np.column_stack([gx.ravel(), gy.ravel()])
    else:
        x_test = rng.uniform(lo, hi, size=(4489, 2))
    x = np.vstack([x_train, x_test])
    y = rastrigin(x)
    if normalize_targets:
        y_tr = y[:n_train]
        ymin, ymax = y_tr.min(), y_tr.max()
        y = (y - ymin) / (ymax - ymin)
    return Dataset(
        x=x,
        y=y[:, None],
        train_idx=np.arange(n_train),
        val_idx=np.arange(0),
        test_idx=np.arange(n_train, n_train + x_test.shape[0]),
        name="db2",
        seed=seed,
    )


def split(ds: Dataset, val_fraction: float, seed: int = 0) -> Dataset:
    """Carve a validation set out of the training portion, shuffled by seed."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    pool = np.sort(np.concatenate([ds.train_idx, ds.val_idx]))
    n_val = int(round(pool.size * val_fraction))
    if pool.size - n_val < 1:
        raise DataError("split would leave no training rows")
    order = np.random.default_rng(seed).permutation(pool.size)
    keep = pool.size - n_val
    train_idx = np.sort(pool[order[:keep]])
    val_idx = np.sort(pool[order[keep:]])
    return replace(ds, train_idx=train_idx, val_idx=val_idx)


# -- CSV + manifest i/o ----------------------------------------------------


def manifest_path(csv_path: str | Path) -> Path:
    """The manifest beside a dataset CSV: its path with the suffix .manifest."""
    return Path(csv_path).with_suffix(".manifest")


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """Write the header row, then one row per step of the zipped column
    iterables of cell strings; no row list or list of all values is built."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*columns))


def write_dataset(ds: Dataset, csv_path: str | Path) -> list[Path]:
    """Write `<path>` CSV (rows ordered train/val/test) and `<path>.manifest`.

    A path that is its own manifest path (`*.manifest`) is a ValueError,
    raised before anything is written.
    """
    csv_path, mpath = Path(csv_path), manifest_path(csv_path)
    if csv_path == mpath:
        raise ValueError(f"{csv_path}: the dataset would be overwritten by its manifest")
    order = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
    write_csv(csv_path, list(ds.feature_names) + list(ds.target_names),
              [map(repr, map(float, c)) for a in (ds.x, ds.y) for c in a[order].T])
    lines = [
        f"name={ds.name}",
        f"seed={ds.seed}",
        f"n_features={ds.n_features}",
        f"n_targets={ds.n_targets}",
        f"n_train={ds.train_idx.size}",
        f"n_val={ds.val_idx.size}",
        f"n_test={ds.test_idx.size}",
    ]
    mpath.write_text("\n".join(lines) + "\n")
    return [csv_path, mpath]


def _read_csv_numeric(csv_path: Path) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) values; a DataError names a bad cell's line."""
    try:
        fh = open(csv_path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {csv_path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        n_cols = len(header)
        values = array("d")
        line_nos = array("l")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise DataError(
                    f"{csv_path}: line {line_no}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                values.extend(map(float, row))
            except ValueError as exc:  # names the cell
                raise DataError(f"{csv_path}: line {line_no}: non-numeric cell ({exc})") from None
            line_nos.append(line_no)
    if not line_nos:
        raise DataError(f"{csv_path}: no data rows")
    data = np.frombuffer(values).reshape(len(line_nos), n_cols)
    # refused before any normalization, which one NaN would spread to every row
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"{csv_path}: line {line_nos[i]}: non-finite value in column {header[j]!r}"
        )
    return header, data


def _manifest_count(kv: dict[str, str], key: str) -> int:
    """kv[key] as a count, else a ValueError: at least 1 feature and 1 target
    column, and no negative row count, which could still sum to the row count
    and make row sets overlap."""
    value = int(kv[key])
    least = 1 if key in ("n_features", "n_targets") else 0
    if value < least:
        raise ValueError(f"{key}={kv[key]} is below {least}")
    return value


def load_dataset(csv_path: str | Path) -> Dataset:
    """Load a numeric CSV with a header row, using its manifest when present.

    The manifest gives the column and row counts, the name and the seed; any
    other key, such as the bounds and names older manifests held, is ignored.
    Without a manifest the last column is the target and every row a training
    row. x and y are column slices of the parsed values, not copies.
    """
    csv_path, mpath = Path(csv_path), manifest_path(csv_path)
    lines = mpath.read_text().splitlines() if mpath.exists() else None
    header, data = _read_csv_numeric(csv_path)
    if lines is None:  # the last column is the target and every row a training row
        if data.shape[1] < 2:
            raise DataError("no feature columns left after removing targets")
        lines = [f"n_features={data.shape[1] - 1}", "n_targets=1",
                 f"n_train={data.shape[0]}", "n_val=0", "n_test=0"]
    kv = dict(line.strip().split("=", 1) for line in lines if "=" in line)
    try:
        counts = ("n_features", "n_targets", "n_train", "n_val", "n_test")
        d, m, n_train, n_val, n_test = (_manifest_count(kv, k) for k in counts)
        seed = int(kv.get("seed", "0"))
    except (KeyError, ValueError) as exc:
        raise DataError(f"{mpath}: bad manifest: {exc}") from exc
    if data.shape[1] != d + m:
        raise DataError(f"{csv_path}: expected {d + m} columns, found {data.shape[1]}")
    if data.shape[0] != n_train + n_val + n_test:
        raise DataError(f"{csv_path}: row count does not match the manifest")
    return Dataset(
        x=data[:, :d],
        y=data[:, d:],
        train_idx=np.arange(n_train),
        val_idx=np.arange(n_train, n_train + n_val),
        test_idx=np.arange(n_train + n_val, n_train + n_val + n_test),
        feature_names=header[:d],
        target_names=header[d:],
        name=kv.get("name", csv_path.stem),
        seed=seed,
    )
