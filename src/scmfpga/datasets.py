"""Benchmark dataset generation, CSV ingestion, normalization, and splits.

A Dataset keeps features in their original units together with per-feature
min/max recorded from the non-test rows; consumers ask for the normalized
view. On disk a dataset is a plain CSV (header row, rows ordered
train/val/test) plus a key=value manifest holding the counts, the seed, and
the normalization parameters, so a write/load round trip is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass
class Dataset:
    x: np.ndarray  # (N, d) raw features
    y: np.ndarray  # (N, m) targets
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    feature_min: np.ndarray  # (d,) from non-test rows
    feature_max: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
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

    def x_norm(self, idx: np.ndarray) -> np.ndarray:
        """Min-max normalized features for the given rows (not clamped)."""
        span = self.feature_max - self.feature_min
        safe = np.where(span == 0.0, 1.0, span)
        return (self.x[idx] - self.feature_min) / safe

    def rows(self, which: str) -> np.ndarray:
        try:
            return {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx,
                    "all": np.arange(self.x.shape[0])}[which]
        except KeyError:
            raise ValueError(f"unknown row selector {which!r}") from None


def _normalization_from(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = x[idx] if idx.size else x
    return rows.min(axis=0), rows.max(axis=0)


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
    train_idx = np.arange(1000)
    test_idx = np.arange(1000, 1300)
    fmin, fmax = _normalization_from(x[:, None], train_idx)
    return Dataset(
        x=x[:, None],
        y=y[:, None],
        train_idx=train_idx,
        val_idx=np.arange(0),
        test_idx=test_idx,
        feature_min=fmin,
        feature_max=fmax,
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
    rng = np.random.default_rng(seed)
    n_train = int(round(40000 * scale))
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
    train_idx = np.arange(n_train)
    test_idx = np.arange(n_train, n_train + x_test.shape[0])
    fmin, fmax = _normalization_from(x, train_idx)
    return Dataset(
        x=x,
        y=y[:, None],
        train_idx=train_idx,
        val_idx=np.arange(0),
        test_idx=test_idx,
        feature_min=fmin,
        feature_max=fmax,
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


def _manifest_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".manifest")


def write_dataset(ds: Dataset, csv_path: str | Path) -> list[Path]:
    """Write `<path>` CSV (rows ordered train/val/test) and `<path>.manifest`."""
    csv_path = Path(csv_path)
    order = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
    header = list(ds.feature_names) + list(ds.target_names)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in order:
            w.writerow([repr(float(v)) for v in ds.x[i]] + [repr(float(v)) for v in ds.y[i]])
    lines = [
        f"name={ds.name}",
        f"seed={ds.seed}",
        f"n_features={ds.n_features}",
        f"n_targets={ds.n_targets}",
        f"n_train={ds.train_idx.size}",
        f"n_val={ds.val_idx.size}",
        f"n_test={ds.test_idx.size}",
        "feature_names=" + ",".join(ds.feature_names),
        "target_names=" + ",".join(ds.target_names),
    ]
    for j in range(ds.n_features):
        lines.append(f"feature_{j}_min={float(ds.feature_min[j])!r}")
        lines.append(f"feature_{j}_max={float(ds.feature_max[j])!r}")
    mpath = _manifest_path(csv_path)
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
        rows = []
        line_nos = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise DataError(
                    f"{csv_path}: line {line_no}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:  # names the cell
                raise DataError(f"{csv_path}: line {line_no}: non-numeric cell ({exc})") from None
            line_nos.append(line_no)
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    # refused before any normalization, which one NaN would spread to every row
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"{csv_path}: line {line_nos[i]}: non-finite value in column {header[j]!r}"
        )
    return header, data


def load_csv(path: str | Path, target_cols: list[str] | None = None) -> Dataset:
    """Ingest a rectangular numeric CSV with a header row.

    `target_cols` names the target columns (default: the last column). Every
    row is a training row; features are min-max normalized over all of them,
    and targets stay raw.
    """
    path = Path(path)
    header, data = _read_csv_numeric(path)
    if target_cols is None:
        target_cols = [header[-1]]
    for col in target_cols:
        if col not in header:
            raise DataError(f"target column {col!r} not found (have {header})")
    t_idx = [header.index(c) for c in target_cols]
    f_idx = [j for j in range(len(header)) if j not in t_idx]
    if not f_idx:
        raise DataError("no feature columns left after removing targets")
    x = data[:, f_idx]
    train_idx = np.arange(x.shape[0])
    fmin, fmax = _normalization_from(x, train_idx)
    return Dataset(
        x=x,
        y=data[:, t_idx],
        train_idx=train_idx,
        val_idx=np.arange(0),
        test_idx=np.arange(0),
        feature_min=fmin,
        feature_max=fmax,
        feature_names=[header[j] for j in f_idx],
        target_names=list(target_cols),
        name=path.stem,
    )


def _manifest_value(kv: dict[str, str], key: str, kind: type):
    """kv[key] as a count at least 0 (kind int) or a finite float, else a ValueError.

    A negative count could still sum to the row count and make row sets overlap.
    """
    value = kind(kv[key])
    if not (value >= 0 if kind is int else math.isfinite(value)):
        raise ValueError(f"{key}={kv[key]} is {'negative' if kind is int else 'not finite'}")
    return value


def load_dataset(csv_path: str | Path) -> Dataset:
    """Load a CSV written by write_dataset, using its manifest when present.

    Without a manifest every row is a training row and normalization comes
    from the whole file.
    """
    csv_path = Path(csv_path)
    mpath = _manifest_path(csv_path)
    if not mpath.exists():
        return load_csv(csv_path)
    kv: dict[str, str] = {}
    for line in mpath.read_text().splitlines():
        line = line.strip()
        if line and "=" in line:
            k, _, v = line.partition("=")
            kv[k] = v
    header, data = _read_csv_numeric(csv_path)
    try:
        counts = ("n_features", "n_targets", "n_train", "n_val", "n_test")
        d, m, n_train, n_val, n_test = (_manifest_value(kv, k, int) for k in counts)
        fmin = np.array([_manifest_value(kv, f"feature_{j}_min", float) for j in range(d)])
        fmax = np.array([_manifest_value(kv, f"feature_{j}_max", float) for j in range(d)])
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
        feature_min=fmin,
        feature_max=fmax,
        feature_names=header[:d],
        target_names=header[d:],
        name=kv.get("name", csv_path.stem),
        seed=seed,
    )
