"""L1-penalized regression used by training, and SVD least squares for its tests.

least_squares is an SVD-based pseudoinverse (numpy lstsq with the max(N, L) *
eps singular-value cutoff). No package path calls it: it is the test oracle
of the readout, which training keeps as the growing triangle R of a QR,
without its basis (train.TrainState). The L1 solver minimizes

    sum_j (y_j - u - x_j . p)**2 + alpha * sum_k |p_k|

per output column, with an unpenalized intercept u = mean(y) - mean(x) . p,
so p fits the centred targets on the centred columns. The soft threshold
for a coordinate with centred squared column norm G_kk is alpha / (2 G_kk).

It is cyclic coordinate descent in the covariance form of Friedman, Hastie
and Tibshirani (2010, "Regularization paths for generalized linear models
via coordinate descent", JSS 33(1)): the centred Gram G = X^T X - s s^T / N
(s the column sums) and c = X^T (y - mean(y)) are formed once and q = G p
is kept up to date, so a step costs O(d), not O(N). X^T X and c are summed
over float64 copies of BLOCK_ROWS rows (row_blocks, which training's readout
reads its int8 H through too), so X may be int8 +-1 signals (s is summed in
float64), and G is centred in place. On +-1 entries G is rounded once. A
constant column (zero range) gets its row and column of G set to zero, so
coefficient 0 and no steps; on +-1 entries they are exactly zero already.
The sweeps start from the solution of (G + delta I) p = c, delta = 1e-9
max(1, max G_kk), not from zero: the optimum lies close to least squares,
and the collinear thermometer columns of encoded inputs make descent crawl.
The shift makes the semidefinite G definite: one LU solve, and no SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 10_000
BLOCK_ROWS = 256  # rows per float64 copy in row_blocks


def _as_2d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a)
    arr = arr if arr.dtype.kind in "iu" else arr.astype(np.float64, copy=False)  # int8 stays int8
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if arr.dtype.kind not in "iu" and not np.all(np.isfinite(arr)):  # integers are finite
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def row_blocks(x: np.ndarray):
    """(rows, float64 x[rows]) over x, BLOCK_ROWS rows at a time; a view if x is float64."""
    for a in range(0, len(x), BLOCK_ROWS):
        yield slice(a, a + BLOCK_ROWS), x[a : a + BLOCK_ROWS].astype(np.float64, copy=False)


def least_squares(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of H @ beta ~= T, by SVD.

    The readout's test oracle (no package path calls it). Singular values below
    max(N, L) * eps * sigma_max count as zero, so rank-deficient H is handled.
    """
    h = _as_2d(h, "H")
    t = _as_2d(t, "T")
    if h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError("H must have at least one row and one column")
    if t.shape[0] != h.shape[0]:
        raise ValueError(f"row mismatch: H has {h.shape[0]} rows, T has {t.shape[0]}")
    beta, *_ = np.linalg.lstsq(h, t, rcond=None)
    return beta


def lasso_objective(x: np.ndarray, y: np.ndarray, p: np.ndarray, u: np.ndarray,
                    alpha: float) -> float:
    """Unnormalized L1 objective with intercepts u, summed over output columns."""
    resid = np.empty(y.shape)
    for rows, xb in row_blocks(x):
        resid[rows] = y[rows] - xb @ p - u
    return float(np.sum(resid * resid) + alpha * np.sum(np.abs(p)))


def _soft_threshold(rho: float, t: float) -> float:
    if rho > t:
        return rho - t
    if rho < -t:
        return rho + t
    return 0.0


@dataclass(frozen=True, eq=False)  # == is identity: the fields hold arrays
class LassoFit:
    """Result of lasso_fit: coefficients p and intercepts u.

    `sweeps` is the largest sweep count over the output columns, `converged`
    says every column met the tolerance within the sweep cap, `objective` is
    lasso_objective at p and u, and `constant_columns` counts the columns
    whose centred Gram diagonal is zero (coefficient 0, no sweeps).
    """

    p: np.ndarray  # (d, m)
    u: np.ndarray  # (m,)
    sweeps: int
    converged: bool
    objective: float
    constant_columns: int


def lasso_fit(x: np.ndarray, y: np.ndarray, alpha: float) -> LassoFit:
    """Fit an L1-penalized linear model with per-output intercepts.

    Parameters
    ----------
    x : (N, d) design matrix (typically the int8 +-1 signals of encoded inputs).
    y : (N, m) targets.
    alpha : L1 penalty weight, finite and >= 0.

    Returns
    -------
    A LassoFit. p is the (d, m) coefficient matrix fit on the centred
    columns and targets by cyclic coordinate descent from a ridge least-squares
    solution, and u[i] = mean(y[:, i]) - s . p[:, i] / N, s the column sums.
    A column has converged when the largest coefficient change in a sweep is
    below LASSO_TOL; it gives up after LASSO_MAX_SWEEPS sweeps.
    """
    x = _as_2d(x, "X")
    y = _as_2d(y, "Y")
    if not 0.0 <= alpha < np.inf:  # also refuses NaN
        raise ValueError(f"alpha {alpha!r} is not finite and non-negative")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if y.shape[0] != n:
        raise ValueError(f"row mismatch: X has {n} rows, Y has {y.shape[0]}")
    m = y.shape[1]

    y_mean = y.mean(axis=0)
    s = x.sum(axis=0, dtype=np.float64)
    g, c, yc = np.zeros((d, d)), np.zeros((d, m)), y - y_mean
    for rows, xb in row_blocks(x):
        g += xb.T @ xb
        c += xb.T @ yc[rows]
    g *= n  # the centred Gram (n g - s s^T) / n, rounded once, in place
    g -= np.outer(s, s)
    g /= n
    # a constant column centres to zero, but off +-1 its products need not cancel
    constant = np.ptp(x, axis=0) == 0
    g[constant] = g[:, constant] = 0.0
    diag = np.diag(g).tolist()
    np.fill_diagonal(g, np.add(diag, 1e-9 * max([1.0, *diag])))  # G + delta I: definite
    p = np.array(np.linalg.solve(g, c), order="F")  # the warm start; columns are views
    np.fill_diagonal(g, diag)
    p[np.diag(g) == 0.0] = 0.0  # constant columns: c_k / delta is rounding noise
    sweep = sweeps = 0
    converged = True
    for out in range(m):
        coef = p[:, out]
        c_out = c[:, out].tolist()
        q = g @ coef
        for sweep in range(1, LASSO_MAX_SWEEPS + 1):
            max_delta = 0.0
            for k in range(d):
                g_kk = diag[k]
                if g_kk == 0.0:
                    continue
                old = float(coef[k])
                rho = c_out[k] - float(q[k]) + g_kk * old
                new = _soft_threshold(rho, alpha / 2.0) / g_kk
                if new != old:
                    q += (new - old) * g[k]  # G is symmetric: row k is column k
                    coef[k] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < LASSO_TOL:
                break
        else:
            converged = False
        sweeps = max(sweeps, sweep)
    u = np.array([y_mean[i] - math.fsum(s * p[:, i]) / n for i in range(m)])
    return LassoFit(p, u, sweeps, converged, lasso_objective(x, y, p, u, alpha), diag.count(0.0))
