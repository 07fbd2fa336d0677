"""Dense least squares and L1-penalized regression used by training.

least_squares is an SVD-based pseudoinverse (numpy lstsq with the max(N, L) *
eps singular-value cutoff). It gives the L1 fit its warm start and is the
test oracle of the readout, which training keeps as the growing triangle R
of a QR, without its basis (train.TrainState). The L1 solver minimizes

    sum_j (y_j - x_j . p)**2 + alpha * sum_k |p_k|

per output column, after removing the column-mean intercept. The residual
term is an unnormalized sum of squares, so the soft threshold for a
coordinate with squared column norm G_kk is alpha / (2 * G_kk).

It is cyclic coordinate descent in the covariance form of Friedman, Hastie
and Tibshirani (2010, "Regularization paths for generalized linear models
via coordinate descent", JSS 33(1)): G = X^T X and c = X^T y are formed
once and q = G p is kept up to date, so a coordinate step costs O(d), not
O(N). The sweeps start from the minimum-norm least-squares solution, not
from zero: with a small alpha against a sum over thousands of rows the
optimum lies close to least squares, while the strongly collinear
thermometer columns of the encoded inputs make descent from zero crawl for
thousands of sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 10_000


def _as_2d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def least_squares(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of H @ beta ~= T.

    Rank-revealing: singular values below max(N, L) * eps * sigma_max are
    treated as zero, so rank-deficient H is handled.
    """
    h = _as_2d(h, "H")
    t = _as_2d(t, "T")
    if h.shape[0] < 1 or h.shape[1] < 1:
        raise ValueError("H must have at least one row and one column")
    if t.shape[0] != h.shape[0]:
        raise ValueError(f"row mismatch: H has {h.shape[0]} rows, T has {t.shape[0]}")
    beta, *_ = np.linalg.lstsq(h, t, rcond=None)
    return beta


def lasso_objective(x: np.ndarray, y_centered: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Unnormalized L1 objective summed over output columns."""
    resid = y_centered - x @ p
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
    says every column met the tolerance within the sweep cap, and
    `objective` is lasso_objective at the returned coefficients.
    `constant_columns` counts the design columns with zero range; each one
    makes coordinate descent need many more sweeps.
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
    x : (N, d) design matrix (typically the +-1 view of encoded inputs).
    y : (N, m) targets.
    alpha : L1 penalty weight, >= 0.

    Returns
    -------
    A LassoFit: u[i] is the mean of y[:, i] and p is the (d, m) coefficient
    matrix fit on the mean-centered targets by cyclic coordinate descent from
    the least-squares solution. A column has converged when the largest
    coefficient change in a sweep is below LASSO_TOL; it gives up after
    LASSO_MAX_SWEEPS sweeps.
    """
    x = _as_2d(x, "X")
    y = _as_2d(y, "Y")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if y.shape[0] != n:
        raise ValueError(f"row mismatch: X has {n} rows, Y has {y.shape[0]}")
    m = y.shape[1]

    u = y.mean(axis=0)
    yc = y - u
    g = x.T @ x
    c = x.T @ yc
    diag = np.diag(g).tolist()
    p = np.array(least_squares(x, yc), order="F")  # warm start; columns are views
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
    constant = int(np.count_nonzero(np.ptp(x, axis=0) == 0))
    return LassoFit(p, u, sweeps, converged, lasso_objective(x, yc, p, alpha), constant)
