import numpy as np
import pytest

from scmfpga import linalg
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.linalg import LASSO_MAX_SWEEPS, lasso_fit, lasso_objective, least_squares
from scmfpga.mechanism import signals_pm1


def test_identity_design():
    t = np.array([[1.0], [2.0], [3.0]])
    beta = least_squares(np.eye(3), t)
    assert np.allclose(beta, t, atol=1e-12)


def test_mean_as_fit():
    h = np.ones((3, 1))
    t = np.array([[1.0], [2.0], [3.0]])
    beta = least_squares(h, t)
    assert np.allclose(beta, [[2.0]], atol=1e-12)


def test_matches_normal_equations():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(8, 4))
    t = rng.normal(size=(8, 2))
    beta = least_squares(h, t)
    oracle = np.linalg.solve(h.T @ h, h.T @ t)
    assert np.max(np.abs(beta - oracle)) < 1e-9


def test_rank_deficient_ok():
    h = np.ones((5, 3))  # rank 1
    t = np.arange(5.0)[:, None]
    beta = least_squares(h, t)
    resid = np.linalg.norm(h @ beta - t)
    oracle = np.linalg.norm(np.ones(5) * 2.0 - np.arange(5.0))
    assert resid <= oracle + 1e-12


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        least_squares(np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        least_squares(np.array([[1.0]]), np.array([[np.inf]]))


def test_residual_beats_perturbations():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(20, 5))
    t = rng.normal(size=(20, 2))
    beta = least_squares(h, t)
    best = np.linalg.norm(h @ beta - t)
    for _ in range(100):
        delta = rng.normal(scale=1e-3, size=beta.shape)
        assert best <= np.linalg.norm(h @ (beta + delta) - t) + 1e-12


# -- L1 fit ------------------------------------------------------------


def test_lasso_zero_penalty_is_ols():
    rng = np.random.default_rng(11)
    x = rng.choice([-1.0, 1.0], size=(40, 6))
    y = rng.normal(size=(40, 2))
    fit = lasso_fit(x, y, alpha=0.0)
    p, u = fit.p, fit.u
    yc = y - y.mean(axis=0)
    ols = least_squares(x, yc)
    assert np.allclose(u, y.mean(axis=0), atol=1e-12)
    assert np.max(np.abs(p - ols)) < 1e-6


def test_lasso_soft_threshold_closed_form():
    rng = np.random.default_rng(5)
    n = 64
    x = rng.normal(size=n)
    x = (x - x.mean()) / x.std()  # sum of squares is exactly n
    y = 0.6 * x + rng.normal(scale=0.3, size=n)
    y = (y - y.mean()) / y.std()
    rho = float(x @ y) / n  # correlation of the standardized pair
    for alpha in (0.0, 1.0, 10.0, 2 * n * abs(rho), 4 * n * abs(rho)):
        p = lasso_fit(x[:, None], y[:, None], alpha).p
        # unnormalized objective: threshold is alpha / (2 * sum x^2)
        expected = np.sign(rho) * max(abs(rho) - alpha / (2 * n), 0.0)
        assert abs(p[0, 0] - expected) < 1e-9


def test_lasso_duplicate_columns_brute_force():
    rng = np.random.default_rng(9)
    n = 16
    c = np.ones(n)
    x = np.column_stack([c, c])
    y = rng.normal(loc=0.4, size=(n, 1))
    alpha = 0.5
    fit = lasso_fit(x, y, alpha)
    p, u = fit.p, fit.u
    single = lasso_fit(c[:, None], y, alpha).p
    # cyclic order puts all the weight on the first column
    assert abs(p[:, 0].sum() - single[0, 0]) < 1e-9
    assert p[1, 0] == 0.0
    # brute-force grid oracle over both coefficients
    yc = y - u
    grid = np.linspace(-1.0, 1.0, 401)
    best = min(
        lasso_objective(x, yc, np.array([[a], [b]]), alpha)
        for a in grid
        for b in grid
    )
    assert lasso_objective(x, yc, p, alpha) <= best + 1e-9


def test_lasso_objective_not_worse_than_baselines():
    rng = np.random.default_rng(13)
    x = rng.choice([-1.0, 1.0], size=(30, 5))
    y = rng.normal(size=(30, 1))
    alpha = 0.7
    fit = lasso_fit(x, y, alpha)
    p, u = fit.p, fit.u
    yc = y - u
    ols = least_squares(x, yc)
    obj = lasso_objective(x, yc, p, alpha)
    assert obj <= lasso_objective(x, yc, ols, alpha) + 1e-9
    assert obj <= lasso_objective(x, yc, np.zeros_like(p), alpha) + 1e-9


def test_lasso_invalid_inputs():
    x = np.ones((4, 2))
    y = np.ones((4, 1))
    with pytest.raises(ValueError):
        lasso_fit(x, y, alpha=-1.0)
    with pytest.raises(ValueError):
        lasso_fit(x[:1], y[:1], alpha=0.1)
    with pytest.raises(ValueError):
        lasso_fit(x * np.nan, y, alpha=0.1)


def test_lasso_large_alpha_kills_coefficients():
    rng = np.random.default_rng(17)
    x = rng.choice([-1.0, 1.0], size=(25, 4))
    y = rng.normal(size=(25, 1))
    fit = lasso_fit(x, y, alpha=1e6)
    p, u = fit.p, fit.u
    assert np.all(p == 0.0)
    assert np.allclose(u, y.mean(axis=0))


def _cold_lasso(x, yc, alpha, tol=1e-8, max_sweeps=LASSO_MAX_SWEEPS):
    """Reference: cyclic coordinate descent from zero on the full residual."""
    n, d = x.shape
    col_sq = np.einsum("ij,ij->j", x, x)
    p = np.zeros((d, yc.shape[1]))
    for out in range(yc.shape[1]):
        coef = p[:, out]
        resid = yc[:, out].copy()
        for _ in range(max_sweeps):
            max_delta = 0.0
            for k in range(d):
                if col_sq[k] == 0.0:
                    continue
                old = coef[k]
                rho = x[:, k] @ resid + col_sq[k] * old
                new = np.sign(rho) * max(abs(rho) - alpha / 2.0, 0.0) / col_sq[k]
                if new != old:
                    resid -= (new - old) * x[:, k]
                    coef[k] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < tol:
                break
    return p


def _designs():
    rng = np.random.default_rng(21)
    plain = rng.choice([-1.0, 1.0], size=(80, 10))
    constant = plain.copy()
    constant[:, 3] = 1.0
    deficient = plain.copy()
    deficient[:, 5] = deficient[:, 1]
    deficient[:, 7] = -deficient[:, 2]
    deficient[:, 9] = 1.0
    for name, x in [("plain", plain), ("constant", constant), ("deficient", deficient)]:
        y = x[:, :4] @ rng.normal(size=(4, 2)) + rng.normal(scale=0.3, size=(80, 2))
        yield name, x, y


def test_lasso_counts_constant_columns():
    expected = {"plain": 0, "constant": 1, "deficient": 1}
    for name, x, y in _designs():
        assert lasso_fit(x, y, 1e-4).constant_columns == expected[name], name


@pytest.mark.parametrize("alpha", [1e-4, 0.5, 5.0])
def test_lasso_warm_start_objective_not_above_cold_start(alpha):
    for name, x, y in _designs():
        fit = lasso_fit(x, y, alpha)
        yc = y - y.mean(axis=0)
        cold = lasso_objective(x, yc, _cold_lasso(x, yc, alpha), alpha)
        assert fit.converged, name
        assert fit.objective == lasso_objective(x, yc, fit.p, alpha)
        assert fit.objective <= cold + 1e-9 * abs(cold), name


def test_lasso_reports_the_sweep_cap(monkeypatch):
    x = np.column_stack([np.ones(20), np.tile([1.0, -1.0], 10)])
    x = np.column_stack([x, x[:, 1]])  # collinear, so one sweep does not settle
    y = np.linspace(-1.0, 1.0, 20)[:, None] + x[:, 1:2]
    full = lasso_fit(x, y, alpha=0.1)
    assert full.converged and 1 < full.sweeps < LASSO_MAX_SWEEPS
    # the cap is read at call time
    monkeypatch.setattr(linalg, "LASSO_MAX_SWEEPS", 1)
    capped = lasso_fit(x, y, alpha=0.1)
    assert (capped.sweeps, capped.converged) == (1, False)


def test_lasso_converges_on_a_wide_collinear_design():
    # 36 features in s2v1 (16 bits each): 576 thermometer columns of rank < 576
    rng = np.random.default_rng(36)
    x = rng.uniform(size=(2000, 36))
    y = np.sin(3.0 * x).mean(axis=1, keepdims=True) + rng.normal(scale=0.01, size=(2000, 1))
    bits, d_enc = encode_matrix(x, parse_encoding("s2v1"))
    s = signals_pm1(bits)
    assert d_enc == 576 and np.linalg.matrix_rank(s) < d_enc
    fit = lasso_fit(s, y, alpha=1e-4)
    assert fit.converged and fit.sweeps < LASSO_MAX_SWEEPS
