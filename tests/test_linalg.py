import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scmfpga import linalg
from scmfpga.encoding import encode_matrix, parse_encoding
from scmfpga.linalg import (BLOCK_ROWS, LASSO_MAX_SWEEPS, LASSO_TOL, lasso_fit, lasso_objective,
                            least_squares)
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


def _intercept(x, y, p):
    """The best intercepts for coefficients p: mean(y) - mean(x) . p."""
    return y.mean(axis=0) - x.mean(axis=0) @ p


def test_lasso_zero_penalty_is_ols():
    rng = np.random.default_rng(11)
    x = rng.choice([-1.0, 1.0], size=(40, 6))
    y = rng.normal(size=(40, 2))
    fit = lasso_fit(x, y, alpha=0.0)
    p, u = fit.p, fit.u
    ols = least_squares(x - x.mean(axis=0), y - y.mean(axis=0))
    assert np.allclose(u, _intercept(x, y, ols), atol=1e-12)
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
    c = rng.choice([-1.0, 1.0], size=n)
    assert np.ptp(c) > 0  # a constant column would fit p = 0 whatever the solver does
    x = np.column_stack([c, c])
    y = 0.4 + 0.6 * c[:, None] + rng.normal(scale=0.5, size=(n, 1))
    alpha = 0.5
    fit = lasso_fit(x, y, alpha)
    p, u = fit.p, fit.u
    single = lasso_fit(c[:, None], y, alpha)
    # the optimum is not unique: the warm start splits the weight between the
    # copies, and the sweeps keep the split's sum at the single column's fit
    # with one sign, so the L1 term and the objective are the single column's
    assert single.p[0, 0] > 0.1 and p[0, 0] * p[1, 0] >= 0.0
    assert abs(p[:, 0].sum() - single.p[0, 0]) < 1e-9
    assert abs(u[0] - single.u[0]) < 1e-9
    # brute-force grid oracle over both coefficients, each with its best
    # intercept: the centred objective
    grid = np.linspace(-1.0, 1.0, 401)
    q = np.array(np.meshgrid(grid, grid)).reshape(2, -1)
    resid = (y - y.mean(axis=0)) - (x - x.mean(axis=0)) @ q
    best = float(np.min(np.sum(resid * resid, axis=0) + alpha * np.abs(q).sum(axis=0)))
    assert lasso_objective(x, y, p, u, alpha) <= best + 1e-9


def test_lasso_objective_not_worse_than_baselines():
    rng = np.random.default_rng(13)
    x = rng.choice([-1.0, 1.0], size=(30, 5))
    y = rng.normal(size=(30, 1))
    alpha = 0.7
    fit = lasso_fit(x, y, alpha)
    obj = lasso_objective(x, y, fit.p, fit.u, alpha)
    for base in (least_squares(x - x.mean(axis=0), y - y.mean(axis=0)), np.zeros_like(fit.p)):
        assert obj <= lasso_objective(x, y, base, _intercept(x, y, base), alpha) + 1e-9


def test_lasso_invalid_inputs():
    x = np.ones((4, 2))
    y = np.ones((4, 1))
    # NaN gave p = 0 with a NaN objective, and inf a RuntimeWarning from inf * 0
    for alpha in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            lasso_fit(x, y, alpha)
    with pytest.raises(ValueError):
        lasso_fit(x[:1], y[:1], alpha=0.1)
    with pytest.raises(ValueError):
        lasso_fit(x * np.nan, y, alpha=0.1)


def test_an_integer_design_is_checked_without_a_copy():
    # np.isfinite of the wide shape's 3200 x 576 int8 signals made a bool
    # temporary as large as the design on every fit
    s = np.ones((3200, 576), np.int8)
    tracemalloc.start()
    try:
        checked = linalg._as_2d(s, "X")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert checked is s and peak < s.nbytes / 8


@pytest.mark.parametrize("d", [0, 3])
def test_lasso_fits_a_design_without_live_columns(d):
    # no columns at all, or only constant ones: the intercepts are the means
    x = np.ones((5, d))
    y = np.arange(10.0).reshape(5, 2)
    fit = lasso_fit(x, y, 1e-4)
    assert fit.p.shape == (d, 2) and np.all(fit.p == 0.0) and fit.constant_columns == d
    assert np.array_equal(fit.u, y.mean(axis=0)) and fit.converged


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    extra_rows=st.integers(1, 40),
    m=st.integers(1, 2),
    constant=st.booleans(),
    duplicate=st.sampled_from([0, 1, -1]),
    alpha=st.sampled_from([1e-4, 1e-2]),
)
def test_lasso_meets_the_kkt_conditions(seed, d, extra_rows, m, constant, duplicate, alpha):
    # the optimum has |c - G p|_k <= alpha / 2 on every non-constant column k,
    # with equality and the sign of p_k on the support. Each step meets its
    # own coordinate's condition exactly; the later steps of the last sweep,
    # each under LASSO_TOL, then move (G p)_k by at most LASSO_TOL * |G_k|_1.
    # That, plus 1e-12 for the rounding of G and of the running G p, is tol.
    # The draws have N > 2d rows and full rank but for the planted constant
    # and duplicated columns: other dependent columns can make descent crawl
    # (6 rows of 5 columns of centred rank 4 ran to the 10000-sweep cap)
    rng = np.random.default_rng(seed)
    n = 2 * d + extra_rows
    x = rng.choice(np.array([-1, 1], np.int8), size=(n, d))
    assume(np.linalg.matrix_rank(x - x.mean(axis=0)) == d)
    if constant:
        x[:, rng.integers(d)] = rng.choice([-1, 1])
    if duplicate and d > 1:  # a copy or a negated copy: G is singular
        i, j = rng.choice(d, size=2, replace=False)
        x[:, j] = duplicate * x[:, i]
    y = x @ (rng.normal(size=(d, m)) * (rng.random((d, 1)) < 0.5))  # a sparse truth
    y += rng.normal(scale=0.3, size=(n, m))
    fit = lasso_fit(x, y, alpha)
    assert fit.converged
    xc = x - x.mean(axis=0)
    g = xc.T @ xc
    grad = xc.T @ (y - y.mean(axis=0)) - g @ fit.p
    tol = LASSO_TOL * np.abs(g).sum(axis=1, keepdims=True) + 1e-12
    live = np.ptp(x, axis=0) > 0
    assert np.all(fit.p[~live] == 0.0)
    assert np.all((np.abs(grad) <= alpha / 2 + tol)[live])
    support = fit.p != 0.0
    assert np.all((np.abs(grad - alpha / 2 * np.sign(fit.p)) <= tol)[support])


def test_lasso_large_alpha_kills_coefficients():
    rng = np.random.default_rng(17)
    x = rng.choice([-1.0, 1.0], size=(25, 4))
    y = rng.normal(size=(25, 1))
    fit = lasso_fit(x, y, alpha=1e6)
    p, u = fit.p, fit.u
    assert np.all(p == 0.0)
    assert np.allclose(u, y.mean(axis=0))


def _cold_lasso(x, yc, alpha, tol=1e-8, max_sweeps=LASSO_MAX_SWEEPS):
    """Reference: cyclic coordinate descent from zero on the full residual.

    Callers pass centred columns and targets, the problem lasso_fit solves.
    """
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


@pytest.mark.parametrize("alpha", [0.0, 1e-4])
def test_lasso_gives_a_constant_column_off_the_integers_weight_0(alpha):
    # N x^T x - s s^T cancels exactly on +-1 entries but not on 0.3, which
    # left the column a rounding-noise diagonal and a weight of -0.0266
    rng = np.random.default_rng(0)
    x = rng.choice([-1.0, 1.0], size=(100, 4))
    x[:, 2] = 0.3
    y = rng.normal(size=(100, 1))
    fit = lasso_fit(x, y, alpha)
    assert fit.constant_columns == 1 and fit.p[2, 0] == 0.0
    rest = lasso_fit(x[:, [0, 1, 3]], y, alpha)
    # the other weights are those of the fit without the column, to rounding
    assert np.max(np.abs(fit.p[[0, 1, 3]] - rest.p)) < 1e-12
    assert np.max(np.abs(fit.u - rest.u)) < 1e-12


@pytest.mark.parametrize("alpha", [1e-4, 0.5, 5.0])
def test_lasso_warm_start_objective_not_above_cold_start(alpha):
    for name, x, y in _designs():
        fit = lasso_fit(x, y, alpha)
        p_cold = _cold_lasso(x - x.mean(axis=0), y - y.mean(axis=0), alpha)
        cold = lasso_objective(x, y, p_cold, _intercept(x, y, p_cold), alpha)
        assert fit.converged, name
        assert fit.objective == lasso_objective(x, y, fit.p, fit.u, alpha)
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


def _wide_s2v1_shape():
    """36 features in s2v1 (576 bits) over 3200 rows rounded to 3 places, and a smooth target."""
    rng = np.random.default_rng(1)
    x = np.round(rng.uniform(size=(3200, 36)), 3)
    y = (np.sin(3.0 * x[:, :1]) + x[:, 1:2] * x[:, 2:3] + 0.5 * np.cos(2.0 * x[:, 3:4])) / 3.0
    bits, d_enc = encode_matrix(x, parse_encoding("s2v1"))
    return bits, d_enc, y


def test_lasso_fits_the_wide_s2v1_shape_in_few_sweeps():
    # constant columns included: on uncentred columns this took about 5000
    # sweeps; sweeps do not depend on timing
    bits, d_enc, y = _wide_s2v1_shape()
    fit = lasso_fit(signals_pm1(bits), y, alpha=1e-4)
    assert d_enc == 576 and fit.constant_columns > 0
    assert fit.converged and fit.sweeps <= 100


def test_lasso_holds_few_gram_sized_arrays_at_once():
    # a float64 576 x 576 Gram is 2.5 MiB, and the int8 design rows come in
    # float64 blocks of BLOCK_ROWS; centring the Gram out of place held about
    # 3.3 Grams at once, in place about 2.5
    bits, d_enc, y = _wide_s2v1_shape()
    s = signals_pm1(bits, np.int8)
    tracemalloc.start()
    try:
        lasso_fit(s, y, alpha=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.shape == (3200, 576) and s.dtype == np.int8
    assert peak < 2.75 * d_enc * d_enc * 8


def test_lasso_gives_the_same_fit_on_int8_and_float64_signals():
    # two outputs over more rows than one block; column 0 is constant and
    # column 1 is +1 on most rows, so int8 column sums would wrap
    rng = np.random.default_rng(30)
    n = 2 * BLOCK_ROWS + 37
    s8 = rng.choice(np.array([-1, 1], np.int8), size=(n, 8))
    s8[:, 0] = 1
    s8[:, 1] = 1
    s8[:50, 1] = -1
    assert np.count_nonzero(s8[:, 1] == 1) > 127
    assert s8[:, 1].sum(dtype=np.int8) != n - 100
    y = s8[:, 1:5] @ rng.normal(size=(4, 2)) + rng.normal(scale=0.3, size=(n, 2))
    s64 = s8.astype(np.float64)
    for alpha in (0.0, 1e-4, 0.5):
        got, want = lasso_fit(s8, y, alpha), lasso_fit(s64, y, alpha)
        assert np.array_equal(got.p, want.p) and np.array_equal(got.u, want.u)
        assert (got.sweeps, got.converged, got.objective, got.constant_columns) == \
            (want.sweeps, want.converged, want.objective, want.constant_columns)
        assert got.constant_columns == 1
        assert lasso_objective(s8, y, got.p, got.u, alpha) == got.objective
