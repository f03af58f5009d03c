"""Fitting, regression and binning behaviour against independent oracles."""

import numpy as np
import pytest

from wcascade import stats
from wcascade.stats import (
    binned_conditional_variance,
    fit_cauchy,
    fit_normal,
    fit_student_t2,
    ols,
    pearson_correlation,
)


def sample_t2(rng, n, sigma=1.0):
    """Student-t (2 dof) samples through the closed-form quantile function."""
    u = 2.0 * rng.uniform(size=n) - 1.0
    return sigma * u * np.sqrt(2.0 / (1.0 - u * u))


def test_fit_cauchy_recovers_reference_scale():
    rng = np.random.default_rng(123)
    samples = 0.6 * rng.standard_cauchy(100_000)
    fit = fit_cauchy(samples)
    assert abs(fit.scale - 0.6) <= 0.05


def test_fit_cauchy_scale_equivariant():
    rng = np.random.default_rng(5)
    samples = rng.standard_cauchy(20_000)
    base = fit_cauchy(samples).scale
    scaled = fit_cauchy(3.7 * samples).scale
    # exact up to the 1e-8 relative tolerance of the scale search
    assert abs(scaled - 3.7 * base) <= 1e-6 * abs(3.7 * base)


def test_fit_cauchy_matches_ml_oracle():
    rng = np.random.default_rng(42)
    samples = 1.3 * rng.standard_cauchy(50_000)
    fit = fit_cauchy(samples)
    # independent maximum-likelihood grid search
    grid = np.linspace(0.5, 3.0, 2001)
    loglik = [
        np.sum(-np.log(np.pi * s) - np.log1p((samples / s) ** 2)) for s in grid
    ]
    ml = grid[int(np.argmax(loglik))]
    assert abs(fit.scale - ml) <= 0.1 * ml


def test_fit_t2_recovers_unit_scale():
    rng = np.random.default_rng(77)
    fit = fit_student_t2(sample_t2(rng, 100_000))
    assert abs(fit.scale - 1.0) <= 0.05


def test_fit_symmetric_under_sign_flip():
    rng = np.random.default_rng(8)
    samples = sample_t2(rng, 10_000, sigma=0.7)
    a = fit_student_t2(samples).scale
    b = fit_student_t2(-samples).scale
    assert abs(a - b) <= 1e-6 * a


def test_cauchy_data_prefers_cauchy_over_t2():
    rng = np.random.default_rng(3)
    samples = 0.8 * rng.standard_cauchy(80_000)
    assert fit_cauchy(samples).goodness < fit_student_t2(samples).goodness


def test_t2_data_prefers_t2_over_normal():
    rng = np.random.default_rng(4)
    samples = sample_t2(rng, 80_000)
    assert fit_student_t2(samples).goodness < fit_normal(samples).goodness


def test_normal_cdf_matches_scipy_reference(monkeypatch):
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-40.0, 40.0, 400_001)
    for scale in (0.37, 1.0, 2.5):
        gap = np.abs(stats._normal_cdf(x, scale) - special.ndtr(x / scale))
        assert gap.max() <= np.finfo(float).eps
    # the fit's golden-section search stops within its 1e-8 relative tolerance
    samples = 0.8 * np.random.default_rng(17).normal(size=50_000)
    fit = fit_normal(samples)
    monkeypatch.setattr(stats, "_normal_cdf", lambda x, scale: special.ndtr(x / scale))
    reference = fit_normal(samples)
    assert abs(fit.scale - reference.scale) <= 1e-7 * reference.scale


def test_fit_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_cauchy(np.ones(1000))
    with pytest.raises(ValueError):
        fit_cauchy(np.random.default_rng(0).normal(size=50))


def test_ols_exact_line():
    x = np.arange(10.0)
    fit = ols(x, 2.0 * x + 1.0)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.stderr_slope < 1e-12 and fit.stderr_intercept < 1e-12
    assert fit.adj_r2 == pytest.approx(1.0)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(21)
    x = rng.normal(size=200)
    y = 0.7 * x + 0.3 + rng.normal(scale=0.5, size=200)
    fit = ols(x, y)
    design = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    assert abs(fit.slope - coef[0]) < 1e-10
    assert abs(fit.intercept - coef[1]) < 1e-10
    # classical covariance oracle
    resid = y - design @ coef
    sigma2 = resid @ resid / (x.size - 2)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    assert abs(fit.stderr_slope - np.sqrt(cov[0, 0])) < 1e-10
    assert abs(fit.stderr_intercept - np.sqrt(cov[1, 1])) < 1e-10


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(22)
    x = rng.normal(size=500)
    y = -1.2 * x + rng.normal(size=500)
    fit = ols(x, y)
    resid = y - fit.slope * x - fit.intercept
    scale = np.linalg.norm(resid) * np.linalg.norm(x)
    assert abs(resid @ x) <= 1e-9 * scale
    assert abs(resid.sum()) <= 1e-9 * np.linalg.norm(resid) * np.sqrt(x.size)


def test_ols_adj_r2_can_be_negative():
    rng = np.random.default_rng(30)
    x = np.arange(20.0)
    y = rng.normal(size=20)  # no relation
    assert ols(x, y).adj_r2 < 1.0


def test_ols_rejects_degenerate():
    with pytest.raises(ValueError):
        ols(np.ones(10), np.arange(10.0))
    with pytest.raises(ValueError):
        ols(np.arange(2.0), np.arange(2.0))


def test_pearson_limits_and_null():
    x = np.arange(50.0)
    assert pearson_correlation(x, x) == pytest.approx(1.0)
    assert pearson_correlation(x, -x) == pytest.approx(-1.0)
    rng = np.random.default_rng(55)
    a, b = rng.normal(size=10_000), rng.normal(size=10_000)
    assert abs(pearson_correlation(a, b)) < 0.05
    with pytest.raises(ValueError):
        pearson_correlation(np.ones(10), x[:10])


def test_pearson_avoids_blas(monkeypatch):
    # BLAS splits a dot product by thread, so its last bits follow the CPU count
    def no_blas(*args, **kwargs):
        raise AssertionError("np.dot reached")

    monkeypatch.setattr(np, "dot", no_blas)
    rng = np.random.default_rng(56)
    a, b = rng.normal(size=100_000), rng.normal(size=100_000)
    da, db = a - a.mean(), b - b.mean()
    expected = np.sum(da * db) / (np.sqrt(np.sum(da**2)) * np.sqrt(np.sum(db**2)))
    assert pearson_correlation(a, b) == float(expected)


def test_binned_variance_homoskedastic():
    rng = np.random.default_rng(60)
    pred = rng.uniform(-3, 3, 100_000)
    succ = rng.normal(scale=np.sqrt(0.5), size=100_000)
    table = binned_conditional_variance(pred, succ, bin_width=0.5, min_count=100)
    assert int(table.bin_counts.sum()) == pred.size
    included = table.conditional_variances[table.included]
    assert np.max(np.abs(included - 0.5)) < 0.05


def test_binned_variance_recovers_quadratic_law():
    # successor = W * pred + eta with Var(W)=0.2, Var(eta)=0.3 and unit layer
    # spread: conditional variance should be 0.2 x^2 + 0.3 at bin centers
    rng = np.random.default_rng(61)
    n = 400_000
    pred = rng.uniform(-3, 3, n)
    succ = rng.normal(scale=np.sqrt(0.2), size=n) * pred + rng.normal(
        scale=np.sqrt(0.3), size=n
    )
    table = binned_conditional_variance(pred, succ, bin_width=0.2, min_count=100)
    expected = 0.2 * table.bin_centers**2 + 0.3
    rel = np.abs(table.conditional_variances - expected) / expected
    assert np.max(rel[table.included]) < 0.15
    assert np.median(rel[table.included]) < 0.05


def test_binned_variance_edge_rule():
    pred = np.array([0.0, 0.19, 0.2, -0.05, 100.0])
    succ = np.zeros(5)
    table = binned_conditional_variance(pred, succ, bin_width=0.2, min_count=1)
    # [0, 0.2) holds two, [0.2, 0.4) one, [-0.2, 0) one, [100, 100.2) one
    lookup = dict(zip(np.round(table.bin_centers, 10), table.bin_counts))
    assert lookup[0.1] == 2 and lookup[0.3] == 1 and lookup[-0.1] == 1
    assert int(table.bin_counts.sum()) == 5
