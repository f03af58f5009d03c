"""Panel pipeline, factor extraction and layer diagnostics."""

import json
import math
import warnings

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    NormalNoise,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
)
from wcascade.dwt import TimeSeries, dwt_forward, rescale
from wcascade.empirics import (
    ReturnPanel,
    accumulate_path,
    collapse_H,
    deseasonalize_returns,
    estimate_variances,
    extract_multipliers,
    multiplier_correlations,
)
from wcascade.stats import fit_normal, fit_student_t2

LN2 = math.log(2.0)
H_GRID = np.arange(0.0, 1.005, 0.01)


def build_panel(returns_by_day, n_issues=1, issue_fn=None, start="2008-01-02T09:00"):
    """Panel whose within-day returns reproduce ``returns_by_day`` exactly.

    ``returns_by_day`` is a list of per-day return vectors; each day gets
    one extra leading price row so nothing is lost to the overnight drop.
    """
    base = np.datetime64(start)
    stamps = []
    columns = [[] for _ in range(n_issues)]
    for day, deltas in enumerate(returns_by_day):
        day_base = base + np.timedelta64(day, "D")
        log_price = np.zeros(n_issues)
        stamps.append(day_base)
        for i in range(n_issues):
            columns[i].append(0.0)
        for k, delta in enumerate(deltas):
            stamps.append(day_base + np.timedelta64(k + 1, "m"))
            for i in range(n_issues):
                log_price[i] += delta if issue_fn is None else issue_fn(i, delta)
                columns[i].append(log_price[i])
    prices = np.exp(np.asarray(columns).T)
    return ReturnPanel(
        timestamps=np.asarray(stamps, dtype="datetime64[s]"),
        issues=[f"ISSUE{i}" for i in range(n_issues)],
        prices=prices,
    )


def test_single_issue_flat_profile_is_zscore():
    rng = np.random.default_rng(1)
    days = [rng.normal(size=64) for _ in range(40)]
    panel = build_panel(days)
    out = deseasonalize_returns(panel)
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-9


def test_identical_issues_average_to_single_issue():
    rng = np.random.default_rng(2)
    days = [rng.normal(size=32) for _ in range(30)]
    single = deseasonalize_returns(build_panel(days, n_issues=1))
    triple = deseasonalize_returns(build_panel(days, n_issues=3))
    assert np.allclose(single, triple, atol=1e-12)


def test_intraday_volatility_pattern_removed():
    rng = np.random.default_rng(3)
    n_days, minutes = 400, 64
    tod_sigma = 1.0 + 0.8 * np.cos(np.linspace(0, 2 * np.pi, minutes))
    days = [rng.normal(size=minutes) * tod_sigma for _ in range(n_days)]
    panel = build_panel(days)
    out = deseasonalize_returns(panel)
    per_tod = out.reshape(n_days, minutes).var(axis=0)
    assert per_tod.max() / per_tod.min() < 1.10


def test_sparse_time_of_day_bin_falls_back():
    rng = np.random.default_rng(4)
    days = [rng.normal(size=16) for _ in range(20)]
    days.append(rng.normal(size=17))  # one longer day: its last slot is unique
    panel = build_panel(days)
    with pytest.warns(UserWarning, match="sparse"):
        out = deseasonalize_returns(panel)
    assert np.all(np.isfinite(out))


def test_degenerate_prices_rejected():
    days = [np.zeros(16) for _ in range(10)]
    panel = build_panel(days)
    with pytest.raises(ValueError, match="degenerate"):
        deseasonalize_returns(panel)


def test_lagged_returns_drop_short_days():
    rng = np.random.default_rng(5)
    days = [rng.normal(size=16) for _ in range(12)]
    panel = build_panel(days)
    out = deseasonalize_returns(panel, dt=4)
    # 17 rows per day and lag 4 leave 13 return slots per day
    assert out.size == 12 * 13
    with pytest.raises(ValueError):
        deseasonalize_returns(panel, dt=0)


def test_accumulate_basic_and_truncation():
    assert np.array_equal(
        accumulate_path(np.ones(8)).values, np.arange(1.0, 9.0)
    )
    step = accumulate_path(np.array([0.0, 0.0, 1.0, 0.0])).values
    assert np.array_equal(step, [0.0, 0.0, 1.0, 1.0])
    rng = np.random.default_rng(6)
    deltas = rng.normal(size=1000)
    path = accumulate_path(deltas)
    # independent fold-left oracle on the most recent 512 increments
    total = 0.0
    expected = []
    for d in deltas[-512:]:
        total += d
        expected.append(total)
    assert np.array_equal(path.values, np.asarray(expected))


def test_extract_recovers_generator_draws():
    spec = CascadeSpec(
        depth=10, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=17
    )
    ms = extract_multipliers(synthesize_mixed(spec))
    # the synthesis stream: one factor block per layer, magnitudes then signs
    rng = np.random.Generator(np.random.Philox(key=17))
    law = spec.multiplier_law
    for t in ms.transitions:
        n = 2 * t.left.size
        w = np.exp(rng.normal(law.mean_log, math.sqrt(law.var_log), n))
        w *= rng.integers(0, 2, n) * 2.0 - 1.0
        assert np.all(t.valid)
        assert np.max(np.abs(t.left - w[0::2])) < 1e-12
        assert np.max(np.abs(t.right - w[1::2])) < 1e-12


def test_extract_masks_zero_parent():
    pyramid = rescale(
        dwt_forward(TimeSeries(np.zeros(8) + np.array([1, -1, 2, -2, 3, -3, 4, -4.0]))),
        "to_rescaled",
    )
    # force one parent to zero with nonzero children
    pyramid.layers[0][0] = 0.0
    ms = extract_multipliers(pyramid)
    t = ms.transition(1)
    assert not t.valid[0]
    assert np.isnan(t.left[0]) and np.isnan(t.right[0])
    assert np.all(np.isfinite(t.pooled))


def test_extract_requires_rescaled():
    pyramid = dwt_forward(TimeSeries(np.arange(16.0)))
    with pytest.raises(ValueError):
        extract_multipliers(pyramid)
    with pytest.raises(ValueError):
        estimate_variances(pyramid)
    with pytest.raises(ValueError):
        collapse_H(pyramid, H_GRID)


def test_mixed_ratios_prefer_heavy_tailed_family():
    var_log = 0.02 * LN2
    mean_log = (math.log(0.18) - 2 * var_log) / 2
    spec = CascadeSpec(
        depth=14,
        multiplier_law=SignedLognormal(mean_log, var_log),
        additive_law=NormalNoise(0.32),
        seed=31,
    )
    ms = extract_multipliers(synthesize_mixed(spec))
    for j in (11, 12, 13):
        pooled = ms.transition(j).pooled
        # heavy tails: far wider than a matching normal at the quartiles
        q01, q99 = np.quantile(pooled, [0.01, 0.99])
        iqr = np.subtract(*np.quantile(pooled, [0.75, 0.25]))
        assert (q99 - q01) / abs(iqr) > 6.0
        assert fit_student_t2(pooled).goodness < fit_normal(pooled).goodness


def test_pure_cascade_factor_correlations_vanish():
    spec = CascadeSpec(
        depth=14, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=23
    )
    pyramid = synthesize_mixed(spec)
    corr = multiplier_correlations(extract_multipliers(pyramid), pyramid)
    for row in corr.successive:
        if row.layer >= 12:
            assert abs(row.r) < 0.05
    for row in corr.parent_vs_factor:
        if row.layer >= 12:
            assert abs(row.r) < 0.05


def test_mixed_cascade_factor_correlations_negative():
    spec = CascadeSpec(
        depth=14,
        multiplier_law=SignedLognormal.from_log2(-0.33, 0.02),
        additive_law=NormalNoise(0.09),
        seed=23,
    )
    pyramid = synthesize_mixed(spec)
    corr = multiplier_correlations(extract_multipliers(pyramid), pyramid)
    successive = {row.layer: row.r for row in corr.successive}
    parent = {row.layer: row.r for row in corr.parent_vs_factor}
    for j in range(10, 14):
        assert successive[j] < -0.1
        assert parent[j] < -0.1


def test_deterministic_cascade_correlations_omitted():
    spec = CascadeSpec(
        depth=8, multiplier_law=PointMass(0.7, random_sign=False), seed=1
    )
    pyramid = synthesize_mixed(spec)
    with pytest.warns(UserWarning, match="constant factors"):
        corr = multiplier_correlations(extract_multipliers(pyramid), pyramid)
    assert corr.successive == []


def test_correlations_need_two_transitions():
    spec = CascadeSpec(depth=1, multiplier_law=PointMass(1.0), seed=1)
    pyramid = synthesize_mixed(spec)
    with pytest.raises(ValueError):
        multiplier_correlations(extract_multipliers(pyramid), pyramid)


def test_collapse_brownian_near_half():
    rng = np.random.default_rng(5)
    series = TimeSeries(np.cumsum(rng.normal(size=2**16)))
    pyramid = rescale(dwt_forward(series), "to_rescaled")
    result = collapse_H(pyramid, H_GRID)
    assert 0.45 <= result.h <= 0.55
    assert not result.boundary


@pytest.mark.parametrize("h_c", [0.2, 0.3, 0.5])
def test_collapse_recovers_monofractal_exponent(h_c):
    spec = CascadeSpec(depth=12, multiplier_law=PointMass(2.0**-h_c), seed=9)
    result = collapse_H(synthesize_mixed(spec), H_GRID)
    assert abs(result.h - h_c) <= 0.05


def test_collapse_boundary_flagged():
    spec = CascadeSpec(depth=10, multiplier_law=PointMass(2.0**-0.3), seed=9)
    pyramid = synthesize_mixed(spec)
    with pytest.warns(UserWarning, match="boundary"):
        result = collapse_H(pyramid, np.arange(0.45, 0.56, 0.01))
    assert result.boundary


def test_collapse_needs_three_wide_layers():
    spec = CascadeSpec(depth=7, multiplier_law=PointMass(2.0**-0.3), seed=9)
    pyramid = synthesize_mixed(spec)
    with pytest.raises(ValueError):
        collapse_H(pyramid, H_GRID)  # layers of 64+ coefficients: only 6,7


def test_variance_decomposition_recovery():
    var_log = 0.02 * LN2
    mean_log = (math.log(0.18) - 2 * var_log) / 2
    spec = CascadeSpec(
        depth=14,
        multiplier_law=SignedLognormal(mean_log, var_log),
        additive_law=NormalNoise(0.32),
        seed=7,
    )
    pyramid = synthesize_mixed(spec)
    fits = estimate_variances(pyramid)
    by_layer = {}
    for f in fits:
        by_layer.setdefault(f.parent_layer, []).append(f)
    for j in (12, 13):
        rows = by_layer[j]
        assert len(rows) == 2
        var_w = np.mean([r.var_w for r in rows])
        var_eta = np.mean([r.var_eta for r in rows])
        assert abs(var_w - 0.18) <= 0.05
        assert abs(var_eta - 0.32) <= 0.05
        for r in rows:
            assert abs(r.ratio_sq - 0.50) <= 0.05
            assert r.identity_residual <= 0.05


def test_variance_pure_cascade_has_no_additive_part():
    spec = CascadeSpec(
        depth=14, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=8
    )
    pyramid = synthesize_mixed(spec)
    for f in estimate_variances(pyramid):
        if f.parent_layer >= 12:
            assert f.var_eta < 0.05
            assert abs(f.var_w - f.ratio_sq) <= 0.1 * f.ratio_sq + 0.05


def test_variance_deterministic_cascade_is_zero():
    spec = CascadeSpec(
        depth=10, multiplier_law=PointMass(0.6, random_sign=False), seed=3
    )
    pyramid = synthesize_mixed(spec)
    fits = estimate_variances(pyramid)
    assert fits, "deterministic transitions should still be reported"
    for f in fits:
        assert f.var_w == 0.0 and f.var_eta == 0.0


def test_variance_table_schema(tmp_path):
    from wcascade.cli import _write_variances

    var_log = 0.02 * LN2
    spec = CascadeSpec(
        depth=12,
        multiplier_law=SignedLognormal((math.log(0.18) - 2 * var_log) / 2, var_log),
        additive_law=NormalNoise(0.32),
        seed=2,
    )
    fits = estimate_variances(synthesize_mixed(spec))
    assert fits
    _write_variances(tmp_path, fits)
    table = (tmp_path / "variance_table.csv").read_text().splitlines()
    assert table[0] == "Scale,side,a,b,Std a,Std b,Adj R2,Var(W),Var(eta)"
    assert table[1].split(",")[:2] == [str(fits[0].parent_layer), fits[0].side]
    rows = json.loads((tmp_path / "variances.json").read_text())
    assert list(rows[0]) == [
        "parent_layer", "side", "slope", "intercept", "stderr_slope", "stderr_intercept",
        "adj_r2", "var_w", "var_eta", "clamped", "ratio_sq", "identity_residual", "n_bins",
    ]
