"""Panel pipeline, factor extraction and layer diagnostics."""

import csv
import dataclasses
import json
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    NormalNoise,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
)
from wcascade import empirics, threads
from wcascade.dwt import TimeSeries, WaveletPyramid, dwt_forward
from wcascade.empirics import (
    ReturnPanel,
    accumulate_path,
    collapse_H,
    deseasonalize_returns,
    estimate_variances,
    extract_multipliers,
    load_panel_csv,
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


def masking_loop_deseasonalize(panel, dt):
    """The per-slot masking form of ``deseasonalize_returns``, kept as a reference."""
    log_prices = np.log(panel.prices)
    days = panel.timestamps.astype("datetime64[D]")
    starts = np.concatenate([[0], np.flatnonzero(days[1:] != days[:-1]) + 1])
    ends = np.concatenate([starts[1:], [panel.timestamps.size]])
    slots = np.concatenate([np.arange(a + dt, b) for a, b in zip(starts, ends) if b - a > dt])
    returns = log_prices[slots] - log_prices[slots - dt]
    tod = (panel.timestamps - days).astype("timedelta64[m]").astype(np.int64)[slots]
    averaged = np.zeros(slots.size)
    for i in range(len(panel.issues)):
        r = returns[:, i]
        global_std = float(r.std())
        profile = np.empty(slots.size)
        for v in np.unique(tod):
            mask = tod == v
            obs = r[mask]
            sigma = float(obs.std()) if obs.size >= 2 else 0.0
            profile[mask] = sigma if sigma != 0.0 else global_std
        normalized = r / profile
        averaged += (normalized - normalized.mean()) / float(normalized.std())
    return averaged / len(panel.issues)


def test_deseasonalize_bit_equal_to_masking_loop():
    rng = np.random.default_rng(8)
    # uneven days; the one 30-minute day leaves its last slots sparse
    days = [rng.normal(size=18 + day % 5) for day in range(40)] + [rng.normal(size=30)]
    panel = build_panel(days, n_issues=3, issue_fn=lambda i, d: d * (1 + i) + 0.01 * i)
    for dt in (1, 4):
        with pytest.warns(UserWarning, match="sparse"):
            out = deseasonalize_returns(panel, dt=dt)
        assert np.array_equal(out, masking_loop_deseasonalize(panel, dt))


def test_one_comparison_slots_match_the_per_day_reference():
    rng = np.random.default_rng(12)
    # for dt = 2: days of 1 and 2 rows give no slot, a 3-row day gives exactly one
    sizes = [1, 2, 3, 9, 3, 2, 12, 1, 9, 3, 7]
    stamps = []
    for day, size in enumerate(sizes):
        minutes = np.sort(rng.choice(20, size, replace=False))  # minutes go missing
        day_start = np.datetime64("2008-01-02T09:30", "s") + np.timedelta64(day, "D")
        stamps += [day_start + np.timedelta64(int(m), "m") for m in minutes]
    log_prices = np.cumsum(0.01 * rng.standard_normal((len(stamps), 2)), axis=0)
    panel = ReturnPanel(timestamps=np.array(stamps), issues=["A", "B"], prices=np.exp(log_prices))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sparse time-of-day bins
        for dt in (1, 2, 3):
            out = deseasonalize_returns(panel, dt=dt)
            assert np.array_equal(out, masking_loop_deseasonalize(panel, dt))
    for dt in (12, len(stamps) - 1, len(stamps), len(stamps) + 5):
        with pytest.raises(ValueError, match="no day is longer than the return lag"):
            deseasonalize_returns(panel, dt=dt)


def panel_csv(path, n_issues, seed):
    """A panel file of uneven days; read back, its prices are a strided view into the rows."""
    rng = np.random.default_rng(seed)
    lines = ["timestamp," + ",".join(f"I{i}" for i in range(n_issues))]
    log_prices = np.log(rng.uniform(20.0, 200.0, n_issues))
    for day in range(30):
        for minute in range(40 if day == 29 else 20 + day % 7):  # a sparse last day
            log_prices += 1e-3 * (1 + minute % 3) * rng.standard_normal(n_issues)
            stamp = np.datetime64("2010-01-04T09:30") + np.timedelta64(day * 1440 + minute, "m")
            lines.append(f"{stamp}," + ",".join(map(repr, np.exp(log_prices).tolist())))
    return load_panel_csv(write_rows(path, lines))


def test_deseasonalize_read_panel_bit_equal_to_masking_loop(tmp_path):
    panel = panel_csv(tmp_path / "panel.csv", n_issues=5, seed=10)
    assert not panel.prices.flags.c_contiguous
    for dt in (1, 3):
        with pytest.warns(UserWarning, match="sparse"):
            out = deseasonalize_returns(panel, dt=dt)
        assert np.array_equal(out, masking_loop_deseasonalize(panel, dt))


def test_deseasonalize_holds_a_few_columns_not_the_panel(tmp_path):
    panel = panel_csv(tmp_path / "panel.csv", n_issues=40, seed=11)
    column_bytes = panel.prices.nbytes // 40
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            deseasonalize_returns(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # whole-panel log and return arrays would peak near 3 * panel.prices.nbytes
    assert peak < 16 * column_bytes, peak / column_bytes


def write_rows(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def csv_reader_panel(path):
    """Stamps and prices of a panel read row by row with ``csv.reader``, kept as a reference."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    stamps = [row[0].strip().replace(" ", "T") for row in rows]
    prices = [[float(v) for v in row[1:]] for row in rows]
    return np.array(stamps, dtype="datetime64[s]"), np.array(prices)


# numpy reads a stamp's trailing blank as a timezone and warns; the value is unchanged
@pytest.mark.filterwarnings("ignore:no explicit representation of timezones:UserWarning")
def test_load_panel_fast_path_matches_row_reader(tmp_path):
    rng = np.random.default_rng(9)
    lines = ["timestamp, A ,B"]
    for k in range(50):
        a, b = rng.uniform(10, 200, 2).tolist()
        stamp = f"2009-05-0{1 + k // 25} 10:{k % 25:02d}:00"
        lines.append(f" {stamp} ,{a!r},\"{b!r}\"")
        if k == 20:
            lines.append("")  # blank lines are skipped
    path = write_rows(tmp_path / "panel.csv", lines)
    stamps, prices = csv_reader_panel(path)
    panel = load_panel_csv(path)
    assert panel.issues == ["A", "B"]
    assert np.array_equal(panel.prices, prices)
    assert np.array_equal(panel.timestamps, stamps)


@pytest.mark.parametrize(
    "header, first_price",
    [
        ('timestamp,"A,1",B', "1000.5"),  # the header's quoted comma is one name
        ("timestamp,A,B", "1_000.5"),  # float() reads it, numpy does not
        ('timestamp,"A,1",B', "1_000.5"),
    ],
)
def test_load_panel_row_reader_reads_what_numpy_refuses(tmp_path, header, first_price):
    lines = [header, f"2009-05-01 10:00:00,{first_price},2.0", "",
             "2009-05-01 10:01:00,3.0,4.25"]
    path = write_rows(tmp_path / "panel.csv", lines)
    if "_" in first_price:
        with pytest.raises(ValueError, match="^line 2: cannot parse price '1_000.5'$"):
            load_panel_csv(path)
        return
    panel = load_panel_csv(path)
    assert panel.issues == ["A,1", "B"]
    assert np.array_equal(panel.prices, [[1000.5, 2.0], [3.0, 4.25]])
    assert np.array_equal(
        panel.timestamps,
        np.array(["2009-05-01T10:00:00", "2009-05-01T10:01:00"], dtype="datetime64[s]"),
    )


@pytest.mark.parametrize(
    "row, message",
    [
        ("2009-05-01T10:02:00,12x,3.0", "line 4: cannot parse price '12x'"),
        # float() reads full-width digits, numpy does not
        ("2009-05-01T10:02:00,\uff11\uff10\uff11,3.0",
         "line 4: cannot parse price '\uff11\uff10\uff11'"),
        ("2009-05-01T10:02:00,3.0", "row 4 has 2 fields, expected 3"),
        ("2009-05-01T10:02:00,3.0,4.0,", "row 4 has 4 fields, expected 3"),
        ("2009-05-01T10:02:00,3.0,nan", "line 4: price 'nan' is not finite and positive"),
        ("2009-05-01T10:02:00,inf,3.0", "line 4: price 'inf' is not finite and positive"),
        ("2009-05-01T10:02:00,0,3.0", "line 4: price '0' is not finite and positive"),
        ("2009-05-01T10:02:00,-1.0,3.0", "line 4: price '-1.0' is not finite and positive"),
        ("2009-13-45T10:01:00,1.0,2.0", "line 4: cannot parse timestamp '2009-13-45T10:01:00'"),
        # an empty stamp parses to NaT
        (",1.0,2.0", "line 4: cannot parse timestamp ''"),
        ("2009-05-01T10:00:00,1.0,2.0",
         "line 4: timestamp '2009-05-01T10:00:00' is not after line 2"),
        # after 10:04, the next row's 10:03 is out of order
        ("2009-05-01T10:04:00,1.0,2.0",
         "line 5: timestamp '2009-05-01T10:03:00' is not after line 4"),
    ],
)
def test_load_panel_names_the_bad_line(tmp_path, row, message):
    lines = ["timestamp,A,B", "2009-05-01T10:00:00,1.0,2.0", "", row,
             "2009-05-01T10:03:00,1.0,2.0"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_panel_csv(write_rows(tmp_path / "panel.csv", lines))


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
    pyramid = dwt_forward(TimeSeries(np.zeros(8) + np.array([1, -1, 2, -2, 3, -3, 4, -4.0])))
    # force one parent to zero with nonzero children
    pyramid.layers[0][0] = 0.0
    ms = extract_multipliers(pyramid)
    t = ms.transitions[1]
    assert not t.valid[0]
    assert np.isnan(t.left[0]) and np.isnan(t.right[0])
    assert np.all(np.isfinite(t.pooled))


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
        pooled = ms.transitions[j].pooled
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


def caught_messages(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def test_layers_too_small_for_a_row_are_skipped_silently():
    spec = CascadeSpec(
        depth=12,
        multiplier_law=SignedLognormal.from_log2(-0.33, 0.02),
        additive_law=NormalNoise(0.09),
        seed=42,
    )
    pyramid = synthesize_mixed(spec)
    ms = extract_multipliers(pyramid)
    corr, messages = caught_messages(multiplier_correlations, ms, pyramid)
    assert messages == []
    # 2**(j+1) pairs reach 30 from layer 4 on
    assert [r.layer for r in corr.parent_vs_factor] == list(range(4, 12))
    assert [r.layer for r in corr.successive] == list(range(4, 12))
    # layers that could qualify but lose pairs to masking still warn: 20 of
    # layer 5's 32 coefficients set to zero leave 12 factors into it and
    # 24 out of it
    pyramid.layers[4][:20] = 0.0
    _, messages = caught_messages(
        multiplier_correlations, extract_multipliers(pyramid), pyramid
    )
    assert messages == [
        f"{kind} at layer {j}: only {n} valid pairs (< 30); omitted"
        for j, n in ((4, 12), (5, 24))
        for kind in ("parent-vs-factor", "successive-factor")
    ]


def test_variance_sides_too_small_for_three_bins_are_skipped_silently():
    spec = CascadeSpec(
        depth=12,
        multiplier_law=SignedLognormal.from_log2(-0.33, 0.02),
        additive_law=NormalNoise(0.09),
        seed=42,
    )
    fits, messages = caught_messages(estimate_variances, synthesize_mixed(spec))
    # 256 children per side cannot fill 3 bins of 100; 512 could
    assert not any("8->9" in m for m in messages)
    assert any("9->10" in m for m in messages)
    assert min(f.parent_layer for f in fits) > 8
    # a deterministic transition is still reported as zero variances
    parents = np.tile([1.0, -1.0], 128)
    layers = [np.ones(2**j) for j in range(1, 8)] + [parents, np.repeat(0.7 * parents, 2)]
    pyramid = WaveletPyramid(depth=9, root_approx=0.0, root_detail=1.0, layers=layers)
    fits, messages = caught_messages(estimate_variances, pyramid)
    assert messages == []
    assert [(f.parent_layer, f.side, f.var_w, f.var_eta) for f in fits] == [
        (8, "left", 0.0, 0.0), (8, "right", 0.0, 0.0),
    ]


def test_correlations_need_two_transitions():
    spec = CascadeSpec(depth=1, multiplier_law=PointMass(1.0), seed=1)
    pyramid = synthesize_mixed(spec)
    with pytest.raises(ValueError):
        multiplier_correlations(extract_multipliers(pyramid), pyramid)


def merge_reference_distances(pyramid, h_grid, min_layer_size=64):
    """Mean pairwise KS distances, each pair merged and searched 4 times."""
    usable = [j for j in range(1, pyramid.depth + 1) if 2**j >= min_layer_size]
    sorted_layers = [np.sort(pyramid.layer(j)) for j in usable]
    log_scales = np.array([math.log(pyramid.scale(j)) for j in usable])
    distances = []
    for h in h_grid:
        factors = np.exp(-h * log_scales)
        total = 0.0
        n_pairs = 0
        for a in range(len(usable)):
            x = sorted_layers[a] * factors[a]
            for b in range(a + 1, len(usable)):
                y = sorted_layers[b] * factors[b]
                grid = np.concatenate([x, y])
                fx = np.searchsorted(x, grid, side="right") / x.size
                fy = np.searchsorted(y, grid, side="right") / y.size
                total += float(np.max(np.abs(fx - fy)))
                n_pairs += 1
        distances.append(total / n_pairs)
    return np.array(distances)


def quantized_pyramid():
    """Random layers on a coarse grid, a third of them nudged up by one ulp.

    Scaling merges some of those neighbours, so ties appear that the
    unscaled layers do not have.
    """
    spec = CascadeSpec(
        depth=11, multiplier_law=SignedLognormal.from_log2(-0.33, 0.3), seed=4
    )
    pyramid = synthesize_mixed(spec)
    for i, layer in enumerate(pyramid.layers):
        q = np.round(layer * 16.0) / 16.0
        q[1::3] = np.nextafter(q[1::3], np.inf)
        pyramid.layers[i] = q
    return pyramid


def shared_grid_pyramid():
    """Layers drawn from the same 17 values, with ranges that differ by layer.

    At H = 0 the layers are unscaled, so a larger layer ties with each value
    of a smaller one, at the ends of the runs on which the smaller layer's
    ECDF is constant.
    """
    rng = np.random.default_rng(12)
    layers = [rng.integers(-8, 9 - 4 * (j % 3), 2**j) / 4.0 for j in range(1, 11)]
    return WaveletPyramid(depth=10, root_approx=0.0, root_detail=1.0, layers=layers)


COLLAPSE_PYRAMIDS = {
    "lognormal": lambda: synthesize_mixed(  # tie-free
        CascadeSpec(depth=11, multiplier_law=SignedLognormal.from_log2(-0.33, 0.3), seed=4)
    ),
    "point-mass": lambda: synthesize_mixed(
        CascadeSpec(depth=10, multiplier_law=PointMass(2.0**-0.3), seed=9)
    ),
    "quantized": quantized_pyramid,
    "shared-grid": shared_grid_pyramid,
}


@pytest.mark.parametrize("block", [None, 100])  # 100 splits layers mid-run of ties
@pytest.mark.parametrize("name", sorted(COLLAPSE_PYRAMIDS))
def test_collapse_bit_equal_to_pairwise_merge(monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(empirics, "_GAP_BLOCK", block)
    pyramid = COLLAPSE_PYRAMIDS[name]()
    h_grid = np.arange(0.0, 1.005, 0.05)
    result = collapse_H(pyramid, h_grid)
    assert np.array_equal(result.distances, merge_reference_distances(pyramid, h_grid))


def exact_preimage(target, factor):
    """A double ``w`` with ``w * factor == target``, or None."""
    w = target / factor
    for _ in range(8):
        if w * factor == target:
            return w
        w = np.nextafter(w, np.inf if w * factor < target else -np.inf)
    return None


def test_collapse_counts_ties_made_by_scaling():
    # Layers 6-8 of a depth-8 pyramid, scaled at H = 0.5, all hold the same
    # share of zeros and one value t; layer 6 holds t as two neighbouring
    # doubles that only the scaling merges.  The layers then coincide.
    factors = np.exp(-0.5 * np.log([8.0, 4.0, 2.0]))
    for k in range(1, 1024):
        v = 1.0 + k / 1024
        t = v * factors[0]
        if np.nextafter(v, np.inf) * factors[0] == t:
            w7, w8 = exact_preimage(t, factors[1]), exact_preimage(t, factors[2])
            if w7 is not None and w8 is not None:
                break
    layers = [np.ones(2**j) for j in range(1, 6)] + [np.zeros(2**j) for j in (6, 7, 8)]
    layers[5][:2] = v, np.nextafter(v, np.inf)
    layers[6][:4] = w7
    layers[7][:8] = w8
    pyramid = WaveletPyramid(depth=8, root_approx=0.0, root_detail=1.0, layers=layers)
    h_grid = np.array([0.0, 0.5, 1.0])
    result = collapse_H(pyramid, h_grid)
    assert result.distances[1] == 0.0 and result.h == 0.5
    assert np.array_equal(result.distances, merge_reference_distances(pyramid, h_grid))


@pytest.mark.parametrize("affinity", [False, True])
def test_collapse_thread_count_changes_no_bit(monkeypatch, affinity):
    used = []

    class RecordingPool(threads.ThreadPoolExecutor):
        def __init__(self, max_workers):
            used.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(threads, "ThreadPoolExecutor", RecordingPool)
    pyramid = quantized_pyramid()
    distances = {}
    for cpus in (1, 2, 16):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        else:  # a platform without an affinity call counts its CPUs
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        distances[cpus] = collapse_H(pyramid, H_GRID).distances
    assert used == [1, 2, threads.MAX_THREADS]
    assert np.array_equal(distances[1], distances[2])
    assert np.array_equal(distances[1], distances[16])


def test_thread_map_bounds_the_futures_in_flight(monkeypatch):
    live = weakref.WeakSet()  # futures submitted and not yet collected
    submitted, most_live = [], []

    class CountingPool(threads.ThreadPoolExecutor):
        def submit(self, fn, /, *args):
            future = super().submit(fn, *args)
            live.add(future)
            submitted.append(args[0])
            most_live.append(len(live))
            return future

    monkeypatch.setattr(threads, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    items = range(1000)
    assert threads.thread_map(lambda i: i * i, items) == [i * i for i in items]
    assert submitted == list(items)
    # a worker may still hold the item it has just finished
    assert max(most_live) <= threads._MAX_PENDING + 2


def test_collapse_brownian_near_half():
    rng = np.random.default_rng(5)
    series = TimeSeries(np.cumsum(rng.normal(size=2**16)))
    pyramid = dwt_forward(series)
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


@pytest.mark.parametrize(
    "low, high",
    [(1e-156, 1.0), (1e-160, 1e150)],  # the ratio's square past 1.8e308, then the ratio itself
)
def test_variances_refuse_a_spread_ratio_past_the_float_range(low, high):
    rng = np.random.default_rng(0)
    layers = [rng.standard_normal(2**j) * (low if j < 9 else high) for j in range(1, 11)]
    pyramid = WaveletPyramid(depth=10, root_approx=0.0, root_detail=1.0, layers=layers)
    with pytest.raises(ValueError, match="transition 8->9: the squared layer spread ratio overflows"):
        estimate_variances(pyramid)


def test_clamped_variance_fit_serializes():
    spec = CascadeSpec(depth=14, multiplier_law=SignedLognormal.from_log2(-0.3, 0.02), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        clamped = [f for f in estimate_variances(synthesize_mixed(spec)) if f.clamped]
    assert clamped
    for row in clamped:
        assert type(row.clamped) is bool and type(row.intercept) is float
        json.dumps(dataclasses.asdict(row))


def test_variance_table_schema(tmp_path):
    from wcascade.cli import _variance_files, _write_report

    var_log = 0.02 * LN2
    spec = CascadeSpec(
        depth=12,
        multiplier_law=SignedLognormal((math.log(0.18) - 2 * var_log) / 2, var_log),
        additive_law=NormalNoise(0.32),
        seed=2,
    )
    fits = estimate_variances(synthesize_mixed(spec))
    assert fits
    _write_report(tmp_path, _variance_files(fits))
    table = (tmp_path / "variance_table.csv").read_text().splitlines()
    assert table[0] == "Scale,side,a,b,Std a,Std b,Adj R2,Var(W),Var(eta)"
    assert table[1].split(",")[:2] == [str(fits[0].parent_layer), fits[0].side]
    rows = json.loads((tmp_path / "variances.json").read_text())
    assert list(rows[0]) == [
        "parent_layer", "side", "slope", "intercept", "stderr_slope", "stderr_intercept",
        "adj_r2", "var_w", "var_eta", "clamped", "ratio_sq", "identity_residual", "n_bins",
    ]
