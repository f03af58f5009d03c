"""Acceptance gate: every shipped claim checked at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to
see them inline) and the pinned tolerance it enforces.
"""

import json
import math
import time

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    NormalNoise,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
    theoretical_tau_lognormal,
)
from wcascade.cli import main as cli_main
from wcascade.dwt import TimeSeries, dwt_forward, dwt_inverse, rescale
from wcascade.empirics import (
    collapse_H,
    estimate_variances,
    extract_multipliers,
    multiplier_correlations,
)
from wcascade.stats import fit_cauchy, fit_student_t2
from wcascade.wtmm import TauEstimate, legendre_spectrum, singular_spectrum

LN2 = math.log(2.0)
REF_MEAN_LOG = -0.33 * LN2
REF_VAR_LOG = 0.02 * LN2
H_GRID = np.arange(0.0, 1.005, 0.01)

CALIBRATED_W = SignedLognormal((math.log(0.18) - 2 * REF_VAR_LOG) / 2, REF_VAR_LOG)


def report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def calibrated_mixed_pyramid():
    """Depth-16 cascade with factor variance 0.18 and noise variance 0.32."""
    spec = CascadeSpec(
        depth=16,
        multiplier_law=CALIBRATED_W,
        additive_law=NormalNoise(0.32),
        seed=7,
    )
    return synthesize_mixed(spec)


@pytest.fixture(scope="module")
def reference_mixed():
    """Depth-16 mixed cascade at the reference parameters (noise std 0.3)."""
    spec = CascadeSpec(
        depth=16,
        multiplier_law=SignedLognormal(REF_MEAN_LOG, REF_VAR_LOG),
        additive_law=NormalNoise(0.09),
        seed=31,
    )
    pyramid = synthesize_mixed(spec)
    return pyramid, dwt_inverse(pyramid)


def test_criterion_01_round_trip_speed_and_accuracy():
    rng = np.random.default_rng(14)
    x = rng.normal(size=2**14)
    series = TimeSeries(x)
    start = time.perf_counter()
    y = dwt_inverse(dwt_forward(series))
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(y.values - x)) / np.max(np.abs(x))
    report(
        1,
        err <= 1e-10 and elapsed < 1.0,
        f"round-trip rel err {err:.2e} (tol 1e-10), {elapsed * 1e3:.0f} ms (< 1 s)",
    )


def test_criterion_02_vanishing_moments_on_ramp():
    length = 2**14
    x = np.arange(length, dtype=float)
    pyramid = dwt_forward(TimeSeries(x))
    norm = np.linalg.norm(x)
    worst = 0.0
    for j in range(1, pyramid.depth + 1):
        level = pyramid.depth + 1 - j
        step = 2**level
        support = 3 * (step - 1) + 4
        layer = pyramid.layer(j)
        interior = [k for k in range(layer.size) if step * k + support <= length]
        if interior:
            worst = max(worst, float(np.max(np.abs(layer[interior]))) / norm)
    report(2, worst <= 1e-9, f"interior detail / norm {worst:.2e} (tol 1e-9)")


def test_criterion_03_monofractal_control():
    start = time.perf_counter()
    spec = CascadeSpec(depth=15, multiplier_law=PointMass(2.0**-0.5), seed=11)
    series = dwt_inverse(synthesize_mixed(spec))
    spectrum = singular_spectrum(series)
    elapsed = time.perf_counter() - start
    q = spectrum.q_grid
    mask = np.abs(q) <= 3.0
    tau_err = float(np.max(np.abs(spectrum.tau[mask] - (q[mask] / 2 - 1))))
    width = spectrum.support[1] - spectrum.support[0]
    report(
        3,
        tau_err <= 0.1 and width <= 0.15 and elapsed < 120.0,
        f"tau err {tau_err:.3f} (tol 0.1), support width {width:.3f} "
        f"(tol 0.15), {elapsed:.1f} s (< 120 s)",
    )


def test_criterion_04_lognormal_cascade_vs_closed_form():
    start = time.perf_counter()
    taus = []
    stderrs = []
    q = None
    for seed in (101, 102, 103, 104):
        spec = CascadeSpec(
            depth=16,
            multiplier_law=SignedLognormal(REF_MEAN_LOG, REF_VAR_LOG),
            seed=seed,
        )
        spectrum = singular_spectrum(dwt_inverse(synthesize_mixed(spec)))
        taus.append(spectrum.tau)
        stderrs.append(spectrum.tau_stderr)
        q = spectrum.q_grid
    mean_tau = np.mean(taus, axis=0)
    theory = theoretical_tau_lognormal(REF_MEAN_LOG, REF_VAR_LOG, q)
    mask = np.abs(q) <= 3.0
    tau_err = float(np.max(np.abs(mean_tau[mask] - theory[mask])))
    averaged = legendre_spectrum(
        TauEstimate(q, mean_tau, np.mean(stderrs, axis=0) / 2.0, np.ones_like(q), q)
    )
    alpha0 = -REF_MEAN_LOG / LN2
    peak_err = abs(averaged.peak_alpha - alpha0)
    elapsed = time.perf_counter() - start
    report(
        4,
        tau_err <= 0.1 and peak_err <= 0.05 and elapsed < 600.0,
        f"4-run mean tau err {tau_err:.3f} (tol 0.1), peak {averaged.peak_alpha:.3f} "
        f"vs {alpha0:.2f} (tol 0.05), {elapsed:.0f} s (< 600 s)",
    )


def test_criterion_05_mixed_model_internal_consistency(reference_mixed):
    pyramid, series = reference_mixed
    spectrum = singular_spectrum(series)
    collapse = collapse_H(pyramid, H_GRID)
    width = spectrum.support[1] - spectrum.support[0]
    gap = abs(spectrum.peak_alpha - collapse.h)
    report(
        5,
        width >= 0.15 and gap <= 0.08,
        f"support width {width:.3f} (>= 0.15), peak {spectrum.peak_alpha:.3f} vs "
        f"collapse H {collapse.h:.3f}, gap {gap:.3f} (tol 0.08)",
    )


def test_criterion_06_layer_ratio_identity(calibrated_mixed_pyramid):
    pyramid = calibrated_mixed_pyramid
    worst = 0.0
    for j in range(12, 16):
        ratio = (pyramid.layer(j + 1).std() / pyramid.layer(j).std()) ** 2
        worst = max(worst, abs(ratio - 0.50))
    report(6, worst <= 0.05, f"max |ratio^2 - 0.50| {worst:.3f} over layers 12..15 (tol 0.05)")


def test_criterion_07_variance_estimator_recovery(calibrated_mixed_pyramid):
    fits = estimate_variances(calibrated_mixed_pyramid)
    by_layer = {}
    for f in fits:
        if f.parent_layer >= 12:
            by_layer.setdefault(f.parent_layer, []).append(f)
    assert sorted(by_layer) == [12, 13, 14, 15]
    worst_w = worst_eta = 0.0
    for rows in by_layer.values():
        var_w = float(np.mean([r.var_w for r in rows]))
        var_eta = float(np.mean([r.var_eta for r in rows]))
        worst_w = max(worst_w, abs(var_w - 0.18))
        worst_eta = max(worst_eta, abs(var_eta - 0.32))
    report(
        7,
        worst_w <= 0.05 and worst_eta <= 0.05,
        f"per-transition |Var(W)-0.18| <= {worst_w:.3f}, "
        f"|Var(eta)-0.32| <= {worst_eta:.3f} (tol 0.05)",
    )


def test_criterion_08_correlation_signs(calibrated_mixed_pyramid, reference_mixed):
    pure = synthesize_mixed(
        CascadeSpec(depth=16, multiplier_law=CALIBRATED_W, seed=7)
    )
    corr_pure = multiplier_correlations(extract_multipliers(pure), pure)
    pure_max = max(
        abs(r.r) for r in corr_pure.successive if r.layer >= 12
    )
    mixed_worst = -1.0
    for pyramid in (calibrated_mixed_pyramid, reference_mixed[0]):
        corr = multiplier_correlations(extract_multipliers(pyramid), pyramid)
        successive = {r.layer: r.r for r in corr.successive}
        mixed_worst = max(mixed_worst, max(successive[j] for j in range(10, 16)))
    report(
        8,
        pure_max < 0.05 and mixed_worst < -0.1,
        f"pure max |r| {pure_max:.3f} (< 0.05), mixed max r {mixed_worst:.3f} (< -0.1)",
    )


def test_criterion_09_heavy_tail_fits():
    rng = np.random.default_rng(123)
    cauchy_fit = fit_cauchy(0.6 * rng.standard_cauchy(100_000))
    u = 2.0 * rng.uniform(size=100_000) - 1.0
    t2_fit = fit_student_t2(u * np.sqrt(2.0 / (1.0 - u * u)))
    cauchy_err = abs(cauchy_fit.scale - 0.6)
    t2_err = abs(t2_fit.scale - 1.0)
    report(
        9,
        cauchy_err <= 0.05 and t2_err <= 0.05,
        f"cauchy scale {cauchy_fit.scale:.3f} (0.6 +/- 0.05), "
        f"t2 scale {t2_fit.scale:.3f} (1 +/- 0.05)",
    )


def test_criterion_10_collapse_estimator():
    rng = np.random.default_rng(5)
    brownian = rescale(
        dwt_forward(TimeSeries(np.cumsum(rng.normal(size=2**16)))), "to_rescaled"
    )
    h_brownian = collapse_H(brownian, H_GRID).h
    mono = synthesize_mixed(
        CascadeSpec(depth=14, multiplier_law=PointMass(2.0**-0.3), seed=41)
    )
    h_mono = collapse_H(mono, H_GRID).h
    report(
        10,
        0.45 <= h_brownian <= 0.55 and abs(h_mono - 0.3) <= 0.05,
        f"Brownian H {h_brownian:.2f} (in [0.45, 0.55]), "
        f"monofractal H {h_mono:.2f} (0.3 +/- 0.05)",
    )


def _cascade_panel_csv(path, depth=12, minutes_per_day=128, seed=7):
    spec = CascadeSpec(
        depth=depth,
        multiplier_law=CALIBRATED_W,
        additive_law=NormalNoise(0.32),
        seed=seed,
    )
    series = dwt_inverse(synthesize_mixed(spec))
    deltas = np.diff(np.concatenate([[0.0], series.values]))
    base = np.datetime64("2008-01-02T09:00")
    lines = ["timestamp,FAKE1"]
    log_price = 0.0
    for day in range(deltas.size // minutes_per_day):
        day_base = base + np.timedelta64(day, "D")
        log_price = 0.0
        lines.append(f"{day_base},{math.exp(log_price)!r}")
        for minute in range(minutes_per_day):
            log_price += deltas[day * minutes_per_day + minute]
            stamp = day_base + np.timedelta64(minute + 1, "m")
            lines.append(f"{stamp},{math.exp(log_price)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_criterion_11_byte_identical_reruns(tmp_path):
    config = {
        "depth": 12,
        "root_detail": 1.0,
        "root_approx": 0.0,
        "seed": 42,
        "multiplier_law": {
            "kind": "signed_lognormal", "mean_log2": -0.33, "var_log2": 0.02,
        },
        "additive_law": {"kind": "normal", "variance": 0.09},
    }
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(config))
    panel_path = tmp_path / "panel.csv"
    _cascade_panel_csv(panel_path)

    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    commands = {
        "simulate": ["simulate", "--config", str(config_path)],
        "spectrum": ["spectrum", "--input", str(tmp_path / "simulate_a" / "path.csv")],
        "multipliers": ["multipliers", "--input", str(tmp_path / "simulate_a" / "pyramid.json")],
        "variances": ["variances", "--input", str(tmp_path / "simulate_a" / "pyramid.json")],
        "collapse": ["collapse", "--input", str(tmp_path / "simulate_a" / "pyramid.json")],
        "ingest": ["ingest", "--input", str(panel_path)],
        "pipeline": ["pipeline", "--input", str(panel_path)],
    }
    mismatched = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert cli_main(argv + ["--out", str(out_a)]) == 0, name
        assert cli_main(argv + ["--out", str(out_b)]) == 0, name
        if tree(out_a) != tree(out_b):
            mismatched.append(name)
    report(
        11,
        not mismatched,
        "all seeded commands byte-identical on rerun"
        if not mismatched
        else f"mismatched artifacts: {mismatched}",
    )
