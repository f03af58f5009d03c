"""Modulus-maxima pipeline: stage-by-stage oracles and end-to-end checks."""

import math

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
    theoretical_spectrum_lognormal,
    theoretical_tau_lognormal,
)
from wcascade.dwt import TimeSeries, dwt_inverse
from wcascade.wtmm import (
    CwtMatrix,
    MaximaLine,
    PartitionFunction,
    TauEstimate,
    WtmmConfig,
    chain_maxima_lines,
    cwt,
    default_scale_grid,
    estimate_tau,
    find_modulus_maxima,
    gaussian_derivative_wavelet,
    legendre_duality_error,
    legendre_spectrum,
    partition_function,
    singular_spectrum,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# analyzing wavelet


def test_wavelet_point_values():
    assert gaussian_derivative_wavelet(2, 0.0) == pytest.approx(-1.0)
    assert gaussian_derivative_wavelet(1, 1.0) == pytest.approx(-math.exp(-0.5))
    # order 2 is x^2 - 1 times the Gaussian
    x = np.linspace(-4, 4, 33)
    expected = (x**2 - 1) * np.exp(-0.5 * x**2)
    assert np.allclose(gaussian_derivative_wavelet(2, x), expected, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_wavelet_vanishing_moments_by_quadrature(order):
    x = np.linspace(-20, 20, 200_001)
    psi = gaussian_derivative_wavelet(order, x)
    for n in range(order):
        moment = np.trapezoid(x**n * psi, x)
        assert abs(moment) < 1e-10
    # the next moment does not vanish
    assert abs(np.trapezoid(x**order * psi, x)) > 1e-3


def test_wavelet_order_validation():
    with pytest.raises(ValueError):
        gaussian_derivative_wavelet(0, 0.0)
    with pytest.raises(ValueError):
        cwt(TimeSeries(np.arange(64.0)), 0, [4.0])


# ---------------------------------------------------------------------------
# continuous transform


def test_cwt_constant_is_zero():
    series = TimeSeries(np.full(256, 3.7))
    matrix = cwt(series, 2, [4.0, 8.0, 16.0])
    assert np.max(np.abs(matrix.values)) < 1e-12


def test_cwt_ramp_vanishes_away_from_wrap():
    length = 512
    series = TimeSeries(np.arange(length, dtype=float))
    matrix = cwt(series, 2, [4.0, 8.0])
    # two vanishing moments annihilate the linear trend; only the periodic
    # wrap jump at position 0 responds
    inner = matrix.values[:, 128:384]
    assert np.max(np.abs(inner)) < 1e-9 * length


def test_cwt_impulse_matches_direct_evaluation():
    length = 256
    x0 = 100
    values = np.zeros(length)
    values[x0] = 1.0
    for s in (4.0, 10.0):
        matrix = cwt(TimeSeries(values), 2, [s])
        positions = np.arange(length)
        expected = np.zeros(length)
        for image in (-length, 0, length):
            expected += gaussian_derivative_wavelet(2, (x0 + image - positions) / s) / s
        assert np.max(np.abs(matrix.values[0] - expected)) < 1e-12


def test_cwt_scale_validation():
    series = TimeSeries(np.zeros(128) + np.arange(128.0))
    with pytest.raises(ValueError):
        cwt(series, 2, [1.5])
    with pytest.raises(ValueError):
        cwt(series, 2, [64.0])  # beyond L/4
    with pytest.raises(ValueError):
        cwt(series, 2, [8.0, 8.0])


# ---------------------------------------------------------------------------
# modulus maxima


def brute_force_maxima(row, floor=1e-13):
    """Exhaustive circular scan; drops sub-floor roundoff ripple."""
    m = np.abs(row)
    n = m.size
    idx = [i for i in range(n) if m[i] > m[(i - 1) % n] and m[i] > m[(i + 1) % n]]
    return np.array([i for i in idx if m[i] > floor * m.max()], dtype=int)


def test_maxima_match_brute_force_on_bump():
    length = 512
    x = np.arange(length, dtype=float)
    series = TimeSeries(np.exp(-0.5 * ((x - 256) / 16) ** 2))
    matrix = cwt(series, 2, [4.0, 8.0])
    maxima = find_modulus_maxima(matrix)
    for row, found in zip(matrix.values, maxima):
        assert np.array_equal(found, brute_force_maxima(row))


def test_bump_has_three_maxima_at_fine_scale():
    length = 1024
    x = np.arange(length, dtype=float)
    series = TimeSeries(np.exp(-0.5 * ((x - 512) / 24) ** 2))
    matrix = cwt(series, 2, [6.0])
    maxima = find_modulus_maxima(matrix)[0]
    assert maxima.size == 3
    assert 512 in maxima  # center plus two symmetric flanks
    flanks = np.sort(maxima[maxima != 512])
    assert abs((512 - flanks[0]) - (flanks[1] - 512)) <= 1


def test_maxima_constant_field_empty():
    matrix = CwtMatrix(scales=np.array([4.0]), values=np.zeros((1, 16)))
    assert find_modulus_maxima(matrix)[0].size == 0


def test_maxima_plateau_rule():
    row = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 0.0, 0.5, 0.5, 0.0, 0.2, 0.0])
    matrix = CwtMatrix(scales=np.array([4.0]), values=row[None, :])
    found = find_modulus_maxima(matrix)[0]
    # plateau [1,1,1] reported once at its left edge; plateau [0.5,0.5] too
    assert list(found) == [1, 5, 7, 10]


def test_maxima_rising_plateau_not_reported():
    row = np.array([0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    matrix = CwtMatrix(scales=np.array([4.0]), values=row[None, :])
    assert list(find_modulus_maxima(matrix)[0]) == [3]


# ---------------------------------------------------------------------------
# chaining


def test_step_response_single_maximum_at_step():
    # with one vanishing moment the step response is a Gaussian bump
    # centered on the jump, so there is one maximum per jump per scale
    length = 2048
    values = np.zeros(length)
    values[700:1600] = 1.0
    matrix = cwt(TimeSeries(values), 1, [4.0, 16.0, 64.0])
    for row_maxima in find_modulus_maxima(matrix):
        assert row_maxima.size == 2  # one per jump
    fine = find_modulus_maxima(matrix)[0]
    assert np.min(np.abs(fine - 700)) <= 1
    assert np.min(np.abs(fine - 1600)) <= 1


def test_two_steps_give_two_complete_lines():
    length = 4096
    values = np.zeros(length)
    values[length // 3: 2 * length // 3] = 1.0
    series = TimeSeries(values)
    grid = default_scale_grid(length)
    matrix = cwt(series, 1, grid)
    lines = chain_maxima_lines(find_modulus_maxima(matrix), matrix)
    assert len(lines) == 2
    complete = [l for l in lines if len(l) == grid.size]
    assert len(complete) == 2
    finals = sorted(l.positions[0] for l in complete)
    assert abs(finals[0] - length // 3) <= 3
    assert abs(finals[1] - 2 * length // 3) <= 3
    # completeness is monotone: alive-line counts never increase with scale
    lens = np.array([len(l) for l in lines])
    alive = np.array([(lens > i).sum() for i in range(grid.size)])
    assert np.all(np.diff(alive) <= 0)


def test_chain_empty_maxima():
    matrix = CwtMatrix(scales=np.array([4.0, 8.0]), values=np.zeros((2, 64)))
    assert chain_maxima_lines(find_modulus_maxima(matrix), matrix) == []


# ---------------------------------------------------------------------------
# partition function and exponents


def make_line(moduli, position=0):
    k = len(moduli)
    return MaximaLine(
        positions=np.full(k, position),
        moduli=np.asarray(moduli, dtype=float),
    )


def test_partition_single_line_powers():
    scales = np.array([4.0, 8.0, 16.0])
    line = make_line([2.0, 1.0, 4.0])
    q = np.array([-2.0, 0.0, 1.0, 3.0])
    pf = partition_function([line], q, scales)
    sups = np.array([2.0, 2.0, 4.0])  # running supremum
    for i in range(3):
        assert np.allclose(np.exp2(pf.log2_Z[:, i]), sups[i] ** q)
    assert np.array_equal(pf.line_counts, [1, 1, 1])


def test_partition_counts_at_q_zero():
    lines = [
        make_line([1.0, 2.0, 3.0]),
        make_line([5.0, 1.0]),
        make_line([0.5]),
    ]
    with pytest.warns(UserWarning):
        pf = partition_function(lines, np.array([0.0]), np.array([4.0, 8.0, 16.0, 32.0]))
    assert np.array_equal(pf.line_counts, [3, 2, 1, 0])
    assert np.allclose(np.exp2(pf.log2_Z[0, :3]), [3.0, 2.0, 1.0])


def test_partition_synthetic_halving_count_recovers_linear_tau():
    # counts proportional to 1/s with per-line supremum s^(1/2) give an
    # exact power law Z(q, s) = C * s^(q/2 - 1)
    n_scales = 10
    scales = 4.0 * 2.0 ** np.arange(n_scales)
    lines = []
    for i in range(n_scales):
        born = 2 ** (n_scales - i) - (2 ** (n_scales - i - 1) if i < n_scales - 1 else 0)
        for _ in range(born):
            lines.append(make_line(np.sqrt(scales[: i + 1])))
    q = np.linspace(-5, 5, 21)
    pf = partition_function(lines, q, scales)
    counts = np.array([1024 // 2**i for i in range(n_scales)])
    assert np.array_equal(pf.line_counts, counts)
    tau = estimate_tau(pf, (scales[0], scales[-1]))
    assert np.max(np.abs(tau.tau - (q / 2 - 1))) < 1e-6
    assert np.max(tau.stderr) < 1e-6
    # r2 is meaningless at q = 2 where Z(q, s) is exactly constant in s
    assert np.min(tau.r2[np.abs(q - 2.0) > 0.25]) > 1.0 - 1e-12


def test_estimate_tau_exact_decay():
    scales = np.array([4.0, 8.0, 16.0, 32.0])
    q = np.array([-1.0, 0.0, 2.0])
    Z = np.vstack([1.0 / scales] * 3)
    pf = PartitionFunction(
        q_grid=q,
        scales=scales,
        log2_Z=np.log2(Z),
        line_counts=np.ones(4, dtype=int),
    )
    tau = estimate_tau(pf, (4.0, 32.0))
    assert np.allclose(tau.tau, -1.0, atol=1e-12)


def test_estimate_tau_needs_three_scales():
    scales = np.array([4.0, 8.0, 16.0])
    pf = PartitionFunction(
        q_grid=np.array([0.0]),
        scales=scales,
        log2_Z=np.zeros((1, 3)),
        line_counts=np.array([1, 1, 0]),
    )
    with pytest.raises(ValueError):
        estimate_tau(pf, (4.0, 16.0))


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_linear_tau_collapses_support():
    q = np.linspace(-4, 4, 33)
    h = 0.5
    est = TauEstimate(q, h * q - 1, np.zeros_like(q), np.ones_like(q), q)
    spectrum = legendre_spectrum(est)
    assert np.allclose(spectrum.alpha, h, atol=1e-12)
    assert np.allclose(spectrum.D, 1.0, atol=1e-12)
    assert spectrum.support == pytest.approx((h, h))
    assert spectrum.peak_alpha == pytest.approx(h)


def test_legendre_matches_analytic_pair_on_interior():
    m, v = -0.33 * LN2, 0.02 * LN2
    q = np.linspace(-5, 5, 41)
    tau = theoretical_tau_lognormal(m, v, q)
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q), q)
    spectrum = legendre_spectrum(est)
    analytic = theoretical_spectrum_lognormal(m, v, spectrum.alpha[1:-1])
    assert np.max(np.abs(spectrum.D[1:-1] - analytic.D)) < 1e-6
    # centered differences are exact for a quadratic on the interior
    alpha_exact = -(m + q[1:-1] * v) / LN2
    assert np.max(np.abs(spectrum.alpha[1:-1] - alpha_exact)) < 1e-12


def test_legendre_duality_round_trip():
    m, v = -0.33 * LN2, 0.02 * LN2
    q = np.linspace(-5, 5, 41)
    tau = theoretical_tau_lognormal(m, v, q)
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q), q)
    spectrum = legendre_spectrum(est)
    curvature = np.max(np.abs(np.diff(tau, 2)))
    assert legendre_duality_error(spectrum) <= 4 * curvature


def test_legendre_flags_nonconcave_and_uses_hull():
    q = np.linspace(-2, 2, 9)
    tau = q / 2 - 1
    tau[4] -= 0.3  # dent makes the table non-concave
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q), q)
    with pytest.warns(UserWarning):
        spectrum = legendre_spectrum(est)
    assert spectrum.concavity_violation > 0
    assert np.all(np.diff(spectrum.alpha) <= 1e-12)
    assert np.allclose(spectrum.alpha, 0.5, atol=1e-12)  # hull removes the dent


# ---------------------------------------------------------------------------
# end to end


def test_brownian_path_peak_near_half():
    rng = np.random.default_rng(5)
    series = TimeSeries(np.cumsum(rng.normal(size=2**16)))
    spectrum = singular_spectrum(series)
    assert 0.45 <= spectrum.peak_alpha <= 0.55
    q0 = np.argmin(np.abs(spectrum.q_grid))
    assert abs(spectrum.tau[q0] + 1.0) <= 0.15


def test_monofractal_cascade_support_is_narrow():
    spec = CascadeSpec(depth=15, multiplier_law=PointMass(2.0**-0.5), seed=11)
    series = dwt_inverse(synthesize_mixed(spec))
    spectrum = singular_spectrum(series)
    width = spectrum.support[1] - spectrum.support[0]
    assert width <= 0.15
    assert abs(spectrum.peak_alpha - 0.5) <= 0.075


def test_estimator_stable_under_scale_grid_refinement():
    spec = CascadeSpec(
        depth=13, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=3
    )
    series = dwt_inverse(synthesize_mixed(spec))
    coarse = singular_spectrum(series, WtmmConfig(voices_per_octave=8))
    fine = singular_spectrum(series, WtmmConfig(voices_per_octave=16))
    mask = np.abs(coarse.q_grid) <= 3
    gap = np.abs(coarse.tau[mask] - fine.tau[mask])
    allowance = coarse.tau_stderr[mask] + fine.tau_stderr[mask]
    assert np.all(gap <= allowance)


def test_singular_spectrum_rejects_short_series():
    with pytest.raises(ValueError):
        singular_spectrum(TimeSeries(np.arange(512.0)))
