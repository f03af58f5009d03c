"""Modulus-maxima pipeline: stage-by-stage oracles and end-to-end checks."""

import concurrent.futures
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from wcascade.cascade import (
    CascadeSpec,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
    theoretical_tau_lognormal,
)
from wcascade import threads, wtmm
from wcascade.dwt import TimeSeries, dwt_inverse
from wcascade.wtmm import (
    CwtMatrix,
    MaximaLines,
    PartitionFunction,
    TauEstimate,
    WtmmConfig,
    chain_maxima_lines,
    cwt,
    default_scale_grid,
    estimate_tau,
    find_modulus_maxima,
    legendre_duality_error,
    legendre_spectrum,
    partition_function,
    singular_spectrum,
    _local_maxima_circular,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# analyzing wavelet


def mexican_hat(x):
    """``(x^2 - 1) exp(-x^2/2)``, the Mexican hat up to sign: the kernel whose spectrum ``cwt`` uses."""
    return (x * x - 1.0) * np.exp(-0.5 * x * x)


def test_wavelet_point_values():
    assert mexican_hat(0.0) == pytest.approx(-1.0)
    assert mexican_hat(1.0) == 0.0
    # x^2 - 1 times the Gaussian
    x = np.linspace(-4, 4, 33)
    expected = (x**2 - 1) * np.exp(-0.5 * x**2)
    assert np.allclose(mexican_hat(x), expected, atol=1e-14)


def test_wavelet_vanishing_moments_by_quadrature():
    x = np.linspace(-20, 20, 200_001)
    psi = mexican_hat(x)
    for n in range(2):
        moment = np.trapezoid(x**n * psi, x)
        assert abs(moment) < 1e-10
    # the second moment does not vanish
    assert abs(np.trapezoid(x**2 * psi, x)) > 1e-3


# ---------------------------------------------------------------------------
# continuous transform


def fresh_cwt(series, scale_grid, out=None):
    """``cwt`` of a whole grid, with every buffer it shares made here."""
    scale_grid = np.asarray(scale_grid, dtype=float)
    spectrum = np.fft.rfft(series.values)
    if out is None:
        out = np.empty((scale_grid.size, series.length))
    frequencies = wtmm._frequencies(scale_grid[0], series.length) if scale_grid.size else None
    return cwt(series, scale_grid, spectrum, out, frequencies, np.empty_like(spectrum))


def test_cwt_constant_is_zero():
    series = TimeSeries(np.full(256, 3.7))
    matrix = fresh_cwt(series, [4.0, 8.0, 16.0])
    assert np.max(np.abs(matrix.values)) < 1e-12


def test_cwt_ramp_vanishes_away_from_wrap():
    length = 512
    series = TimeSeries(np.arange(length, dtype=float))
    matrix = fresh_cwt(series, [4.0, 8.0])
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
        matrix = fresh_cwt(TimeSeries(values), [s])
        positions = np.arange(length)
        expected = np.zeros(length)
        for image in (-length, 0, length):
            expected += mexican_hat((x0 + image - positions) / s) / s
        assert np.max(np.abs(matrix.values[0] - expected)) < 1e-12


def test_cwt_of_an_empty_grid_is_an_empty_matrix():
    matrix = fresh_cwt(TimeSeries(np.arange(64.0)), [])
    assert matrix.values.shape == (0, 64) and matrix.scales.size == 0


def test_cwt_scale_validation():
    series = TimeSeries(np.zeros(128) + np.arange(128.0))
    with pytest.raises(ValueError):
        fresh_cwt(series, [1.5])
    with pytest.raises(ValueError):
        fresh_cwt(series, [64.0])  # beyond L/4
    with pytest.raises(ValueError):
        fresh_cwt(series, [8.0, 8.0])


def rolled_kernel(s, n):
    """The full-length kernel, reversed circularly: ``k[(-m) mod n]``."""
    offsets = np.arange(n, dtype=float)
    offsets[offsets > n // 2] -= n  # signed circular offsets
    kernel = mexican_hat(offsets / s) / s
    return np.roll(kernel[::-1], 1)


def sampled_kernel_cwt(series, scale_grid):
    """Rows from the sampled kernel, cut at n/2: the transform before the closed-form spectrum."""
    x = series.values
    spectrum = np.fft.rfft(x)
    rows = np.empty((len(scale_grid), x.size))
    for i, s in enumerate(scale_grid):
        rows[i] = np.fft.irfft(spectrum * np.fft.rfft(rolled_kernel(s, x.size)), n=x.size)
    return rows


def dense_reference_cwt(series, scale_grid):
    """One product per row with the hat's closed-form spectrum at every DFT frequency."""
    x = series.values
    spectrum = np.fft.rfft(x)
    omega = 2.0 * np.pi * np.arange(spectrum.size) / x.size
    rows = np.empty((len(scale_grid), x.size))
    for i, s in enumerate(scale_grid):
        w2 = np.square(s * omega)
        kernel = -math.sqrt(2.0 * math.pi) * w2 * np.exp(-0.5 * w2)
        rows[i] = np.fft.irfft(spectrum * kernel, n=x.size)
    return rows


def straddling_grid(n):
    """Scales from 2 to n/4, with three around n/78, above which the sampled kernel wraps."""
    switch = n / 78
    near_switch = switch + np.array([-1, 0, 1]) / 39
    return np.sort(np.concatenate([np.geomspace(2.0, n / 4, 9), near_switch]))


def _random_walk(n):
    return np.cumsum(np.random.default_rng(3).standard_normal(n))


def _two_steps(n):
    values = np.zeros(n)
    values[n // 3: 2 * n // 3] = 1.0
    return values


@pytest.mark.parametrize("length", [2**10, 2**16])
@pytest.mark.parametrize("make_series", [_random_walk, _two_steps])
def test_cwt_matches_dense_loop_bit_for_bit(length, make_series):
    series = TimeSeries(make_series(length))
    grid = straddling_grid(length)
    values = fresh_cwt(series, grid).values
    expected = dense_reference_cwt(series, grid)
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("length", [2**10, 2**16])
@pytest.mark.parametrize("make_series", [_random_walk, _two_steps])
def test_cwt_matches_sampled_kernel_up_to_roundoff(length, make_series):
    # Below n/78 the sampled kernel, cut at n/2, equals its periodization.
    # Below 2.5 samples its spectrum's aliases exceed the tolerance: 6e-9 of
    # the row's largest modulus at 2 samples.
    series = TimeSeries(make_series(length))
    grid = np.unique(np.concatenate([np.geomspace(2.5, length / 100, 9), default_scale_grid(length)]))
    grid = grid[grid <= length / 100]
    values = fresh_cwt(series, grid).values
    expected = sampled_kernel_cwt(series, grid)
    gap = np.max(np.abs(values - expected), axis=1)
    assert np.all(gap <= 1e-12 * np.max(np.abs(expected), axis=1))


def test_cwt_with_shared_frequencies_and_product_matches_a_fresh_transform():
    series = TimeSeries(_random_walk(4096))
    grid = default_scale_grid(4096)
    dft = np.fft.rfft(series.values)
    frequencies = wtmm._frequencies(grid[0], 4096)
    assert frequencies.tobytes() == (2.0 * np.pi * np.arange(frequencies.size) / 4096).tobytes()
    product = np.full_like(dft, np.nan)  # whatever it held
    row = np.full((1, 4096), np.nan)
    whole = fresh_cwt(series, grid).values
    for i in range(grid.size):
        # a coarse row reads the finest row's frequency grid
        shared = cwt(series, grid[i : i + 1], dft, row, frequencies, product)
        assert shared.values is row
        assert row.tobytes() == whole[i].tobytes(), i


def test_cwt_into_a_reused_buffer_matches_a_fresh_transform():
    series = TimeSeries(_random_walk(4096))
    grid = default_scale_grid(4096)
    dft = np.fft.rfft(series.values)
    frequencies, product = wtmm._frequencies(grid[0], 4096), np.empty_like(dft)
    buffer = fresh_cwt(series, grid[4:8]).values  # holds another block's rows
    fresh = fresh_cwt(series, grid[:4])
    reused = cwt(series, grid[:4], dft, buffer, frequencies, product)
    assert reused.values is buffer
    assert reused.values.tobytes() == fresh.values.tobytes()
    # a leading slice of the buffer takes a shorter block
    tail = cwt(series, grid[5:8], dft, buffer[:3], frequencies, product)
    assert tail.values.tobytes() == fresh_cwt(series, grid[5:8]).values.tobytes()


@pytest.mark.parametrize(
    "out",
    [np.empty((3, 4096)), np.empty((4, 4095)), np.empty(4 * 4096), np.empty((4, 4096), np.float32)],
    ids=["too-few-rows", "short-rows", "flat", "float32"],
)
def test_cwt_refuses_a_wrongly_shaped_out(out):
    series = TimeSeries(_random_walk(4096))
    with pytest.raises(ValueError, match=r"out must be a float array of shape \(4, 4096\)"):
        fresh_cwt(series, default_scale_grid(4096)[:4], out=out)


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
    matrix = fresh_cwt(series, [4.0, 8.0])
    maxima = find_modulus_maxima(matrix)
    for row, found in zip(matrix.values, maxima):
        assert np.array_equal(found, brute_force_maxima(row))


def test_bump_has_three_maxima_at_fine_scale():
    length = 1024
    x = np.arange(length, dtype=float)
    series = TimeSeries(np.exp(-0.5 * ((x - 512) / 24) ** 2))
    matrix = fresh_cwt(series, [6.0])
    maxima = find_modulus_maxima(matrix)[0]
    assert maxima.size == 3
    assert 512 in maxima  # center plus two symmetric flanks
    flanks = np.sort(maxima[maxima != 512])
    assert abs((512 - flanks[0]) - (flanks[1] - 512)) <= 1


def test_maxima_leave_the_moduli_in_the_matrix():
    series = TimeSeries(_random_walk(4096))
    matrix = fresh_cwt(series, default_scale_grid(4096)[:5])
    transform = matrix.values.copy()
    assert np.any(transform < 0)
    maxima = find_modulus_maxima(matrix)
    assert matrix.values.tobytes() == np.abs(transform).tobytes()
    for row, found in zip(transform, maxima):
        assert np.array_equal(found, brute_force_maxima(row))


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


def roll_local_maxima(m):
    """The scan `_local_maxima_circular` replaced, on two rolled copies of ``m``."""
    has_plateau = bool(np.any(m[1:] == m[:-1])) or m[0] == m[-1]
    if not has_plateau:
        return np.flatnonzero((m > np.roll(m, 1)) & (m > np.roll(m, -1)))
    if np.all(m == m[0]):
        return np.empty(0, dtype=np.int64)
    change = np.flatnonzero(m != np.roll(m, 1))
    run_vals = m[change]
    keep = (run_vals > np.roll(run_vals, 1)) & (run_vals > np.roll(run_vals, -1))
    return change[keep]


@pytest.mark.parametrize(
    "m",
    [
        [5.0, 1.0, 2.0, 1.0, 0.5],  # maximum at 0
        [1.0, 2.0, 1.0, 0.5, 5.0],  # maximum at n - 1
        [5.0, 1.0, 2.0, 1.0, 5.0],  # both ends: one plateau across the wrap
        [4.0, 4.0, 1.0, 2.0, 1.0, 4.0],  # a longer plateau across the wrap
        [4.0, 1.0, 3.0, 1.0, 5.0],  # n - 1 beats its neighbour 0
        [1.0, 2.0],
        [2.0, 1.0],
        [1.0, 3.0, 2.0],
    ],
)
def test_local_maxima_ends_match_the_rolled_scan(m):
    m = np.asarray(m)
    found = _local_maxima_circular(m)
    expected = roll_local_maxima(m)
    assert found.dtype == expected.dtype and np.array_equal(found, expected)


def test_local_maxima_match_the_rolled_scan_on_random_rows():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 7, 64, 1000):
        for _ in range(50):
            for m in (rng.standard_normal(n), rng.integers(0, 4, n).astype(float)):
                found = _local_maxima_circular(m)
                expected = roll_local_maxima(m)
                assert found.dtype == expected.dtype and np.array_equal(found, expected)


# ---------------------------------------------------------------------------
# chaining


def test_step_response_maxima_flank_each_step():
    # the response to a unit step at x0 is a exp(-a^2/2) with a = (x0 - x)/s,
    # so each jump has two maxima per scale, at x0 - s and x0 + s
    length = 2048
    values = np.zeros(length)
    values[700:1600] = 1.0
    jumps = np.array([699.5, 1599.5])
    matrix = fresh_cwt(TimeSeries(values), [4.0, 16.0, 64.0])
    for s, row_maxima in zip(matrix.scales, find_modulus_maxima(matrix)):
        expected = np.sort(np.concatenate([jumps - s, jumps + s]))
        assert np.max(np.abs(row_maxima - expected)) <= 0.5


def chain_from_matrix(maxima, matrix):
    """``chain_maxima_lines`` on the moduli at the maxima, read off a whole matrix."""
    moduli = [np.abs(matrix.values[i, m]) for i, m in enumerate(maxima)]
    return chain_maxima_lines(zip(maxima, moduli), matrix.scales, matrix.values.shape[1])


def test_two_steps_give_two_complete_lines():
    length = 4096
    series = TimeSeries(_two_steps(length))
    grid = default_scale_grid(length)
    matrix = fresh_cwt(series, grid)
    maxima = find_modulus_maxima(matrix)
    lines = chain_from_matrix(maxima, matrix)
    assert len(lines) == 4  # two flanks per jump
    complete = [k for k, l in enumerate(lines) if len(l) == grid.size]
    assert len(complete) == 2  # the outer flanks; the inner two meet between the jumps
    finals = sorted(maxima[0][k] for k in complete)  # line k starts at maxima[0][k]
    assert abs(finals[0] - (length // 3 - 0.5 - grid[0])) <= 0.5
    assert abs(finals[1] - (2 * length // 3 - 0.5 + grid[0])) <= 0.5
    # completeness is monotone: alive-line counts never increase with scale
    lens = np.array([len(l) for l in lines])
    alive = np.array([(lens > i).sum() for i in range(grid.size)])
    assert np.all(np.diff(alive) <= 0)


def test_chain_empty_maxima():
    matrix = CwtMatrix(scales=np.array([4.0, 8.0]), values=np.zeros((2, 64)))
    assert len(chain_from_matrix(find_modulus_maxima(matrix), matrix)) == 0


def test_chain_without_scales_gives_no_lines():
    lines = chain_maxima_lines(zip([], []), [], 64)
    assert len(lines) == 0 and list(lines) == []


@pytest.mark.parametrize("n_rows", [1, 3])
def test_chain_refuses_a_row_count_other_than_the_scales(n_rows):
    maxima = [np.array([5, 20, 40]), np.array([6, 21, 41]), np.array([7, 22, 42])][:n_rows]
    moduli = [np.ones(3)] * n_rows
    with pytest.raises(ValueError, match="need one row of maxima per scale"):
        chain_maxima_lines(zip(maxima, moduli), [4.0, 8.0], 64)


def test_chain_pulls_no_row_once_every_line_has_ended():
    pulled = []

    def rows():
        for i, positions in enumerate([[5, 20], [40], [41], [42]]):
            pulled.append(i)
            yield np.array(positions), np.ones(len(positions))

    lines = chain_maxima_lines(rows(), [4.0, 8.0, 16.0, 32.0], 64)
    assert pulled == [0, 1] and [len(line) for line in lines] == [1, 1]


# ---------------------------------------------------------------------------
# chaining and partition function against a list-based reference


def reference_chain_maxima_lines(maxima, matrix):
    """Per-line list chaining: greedy matching that appends each accepted edge."""
    n = matrix.values.shape[1]
    scales = matrix.scales
    seeds = np.asarray(maxima[0], dtype=np.int64)
    line_moduli = [[float(abs(matrix.values[0, p]))] for p in seeds]
    heads = seeds.astype(float)
    alive = np.arange(seeds.size)
    for i in range(1, scales.size):
        if alive.size == 0:
            break
        cands = np.asarray(maxima[i], dtype=np.int64)
        if cands.size == 0:
            break
        radius = max(1.0, 0.5 * scales[i])
        idx = np.searchsorted(cands, heads)
        neighbor = np.stack([(idx - 1) % cands.size, idx % cands.size])
        pair_line = np.tile(np.arange(alive.size), 2)
        pair_cand = neighbor.reshape(-1)
        d = np.abs(heads[pair_line] - cands[pair_cand])
        dist = np.minimum(d, n - d)
        ok = dist <= radius
        pair_line, pair_cand, dist = pair_line[ok], pair_cand[ok], dist[ok]
        line_used = np.zeros(alive.size, dtype=bool)
        cand_used = np.zeros(cands.size, dtype=bool)
        new_alive = []
        new_heads = []
        for k in np.argsort(dist, kind="stable"):
            li, ci = pair_line[k], pair_cand[k]
            if line_used[li] or cand_used[ci]:
                continue
            line_used[li] = True
            cand_used[ci] = True
            pos = int(cands[ci])
            line_moduli[alive[li]].append(float(abs(matrix.values[i, pos])))
            new_alive.append(alive[li])
            new_heads.append(float(pos))
        alive = np.asarray(new_alive, dtype=np.int64)
        heads = np.asarray(new_heads, dtype=float)
    return [np.asarray(moduli) for moduli in line_moduli]


def reference_partition_function(lines, q_grid, scales):
    """Per-scale lists of running suprema, summed in line order."""
    n_s = scales.size
    sup_logs = [[] for _ in range(n_s)]
    for line in lines:
        running = np.maximum.accumulate(np.log(line))
        for i in range(min(len(line), n_s)):
            sup_logs[i].append(running[i])
    log2_Z = np.full((q_grid.size, n_s), -np.inf)
    counts = np.zeros(n_s, dtype=np.int64)
    for i in range(n_s):
        if sup_logs[i]:
            logs = np.asarray(sup_logs[i])
            counts[i] = logs.size
            a = q_grid[:, None] * logs[None, :]
            m = np.max(a, axis=1, keepdims=True)
            log_z = m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True))
            log2_Z[:, i] = np.squeeze(log_z, axis=1) / LN2
    return log2_Z, counts


def regrouped_partition_function(lines, q_grid, scales):
    """The partition as once written: every line point regrouped by scale index up front.

    Depth per point, a stable argsort by depth and a split into per-scale
    arrays of log moduli, then the q rows in blocks of 2**16 terms.
    """
    n_s = scales.size
    lengths = np.array([len(line) for line in lines], dtype=np.int64)
    moduli = np.concatenate([np.empty(0), *lines])
    depth = np.arange(moduli.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    per_scale = np.bincount(depth, minlength=n_s)
    by_scale = np.split(np.log(moduli[np.argsort(depth, kind="stable")]), np.cumsum(per_scale)[:-1])
    log2_Z = np.full((q_grid.size, n_s), -np.inf)
    counts = per_scale[:n_s]
    live, sup = lengths, np.full(lengths.size, -np.inf)
    for i in range(n_s):
        if not counts[i]:
            break
        keep = live > i
        live, sup = live[keep], np.maximum(sup[keep], by_scale[i])
        rows = max(1, (1 << 16) // sup.size)
        for k in range(0, q_grid.size, rows):
            log2_Z[k : k + rows, i] = wtmm._log2_power_sums(q_grid[k : k + rows], sup)
    return log2_Z, counts


def held(lines):
    """A list of moduli arrays as the :class:`MaximaLines` that chaining returns."""
    lengths = np.array([len(line) for line in lines], dtype=np.int64)
    return MaximaLines(np.concatenate([np.empty(0), *lines]), lengths)


def assert_lines_equal(lines, expected):
    """Line ``k`` of ``lines``, iterated, is bit-equal to ``expected[k]``."""
    assert isinstance(lines, MaximaLines)
    assert len(lines) == len(expected) == sum(1 for _ in lines)
    for k, (line, ref) in enumerate(zip(lines, expected)):
        assert line.dtype == ref.dtype and line.tobytes() == ref.tobytes(), k


def chain_edges(chain, maxima, matrix):
    """Each line's ``(scale index) * n + position`` codes, read off a matrix of ``1 + code``."""
    n_scales, n = matrix.values.shape
    coded = CwtMatrix(matrix.scales, 1.0 + np.arange(n_scales * n, dtype=float).reshape(n_scales, n))
    return [(line - 1.0).astype(np.int64) for line in chain(maxima, coded)]


def assert_chaining_matches_reference(maxima, matrix):
    maxima = [np.asarray(m, dtype=np.int64) for m in maxima]
    q = WtmmConfig().q_grid()
    edges = chain_edges(chain_from_matrix, maxima, matrix)
    expected_edges = chain_edges(reference_chain_maxima_lines, maxima, matrix)
    assert len(edges) == len(expected_edges)
    assert all(np.array_equal(a, b) for a, b in zip(edges, expected_edges))
    lines = chain_from_matrix(maxima, matrix)
    expected = reference_chain_maxima_lines(maxima, matrix)
    assert_lines_equal(lines, expected)
    assert len(lines) == maxima[0].size
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pf = partition_function(lines, q, matrix.scales)
    log2_Z, counts = reference_partition_function(expected, q, matrix.scales)
    assert pf.log2_Z.tobytes() == log2_Z.tobytes()
    assert np.array_equal(pf.line_counts, counts)
    assert (len(caught) == 1) == bool(np.any(counts == 0))
    return lines


def hand_built_matrix(n=64, n_scales=4, seed=0):
    """Positive moduli on a 4 -> 32 sample grid; radii 4, 8, 16 above the finest row."""
    rng = np.random.default_rng(seed)
    scales = 4.0 * 2.0 ** np.arange(n_scales)
    return CwtMatrix(scales=scales, values=rng.uniform(0.5, 2.0, size=(n_scales, n)))


def test_chaining_matches_reference_on_cascade_path():
    spec = CascadeSpec(
        depth=13, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=3
    )
    series = dwt_inverse(synthesize_mixed(spec))
    matrix = fresh_cwt(series, default_scale_grid(series.length))
    lines = assert_chaining_matches_reference(find_modulus_maxima(matrix), matrix)
    lengths = {len(line) for line in lines}
    assert min(lengths) < matrix.scales.size and max(lengths) == matrix.scales.size


def test_chaining_matches_reference_with_empty_later_scale():
    maxima = [[5, 20, 40], [6, 21], [], [30]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert [len(line) for line in lines] == [2, 2, 1]


def test_chaining_matches_reference_when_a_line_finds_no_continuation():
    # 20 has no scale-8 maximum within 4 samples; 40 none at scale 16 within 8
    maxima = [[5, 20, 40], [6, 41], [7], [8]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert [len(line) for line in lines] == [4, 1, 2]


def test_chaining_matches_reference_on_an_equal_distance_tie():
    # at scale 8 line 1 (30 -> 29) is accepted before line 0 (10 -> 13), so
    # the heads 29 and 13, both 8 samples from 21, tie in that order
    maxima = [[10, 30], [13, 29], [21], [21]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert [len(line) for line in lines] == [2, 4]


def test_chaining_matches_reference_on_ties_across_lines():
    # at scale 8 heads 10 and 18 are both 4 from 14: 18's left edge ranks
    # first, so line 1 takes 14 and line 0 closes
    maxima = [[10, 18, 40], [14, 44], [14, 45], [15, 46]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert [len(line) for line in lines] == [1, 4, 4]


def test_chaining_matches_reference_when_one_candidate_is_nearest_to_many_heads():
    maxima = [[8, 10, 12, 14, 30], [11, 31], [11, 32], [12, 33]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert sorted(len(line) for line in lines) == [1, 1, 1, 4, 4]


def test_chaining_matches_reference_with_a_single_candidate():
    # both neighbours of every head are the same maximum, so each head offers it twice
    maxima = [[5, 20, 22, 40], [21], [23], [24]]
    lines = assert_chaining_matches_reference(maxima, hand_built_matrix())
    assert [len(line) for line in lines] == [1, 4, 1, 1]


def test_chaining_matches_reference_on_random_maxima():
    n, n_scales = 96, 6
    for seed in range(60):
        rng = np.random.default_rng(seed)
        matrix = hand_built_matrix(n, n_scales, seed)
        counts = [rng.integers(1, 30)] + list(rng.integers(0, 30, n_scales - 1))
        maxima = [np.sort(rng.choice(n, size=k, replace=False)) for k in counts]
        assert_chaining_matches_reference(maxima, matrix)


# ---------------------------------------------------------------------------
# partition function and exponents


def make_line(moduli):
    return np.asarray(moduli, dtype=float)


def test_partition_single_line_powers():
    scales = np.array([4.0, 8.0, 16.0])
    line = make_line([2.0, 1.0, 4.0])
    q = np.array([-2.0, 0.0, 1.0, 3.0])
    pf = partition_function(held([line]), q, scales)
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
        pf = partition_function(held(lines), np.array([0.0]), np.array([4.0, 8.0, 16.0, 32.0]))
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
    pf = partition_function(held(lines), q, scales)
    counts = np.array([1024 // 2**i for i in range(n_scales)])
    assert np.array_equal(pf.line_counts, counts)
    tau = estimate_tau(pf, (scales[0], scales[-1]))
    assert np.max(np.abs(tau.tau - (q / 2 - 1))) < 1e-6
    assert np.max(tau.stderr) < 1e-6
    # r2 is meaningless at q = 2 where Z(q, s) is exactly constant in s
    assert np.min(tau.r2[np.abs(q - 2.0) > 0.25]) > 1.0 - 1e-12


def test_partition_q_blocks_match_reference_bit_for_bit():
    # 5000 lines alive at the finest scale put one q row in a block of 2**13
    # terms; about 1900 alive at scale index 5 put 4, so 101 q values span
    # 26 blocks there, the last one partial
    rng = np.random.default_rng(7)
    lines = [np.exp(rng.normal(size=rng.integers(1, 9))) for _ in range(5000)]
    scales = default_scale_grid(2**10)[:8]
    q = np.linspace(-5.0, 5.0, 101)
    pf = partition_function(held(lines), q, scales)
    log2_Z, counts = reference_partition_function(lines, q, scales)
    assert pf.log2_Z.tobytes() == log2_Z.tobytes()
    assert np.array_equal(pf.line_counts, counts)


def _mixed_length_lines(rng, n_lines=3000, longest=12):
    return [np.exp(rng.normal(size=rng.integers(1, longest + 1))) for _ in range(n_lines)]


PARTITION_LINE_SETS = {
    # 2**13 terms hold 2 q rows at 3000 lines and many at the last few
    "mixed-lengths": lambda rng: _mixed_length_lines(rng),
    "longer-than-the-grid": lambda rng: _mixed_length_lines(rng, longest=14),
    "all-die-at-scale-1": lambda rng: [np.exp(rng.normal(size=1)) for _ in range(500)],
    "one-point-lines-among-long-ones": lambda rng: [
        np.exp(rng.normal(size=1 if k % 3 else 10)) for k in range(900)
    ],
    "a-single-one-point-line": lambda rng: [np.array([0.75])],
    "equal-moduli": lambda rng: [np.full(rng.integers(1, 11), 2.5) for _ in range(700)],
    "equal-moduli-within-lines": lambda rng: [
        np.repeat(np.exp(rng.normal(size=3)), rng.integers(1, 5, size=3)) for _ in range(700)
    ],
    "no-lines": lambda rng: [],
}


@pytest.mark.parametrize("name", sorted(PARTITION_LINE_SETS))
def test_partition_matches_the_regrouped_partition_bit_for_bit(name):
    lines = PARTITION_LINE_SETS[name](np.random.default_rng(11))
    scales = default_scale_grid(2**12)[:10]
    q = np.linspace(-5.0, 5.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # lines that die before the top scale
        pf = partition_function(held(lines), q, scales)
    assert_lines_equal(held(lines), lines)
    log2_Z, counts = regrouped_partition_function(lines, q, scales)
    assert pf.log2_Z.tobytes() == log2_Z.tobytes()
    assert pf.line_counts.tobytes() == np.asarray(counts, dtype=np.int64).tobytes()


def test_partition_holds_about_one_float_per_line_point():
    series = _cascade_path()
    config = WtmmConfig()
    grid = config.scale_grid(series.length)
    matrix = fresh_cwt(series, grid)
    lines = chain_from_matrix(find_modulus_maxima(matrix), matrix)
    del matrix
    points = sum(len(line) for line in lines)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            partition_function(lines, config.q_grid(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the moduli themselves take 8 bytes per point; regrouped by scale up
    # front, with a depth, a sort order and two more copies, it took 32.7
    assert peak / points <= 20, (peak, points)


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
    est = TauEstimate(q, h * q - 1, np.zeros_like(q), np.ones_like(q))
    spectrum = legendre_spectrum(est)
    assert np.allclose(spectrum.alpha, h, atol=1e-12)
    assert np.allclose(spectrum.D, 1.0, atol=1e-12)
    assert spectrum.support == pytest.approx((h, h))
    assert spectrum.peak_alpha == pytest.approx(h)


def test_legendre_matches_analytic_pair_on_interior():
    m, v = -0.33 * LN2, 0.02 * LN2
    q = np.linspace(-5, 5, 41)
    tau = theoretical_tau_lognormal(m, v, q)
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q))
    spectrum = legendre_spectrum(est)
    # the lognormal cascade's parabola D(alpha), peaked at alpha0 = -m / ln 2
    analytic = 1.0 - (spectrum.alpha[1:-1] + m / LN2) ** 2 * LN2 / (2.0 * v)
    assert np.max(np.abs(spectrum.D[1:-1] - analytic)) < 1e-6
    # centered differences are exact for a quadratic on the interior
    alpha_exact = -(m + q[1:-1] * v) / LN2
    assert np.max(np.abs(spectrum.alpha[1:-1] - alpha_exact)) < 1e-12


def test_legendre_duality_round_trip():
    m, v = -0.33 * LN2, 0.02 * LN2
    q = np.linspace(-5, 5, 41)
    tau = theoretical_tau_lognormal(m, v, q)
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q))
    spectrum = legendre_spectrum(est)
    curvature = np.max(np.abs(np.diff(tau, 2)))
    assert legendre_duality_error(spectrum) <= 4 * curvature


def test_legendre_flags_nonconcave_and_uses_hull():
    q = np.linspace(-2, 2, 9)
    tau = q / 2 - 1
    tau[4] -= 0.3  # dent makes the table non-concave
    est = TauEstimate(q, tau, np.zeros_like(q), np.ones_like(q))
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


def test_estimator_stable_under_scale_grid_refinement(monkeypatch):
    spec = CascadeSpec(
        depth=13, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=3
    )
    series = dwt_inverse(synthesize_mixed(spec))
    coarse = singular_spectrum(series)
    monkeypatch.setattr(wtmm, "_VOICES_PER_OCTAVE", 16)
    fine = singular_spectrum(series)
    mask = np.abs(coarse.q_grid) <= 3
    gap = np.abs(coarse.tau[mask] - fine.tau[mask])
    allowance = coarse.tau_stderr[mask] + fine.tau_stderr[mask]
    assert np.all(gap <= allowance)


def _cascade_path(depth=14):
    spec = CascadeSpec(
        depth=depth, multiplier_law=SignedLognormal.from_log2(-0.33, 0.02), seed=3
    )
    return dwt_inverse(synthesize_mixed(spec))


def _wave_packet(n=4096):
    """A period-16 packet: its ridge lines die near scale 25, where a faint
    period-n wave (too faint to seed lines) takes over the coarse rows."""
    x = np.arange(n)
    packet = np.exp(-0.5 * ((x - n / 2) / 60) ** 2) * np.sin(2 * np.pi * x / 16)
    return TimeSeries(packet + 1e-10 * np.sin(2 * np.pi * x / n))


def full_grid_reference(series, config):
    """The partition function and spectrum with every scale up to L/8 transformed."""
    matrix = fresh_cwt(series, default_scale_grid(series.length))
    lines = chain_from_matrix(find_modulus_maxima(matrix), matrix)
    pf = partition_function(lines, config.q_grid(), matrix.scales)
    return pf, legendre_spectrum(estimate_tau(pf, config.fit_window(series.length)))


@pytest.mark.parametrize(
    "make_series, fit_max_scale, n_scales",
    [
        (_cascade_path, None, 65),  # the default window's top, 1024 of L/8 = 2048
        (_cascade_path, 300.0, 50),  # between the grid's 279.2 and 304.4
        (_cascade_path, 2048.0, 73),  # L/8: the whole grid
        (_wave_packet, 64.0, 33),  # lines die inside the window
    ],
)
def test_grid_cut_at_the_fit_window_changes_no_bit(make_series, fit_max_scale, n_scales):
    series = make_series()
    config = WtmmConfig(fit_max_scale=fit_max_scale)
    grid = config.scale_grid(series.length)
    assert grid.size == n_scales
    assert np.array_equal(grid, default_scale_grid(series.length)[:n_scales])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pf_full, expected = full_grid_reference(series, config)
        matrix = fresh_cwt(series, grid)
        maxima = find_modulus_maxima(matrix)
        lines = chain_from_matrix(maxima, matrix)
        pf = partition_function(lines, config.q_grid(), grid)
        spectrum = singular_spectrum(series, config)
    assert_lines_equal(lines, reference_chain_maxima_lines(maxima, matrix))
    assert pf.log2_Z.tobytes() == pf_full.log2_Z[:, :n_scales].tobytes()
    assert np.array_equal(pf.line_counts, pf_full.line_counts[:n_scales])
    for field in ("tau", "tau_stderr", "alpha", "D", "fit_r2"):
        assert getattr(spectrum, field).tobytes() == getattr(expected, field).tobytes(), field


@pytest.mark.parametrize(
    "fit_min_scale, fit_max_scale, n_scales",
    [
        (None, None, 65),  # the default window: an odd row count
        (None, 1000.0, 64),  # an even one
        (4.0, 6.0, 5),
        (4.0, 4.9, 3),  # the fewest scales a fit takes
    ],
)
def test_blocked_front_end_matches_the_whole_matrix(
    monkeypatch, fit_min_scale, fit_max_scale, n_scales
):
    # the front end streams one row per worker into the chain
    series = _cascade_path()
    config = WtmmConfig(fit_min_scale=fit_min_scale, fit_max_scale=fit_max_scale)
    grid = config.scale_grid(series.length)
    assert grid.size == n_scales
    seen = {}
    chain, partition = wtmm.chain_maxima_lines, wtmm.partition_function

    def recorded_chain(rows, scales, length):
        def recording():
            for row in rows:
                seen.setdefault("rows", []).append(row)
                yield row

        seen["lines"] = chain(recording(), scales, length)
        return seen["lines"]

    def recorded_partition(*args):
        seen["pf"] = partition(*args)
        return seen["pf"]

    monkeypatch.setattr(wtmm, "chain_maxima_lines", recorded_chain)
    monkeypatch.setattr(wtmm, "partition_function", recorded_partition)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spectrum = singular_spectrum(series, config)
        matrix = fresh_cwt(series, grid)
        transform = matrix.values.copy()
        maxima = find_modulus_maxima(matrix)
        lines = chain_from_matrix(maxima, matrix)
        pf = partition(lines, config.q_grid(), grid)
    expected = legendre_spectrum(estimate_tau(pf, config.fit_window(series.length)))
    assert len(seen["rows"]) == n_scales
    for i, (positions, moduli) in enumerate(seen["rows"]):
        assert positions.dtype == np.int32 and np.array_equal(positions, maxima[i])
        assert moduli.tobytes() == np.abs(transform[i, maxima[i]]).tobytes()
    assert len(seen["lines"]) == len(lines)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen["lines"], lines))
    assert seen["pf"].log2_Z.tobytes() == pf.log2_Z.tobytes()
    assert np.array_equal(seen["pf"].line_counts, pf.line_counts)
    for field in ("tau", "tau_stderr", "alpha", "D", "fit_r2"):
        assert getattr(spectrum, field).tobytes() == getattr(expected, field).tobytes(), field


def test_spectrum_cpu_count_changes_no_bit(monkeypatch):
    used = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            used.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    series = _cascade_path()
    spectra = {}
    for cpus in (1, 2, 16):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        spectra[cpus] = singular_spectrum(series)
    # one pool per spectrum, none per row
    assert used == [1, 2, threads.MAX_CWT_THREADS]
    for field in ("tau", "tau_stderr", "alpha", "D", "fit_r2"):
        assert getattr(spectra[1], field).tobytes() == getattr(spectra[2], field).tobytes(), field
        assert getattr(spectra[1], field).tobytes() == getattr(spectra[16], field).tobytes(), field


def test_one_worker_transforms_every_row_into_one_buffer(monkeypatch):
    # a second row buffer that a lone worker also writes is resident memory for nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    original = wtmm.cwt
    buffers = set()

    def recording_cwt(series, scale_grid, spectrum, out, *rest):
        buffers.add(out.ctypes.data)
        return original(series, scale_grid, spectrum, out, *rest)

    monkeypatch.setattr(wtmm, "cwt", recording_cwt)
    singular_spectrum(TimeSeries(_random_walk(2**14)))
    assert len(buffers) == 1


@pytest.mark.parametrize("failing_row", [0, 7, 64])
def test_a_worker_error_is_the_spectrum_error_and_stops_every_worker(monkeypatch, failing_row):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    original = wtmm.find_modulus_maxima
    before = threading.active_count()

    def failing(matrix):
        if matrix.scales[0] == grid[failing_row]:
            raise ValueError("row failed")
        return original(matrix)

    series = _cascade_path()
    grid = WtmmConfig().scale_grid(series.length)
    monkeypatch.setattr(wtmm, "find_modulus_maxima", failing)
    with pytest.raises(ValueError, match="^row failed$"):
        singular_spectrum(series)
    assert threading.active_count() == before


def test_singular_spectrum_holds_no_whole_matrix():
    series = _cascade_path()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            singular_spectrum(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the 65-scale matrix alone would be 520 bytes per sample; with a new
    # 8-row block per step the peak was 127 bytes per sample, with a reused
    # 4-row buffer and the lines as a list of slices 95.7
    assert peak / series.length <= 85, peak


def test_lines_dying_inside_the_window_still_warn():
    with pytest.warns(UserWarning, match=r"no maxima lines reach scales [0-9.]+\.\.64;"):
        singular_spectrum(_wave_packet(), WtmmConfig(fit_max_scale=64.0))


@pytest.mark.parametrize("fit_range", [(1.0, 3.0), (8.0, 5.0), (4.0, 4.5)])
def test_fit_window_without_three_scales_is_refused_before_the_transform(
    monkeypatch, fit_range
):
    def no_transform(*args):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(wtmm, "cwt", no_transform)
    config = WtmmConfig(fit_min_scale=fit_range[0], fit_max_scale=fit_range[1])
    with pytest.raises(ValueError, match="leaves fewer than 3 usable scales"):
        singular_spectrum(TimeSeries(_random_walk(4096)), config)


def test_singular_spectrum_rejects_short_series():
    with pytest.raises(ValueError):
        singular_spectrum(TimeSeries(np.arange(512.0)))


def test_overflowing_q_range_is_refused_without_a_warning():
    config = WtmmConfig(q_min=-1e308, q_max=1e308, n_q=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tau, alpha or D is not finite"):
            singular_spectrum(TimeSeries(_random_walk(4096)), config)


def test_partition_memory_does_not_grow_with_the_q_count():
    rng = np.random.default_rng(3)
    lines = held([np.exp(rng.normal(size=8)) for _ in range(4000)])
    scales = default_scale_grid(2**10)[:8]
    peaks = []
    for n_q in (5, 405):
        tracemalloc.start()
        try:
            partition_function(lines, np.linspace(-5.0, 5.0, n_q), scales)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 400 more q values add their rows of log2_Z, not an (n_q, lines) temporary
    assert peaks[1] - peaks[0] < 400 * 8 * 8 + 2**16, peaks
