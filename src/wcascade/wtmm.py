"""Wavelet transform modulus maxima estimation of the singular spectrum.

The pipeline is: continuous wavelet transform with the Mexican hat as
analyzing wavelet, detection of the local maxima of the transform modulus
at every scale, chaining of those maxima into ridge lines across scales,
the moment partition function built from per-line modulus suprema, a
log-log regression for the scaling exponents tau(q), and finally the
Legendre transform to the singular spectrum D(alpha).

Conventions frozen here because they move the estimates:

* the transform uses the L1 normalization ``(1/s) * integral f(u)
  psi((u - x)/s) du``, under which a local regularity exponent ``a`` shows
  up as modulus growth ``s**a``;
* signals are treated as periodic: each transform row is the inverse DFT
  of the signal's DFT times the Mexican hat's closed-form spectrum;
  ``singular_spectrum`` transforms each row on a worker thread, into a
  buffer the worker reuses, and keeps only the row's maxima and their
  moduli, which the main thread chains while later rows are transformed,
  so no whole matrix is held;
* the scale grid is geometric (8 voices per octave from 4 samples),
  and the power-law fit defaults to scales below 1024 samples where the
  scaling regime is clean; the grid stops at the fit window's top (at
  most an eighth of the signal), since no coarser scale enters the fit;
* a ridge line must reach all the way down to the finest scale of the grid
  to be counted, and the supremum entering the partition function at scale
  ``s`` is taken over the line's points at scales up to ``s``, which keeps
  negative moments stable.
"""

from __future__ import annotations

import contextlib
import math
import queue
import warnings
from dataclasses import dataclass

import numpy as np

from wcascade.dwt import TimeSeries
from wcascade.stats import ols
from wcascade.threads import MAX_CWT_THREADS, thread_map

__all__ = [
    "CwtMatrix",
    "MaximaLines",
    "PartitionFunction",
    "TauEstimate",
    "SingularSpectrum",
    "WtmmConfig",
    "default_scale_grid",
    "cwt",
    "find_modulus_maxima",
    "chain_maxima_lines",
    "partition_function",
    "estimate_tau",
    "legendre_spectrum",
    "singular_spectrum",
    "legendre_duality_error",
]

_LN2 = math.log(2.0)

# Finest scale of the grid, in samples; the coarsest is an eighth of the series.
_MIN_SCALE = 4.0
# Geometric steps of the scale grid per doubling of the scale.
_VOICES_PER_OCTAVE = 8
# Maxima below this fraction of a row's largest modulus are FFT roundoff.
_NOISE_FLOOR = 1e-13
# Largest move of a ridge line to the next row, as a fraction of its scale.
_LINK_FACTOR = 0.5
# exp(-w*w/2) underflows to exactly 0.0 for |w| > 38.61, so the kernel's
# spectrum is zero above this scaled frequency.
_KERNEL_BAND = 40.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# (q, line) terms per block of the partition sums; the blocks come on top
# of the line moduli, which stay alive through the partition
_PARTITION_BLOCK = 1 << 13


@dataclass
class CwtMatrix:
    """Samples of the continuous wavelet transform on a scale/position grid."""

    scales: np.ndarray
    values: np.ndarray  # shape (n_scales, n_positions), positions 0..n-1


def default_scale_grid(length: int) -> np.ndarray:
    """Geometric scale grid from 4 samples to ``length / 8``."""
    max_scale = length / 8.0
    if not _MIN_SCALE < max_scale:
        raise ValueError(f"series of length {length} is too short for a scale grid")
    n = int(math.floor(_VOICES_PER_OCTAVE * math.log2(max_scale / _MIN_SCALE))) + 1
    grid = _MIN_SCALE * 2.0 ** (np.arange(n) / _VOICES_PER_OCTAVE)
    return grid[grid <= max_scale * (1 + 1e-12)]


def _frequencies(scale: float, n: int) -> np.ndarray:
    """The DFT frequencies ``2 pi k / n`` up to the kernel's band at ``scale``.

    Three frequencies are kept to spare for the estimate's rounding; the
    grid covers the band of every coarser scale too.
    """
    top = min(n // 2 + 1, int(_KERNEL_BAND / scale * n / (2.0 * np.pi)) + 3)
    omega = np.arange(top, dtype=float)
    omega *= 2.0 * np.pi
    omega /= n  # the bits of 2.0 * np.pi * k / n
    return omega


def cwt(series: TimeSeries, scale_grid, spectrum, out, frequencies, product) -> CwtMatrix:
    """Periodic continuous wavelet transform with 1/s normalization.

    ``W(x, s) = (1/s) sum_u f(u) psi((u - x)/s)`` with ``psi`` the Mexican
    hat and ``f`` extended periodically, evaluated for every sample position
    as ``irfft(rfft(f) * Psi(s w))``, where ``Psi(s w) = -sqrt(2 pi) (s w)^2
    exp(-(s w)^2 / 2)`` is the closed-form Fourier transform of
    ``psi(t / s) / s`` at the DFT frequencies ``w = 2 pi k / n``.  Scales
    must lie in ``[2, L/4]`` where the wavelet is well sampled and not yet
    wrap-dominated.

    The caller passes what every call shares.  ``spectrum`` must be
    ``np.fft.rfft(series.values)``.  ``out`` is the float array of shape
    ``(scales, n)`` the rows are written to, whatever it held.
    ``frequencies`` must hold ``2 pi k / n`` in the bits of
    ``2.0 * np.pi * k / n`` for ``k = 0, 1, ...``, through the band of the
    grid's finest scale.  ``product`` is a complex array shaped like
    ``spectrum``, the scratch of the kernel product.
    """
    scale_grid = np.asarray(scale_grid, dtype=float)
    n = series.length
    if np.any(scale_grid < 2.0) or np.any(scale_grid > n / 4.0):
        raise ValueError(f"scales must lie within [2, {n / 4:g}] samples")
    if np.any(np.diff(scale_grid) <= 0):
        raise ValueError("scales must be strictly increasing")
    if out.shape != (scale_grid.size, n) or out.dtype != np.float64:
        raise ValueError(f"out must be a float array of shape {(scale_grid.size, n)}")
    for row, s in zip(out, scale_grid):
        band = int(np.searchsorted(frequencies, _KERNEL_BAND / s, side="right"))
        # the row is the kernel's scratch until the inverse transform fills it
        w2 = np.multiply(frequencies[:band], s, out=row[:band])
        np.square(w2, out=w2)
        e = np.multiply(w2, -0.5, out=product.real[:band])  # overwritten by the product below
        np.exp(e, out=e)
        w2 *= -_SQRT_2PI
        w2 *= e  # Psi(s w) = (-sqrt(2 pi) (s w)^2) exp(-(s w)^2 / 2)
        # Psi as complex, as numpy's cast makes it: a float operand has numpy allocate a cast
        # buffer without the GIL, which a tracemalloc.stop() on another thread can crash (3.11)
        product.real[:band] = w2
        product.imag[:band] = 0.0
        np.multiply(spectrum[:band], product[:band], out=product[:band])
        product[band:] = 0.0
        np.fft.irfft(product, n=n, out=row)
    return CwtMatrix(scales=scale_grid, values=out)


def _local_maxima_circular(m: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima of a periodic sequence.

    A plateau counts once, through its leftmost index, and only when its
    value dominates the values on both sides of the run.
    """
    n = m.size
    has_plateau = bool(np.any(m[1:] == m[:-1])) or m[0] == m[-1]
    if not has_plateau:
        inner = m[1:-1]
        peak = inner > m[:-2]
        peak &= inner > m[2:]
        idx = np.flatnonzero(peak) + 1
        # the two ends, whose neighbours wrap around
        head = [0] if m[0] > m[-1] and m[0] > m[1] else []
        tail = [n - 1] if m[-1] > m[-2] and m[-1] > m[0] else []
        if head or tail:
            idx = np.concatenate([np.array(head, dtype=idx.dtype), idx, np.array(tail, dtype=idx.dtype)])
        return idx
    # Run-based scan for data with exact ties; a constant row has no run start.
    change = np.flatnonzero(m != np.roll(m, 1))  # run starts, circular
    run_vals = m[change]
    prev_vals = np.roll(run_vals, 1)
    next_vals = np.roll(run_vals, -1)
    keep = (run_vals > prev_vals) & (run_vals > next_vals)
    return change[keep]


def find_modulus_maxima(matrix: CwtMatrix) -> list:
    """Per-scale position arrays of the local maxima of ``|W(x, s)|``.

    Maxima below 1e-13 times the row's largest modulus are discarded: they
    are FFT roundoff ripple on regions where the transform vanishes
    identically, far below any genuine singularity response.  The moduli
    are taken in place: ``matrix.values`` holds ``|W|`` afterwards.
    """
    out = []
    for m in matrix.values:
        np.abs(m, out=m)
        idx = _local_maxima_circular(m)
        out.append(idx[m[idx] > _NOISE_FLOOR * m.max()])
    return out


def _greedy_matching(line: np.ndarray, cand: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Indices of the greedy matching's edges, in ``(dist, edge index)`` order.

    A greedy scan in that order accepts each edge whose two ends are still
    free.  The same matching comes in rounds of locally dominant edges
    (Preis, STACS 1999): each round accepts every remaining edge that ranks
    first among the remaining edges at both of its ends, then drops every
    edge that touches an accepted end.
    """
    order = np.argsort(dist, kind="stable")
    line, cand = line[order], cand[order]
    rank = np.arange(order.size, dtype=np.int32)
    won = np.zeros(order.size, dtype=bool)  # by rank
    line_free = np.ones(line.max(initial=-1) + 1, dtype=bool)
    cand_free = np.ones(cand.max(initial=-1) + 1, dtype=bool)
    while rank.size:
        line_best = np.full(line_free.size, order.size, dtype=np.int32)
        np.minimum.at(line_best, line, rank)
        cand_best = np.full(cand_free.size, order.size, dtype=np.int32)
        np.minimum.at(cand_best, cand, rank)
        first = (line_best[line] == rank) & (cand_best[cand] == rank)
        won[rank[first]] = True
        line_free[line[first]] = False
        cand_free[cand[first]] = False
        keep = line_free[line] & cand_free[cand]
        line, cand, rank = line[keep], cand[keep], rank[keep]
    return order[won]


def _link(heads: np.ndarray, cands: np.ndarray, radius: float, length: int) -> tuple:
    """Indices into ``heads`` and into ``cands`` of the edges that chaining accepts, in order.

    Each head is offered its left and right neighbours among the sorted
    ``cands``, if within ``radius`` in circular distance on ``length``
    samples; positions and indices are int32.  The pair arrays die on
    return, so none is held while the next row is transformed.
    """
    idx = np.searchsorted(cands, heads).astype(np.int32)
    pair_line = np.tile(np.arange(heads.size, dtype=np.int32), 2)
    pair_cand = np.concatenate([(idx - 1) % cands.size, idx % cands.size])
    dist = np.abs(heads[pair_line] - cands[pair_cand])
    np.minimum(dist, length - dist, out=dist)  # circular
    ok = dist <= int(radius)  # for integer distances the same test, with no float cast
    pair_line, pair_cand = pair_line[ok], pair_cand[ok]
    accepted = _greedy_matching(pair_line, pair_cand, dist[ok])
    return pair_line[accepted], pair_cand[accepted]


@dataclass(eq=False)
class MaximaLines:
    """Ridge lines held as one array: each line's moduli, line after line.

    Line ``k`` has ``lengths[k]`` points and starts where line ``k - 1``
    ends; its entry ``i`` lies at scale index ``i``.  ``len(lines)`` is the
    line count, and iteration gives each line, in order, as a view of
    ``values``.
    """

    values: np.ndarray  # float moduli
    lengths: np.ndarray  # int64, one per line

    def __len__(self) -> int:
        return self.lengths.size

    def __iter__(self):
        start = 0
        for n in self.lengths.tolist():
            yield self.values[start : start + n]
            start += n


def chain_maxima_lines(rows, scales, length: int) -> MaximaLines:
    """Link per-scale maxima into ridge lines from fine to coarse scales.

    Greedy nearest-neighbour matching between the heads of live lines and
    the maxima of the next scale; the admissible move to the scale ``s``
    row is ``|dx| <= max(1, s / 2)`` in circular distance.  Half a scale
    accommodates the drift of real ridge lines (which live in cones
    ``|x - x0| ~ s``) while staying below the typical maxima spacing, so
    unrelated ridges are not glued together.  A line that finds no
    continuation is closed and kept; maxima that appear first at a coarser
    scale can never satisfy completeness and are dropped.  Each head is
    offered its two nearest maxima, and the edges are taken in order of
    distance; equal distances take every head's left neighbour before any
    right one, and the heads in the order they were accepted.

    ``rows`` yields one ``(positions, moduli)`` pair per scale, fine to
    coarse: the sorted positions of the maxima at ``scales[i]`` on a
    periodic series of ``length`` samples, below ``2**31``, and the
    transform modulus at each of them.  Rows are pulled one at a time, and
    none once no line is alive.  Line ``k`` of the result is the array of
    its moduli, fine to coarse: it starts at the ``k``-th position of the
    first row and its entry ``i`` lies at scale index ``i``.
    """
    scales = np.asarray(scales, dtype=float)
    # line ids, in the order the heads were accepted, alive at each scale
    line_ids, line_moduli = [], []
    for i, (positions, moduli) in enumerate(rows):
        if i == scales.size:
            raise ValueError("need one row of maxima per scale")
        cands = np.asarray(positions, dtype=np.int32)
        if i == 0:
            alive, won = np.arange(cands.size, dtype=np.int32), slice(None)
        elif cands.size:
            linked, won = _link(heads, cands, max(1.0, _LINK_FACTOR * scales[i]), length)
            alive = alive[linked]
        else:
            break
        heads = cands[won]
        line_ids.append(alive)
        line_moduli.append(moduli[won])
        if not alive.size:
            break
    else:
        if len(line_ids) != scales.size:
            raise ValueError("need one row of maxima per scale")
    if not line_ids:
        return MaximaLines(np.empty(0), np.empty(0, dtype=np.int64))
    lengths = np.empty(line_ids[0].size, dtype=np.int64)
    for i, ids in enumerate(line_ids):
        lengths[ids] = i + 1  # the ids alive at scale i are alive at every finer one
    starts = np.cumsum(lengths) - lengths
    by_line = np.empty(lengths.sum())
    for i, (ids, values) in enumerate(zip(line_ids, line_moduli)):
        by_line[starts[ids] + i] = values
    return MaximaLines(by_line, lengths)


@dataclass
class PartitionFunction:
    """Moment sums ``Z(q, s)`` over the surviving maxima lines at scale s.

    Only ``log2 Z`` is kept: ``Z`` itself overflows at large |q|.
    """

    q_grid: np.ndarray
    scales: np.ndarray
    log2_Z: np.ndarray  # shape (n_q, n_scales)
    line_counts: np.ndarray


def _log2_power_sums(q: np.ndarray, log_sup: np.ndarray) -> np.ndarray:
    """``log2 sum_j exp(q_k log_sup_j)`` per ``q_k``, shifted by each row's largest term."""
    terms = np.multiply.outer(q, log_sup)
    peak = terms.max(axis=1)
    terms -= peak[:, None]
    return (peak + np.log(np.sum(np.exp(terms, out=terms), axis=1))) / _LN2


def partition_function(lines: MaximaLines, q_grid, scales) -> PartitionFunction:
    """Build ``Z(q, s)`` from per-line running modulus suprema.

    ``lines`` is the :class:`MaximaLines` that :func:`chain_maxima_lines`
    returns: each line is the array of its moduli, entry ``i`` at scale
    index ``i``.  For each line alive at scale index i the contribution is
    ``sup_{i' <= i} modulus(i')`` raised to the power q, so ``Z(0, s)``
    counts the lines alive at s.  Sums are accumulated in the log domain,
    over the lines in order, for stability at large negative q.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n_s = scales.size
    moduli, lengths = lines.values, lines.lengths
    if np.any(moduli <= 0):
        raise ValueError("maxima lines must have strictly positive moduli")
    log2_Z = np.full((q_grid.size, n_s), -np.inf)
    counts = np.zeros(n_s, dtype=np.int64)
    # each live line's offset in `moduli`, its length and its running supremum
    at, live, sup = np.cumsum(lengths) - lengths, lengths, np.full(lengths.size, -np.inf)
    for i in range(n_s):
        keep = live > i
        at, live = at[keep], live[keep]
        if not at.size:
            break
        sup = np.maximum(sup[keep], np.log(moduli[at + i]))
        counts[i] = sup.size
        rows = max(1, _PARTITION_BLOCK // sup.size)
        for k in range(0, q_grid.size, rows):  # memory does not grow with n_q
            log2_Z[k : k + rows, i] = _log2_power_sums(q_grid[k : k + rows], sup)
    if np.any(counts == 0):
        empty = scales[counts == 0]
        warnings.warn(
            f"no maxima lines reach scales {empty.min():g}..{empty.max():g}; "
            "they are excluded from any fit range",
            stacklevel=2,
        )
    return PartitionFunction(q_grid=q_grid, scales=scales, log2_Z=log2_Z, line_counts=counts)


@dataclass
class TauEstimate:
    """Per-q scaling exponents from the log-log partition function fit."""

    q_grid: np.ndarray
    tau: np.ndarray
    stderr: np.ndarray
    r2: np.ndarray


def _fit_scales(scales: np.ndarray, fit_range: tuple, reached=True) -> np.ndarray:
    """Mask of the ``reached`` scales inside ``fit_range``; fewer than 3 is an error."""
    lo, hi = fit_range
    usable = (scales >= lo) & (scales <= hi) & reached
    if np.count_nonzero(usable) < 3:
        raise ValueError(
            f"fit range [{lo:g}, {hi:g}] leaves fewer than 3 usable scales"
        )
    return usable


def estimate_tau(pf: PartitionFunction, fit_range: tuple) -> TauEstimate:
    """Least-squares slope of log2 Z(q, s) against log2 s per moment order."""
    usable = _fit_scales(pf.scales, fit_range, pf.line_counts > 0)
    log_s = np.log2(pf.scales[usable])
    tau = np.empty(pf.q_grid.size)
    stderr = np.empty(pf.q_grid.size)
    r2 = np.empty(pf.q_grid.size)
    for k in range(pf.q_grid.size):
        fit = ols(log_s, pf.log2_Z[k, usable])
        tau[k] = fit.slope
        stderr[k] = fit.stderr_slope
        r2[k] = fit.r2
    return TauEstimate(
        q_grid=pf.q_grid.copy(),
        tau=tau,
        stderr=stderr,
        r2=r2,
    )


@dataclass
class SingularSpectrum:
    """Scaling exponents and their Legendre transform.

    ``tau`` is the least concave majorant of the fitted exponents and
    ``tau_stderr`` the fits' standard errors.  ``alpha`` is the derivative
    of tau on the q grid (centered differences, one-sided at the ends) and
    ``D = q * alpha - tau``; ``support`` is the alpha range and
    ``peak_alpha`` the alpha at the q closest to zero.
    """

    q_grid: np.ndarray
    tau: np.ndarray
    tau_stderr: np.ndarray
    alpha: np.ndarray
    D: np.ndarray
    support: tuple
    peak_alpha: float
    concavity_violation: float = 0.0
    fit_r2: np.ndarray | None = None


def _concave_envelope(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Least concave majorant of points (q, t) evaluated on the q grid."""
    hull = [0]
    for i in range(1, q.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            s_ab = (t[b] - t[a]) / (q[b] - q[a])
            s_bi = (t[i] - t[b]) / (q[i] - q[b])
            if s_bi >= s_ab:  # slope failed to decrease: b is below the hull
                hull.pop()
            else:
                break
        hull.append(i)
    return np.interp(q, q[hull], t[hull])


def legendre_spectrum(tau_est: TauEstimate) -> SingularSpectrum:
    """Discrete Legendre transform of an estimated tau(q) table.

    Concavity violations beyond the fit noise are flagged with a warning
    and the transform is taken on the least concave majorant, which leaves
    already-concave input untouched.  The majorant is what the result
    stores as ``tau``, so ``(tau, alpha, D)`` is one Legendre pair.
    """
    q = np.asarray(tau_est.q_grid, dtype=float)
    tau = np.asarray(tau_est.tau, dtype=float)
    if q.size < 3:
        raise ValueError("need at least 3 q points")
    slopes = np.diff(tau) / np.diff(q)
    violation = float(max(0.0, np.max(np.diff(slopes))))
    noise = 3.0 * float(np.max(tau_est.stderr)) + 1e-12
    if violation > noise:
        warnings.warn(
            f"tau(q) is non-concave beyond fit noise (violation {violation:.3g}); "
            "using its concave envelope",
            stacklevel=2,
        )
    hull = _concave_envelope(q, tau)
    alpha = np.empty_like(hull)
    alpha[1:-1] = (hull[2:] - hull[:-2]) / (q[2:] - q[:-2])
    alpha[0] = (hull[1] - hull[0]) / (q[1] - q[0])
    alpha[-1] = (hull[-1] - hull[-2]) / (q[-1] - q[-2])
    D = q * alpha - hull
    peak_alpha = float(alpha[np.argmin(np.abs(q))])
    return SingularSpectrum(
        q_grid=q,
        tau=hull,
        tau_stderr=np.asarray(tau_est.stderr, dtype=float),
        alpha=alpha,
        D=D,
        support=(float(alpha.min()), float(alpha.max())),
        peak_alpha=peak_alpha,
        concavity_violation=violation,
        fit_r2=np.asarray(tau_est.r2, dtype=float),
    )


@dataclass
class WtmmConfig:
    """Grids and fit window for the end-to-end spectrum estimate."""

    # The finest voice carries discretization bias that inflates negative
    # moments, so the default fit window starts one octave up.
    fit_min_scale: float | None = None  # defaults to 8 samples
    fit_max_scale: float | None = None  # defaults to min(1024, L/8)
    q_min: float = -5.0
    q_max: float = 5.0
    n_q: int = 41

    def scale_grid(self, length: int) -> np.ndarray:
        """The default grid up to the fit window's top: coarser rows never enter the fit."""
        grid = default_scale_grid(length)
        return grid[grid <= self.fit_window(length)[1] * (1 + 1e-12)]

    def fit_window(self, length: int) -> tuple:
        lo = self.fit_min_scale if self.fit_min_scale is not None else 2.0 * _MIN_SCALE
        hi = self.fit_max_scale if self.fit_max_scale is not None else min(1024.0, length / 8.0)
        return (lo, hi)

    def q_grid(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)


def _maxima_rows(series: TimeSeries, grid: np.ndarray):
    """Each row's maxima positions, as int32, and the moduli there, in grid order.

    Each running worker transforms one row at a time with :func:`cwt`, into
    one of ``MAX_CWT_THREADS`` row and product buffer pairs made here once,
    and finds the row's maxima with :func:`find_modulus_maxima`.  A worker
    takes the pair returned last, so a lone worker writes one pair only: on
    one CPU a 2**19-point ``spectrum`` peaked at 71.6-73.0 MiB, not 78.5-78.9.
    The pairs are released when the rows run out or the generator is closed.
    """
    n = series.length
    dft = np.fft.rfft(series.values)
    frequencies = _frequencies(grid[0], n)
    buffers = queue.LifoQueue()
    for _ in range(MAX_CWT_THREADS):
        buffers.put((np.empty((1, n)), np.empty_like(dft)))

    def maxima_row(i: int):
        row, product = buffers.get()
        try:
            matrix = cwt(series, grid[i : i + 1], dft, row, frequencies, product)
            idx = find_modulus_maxima(matrix)[0]
            return idx.astype(np.int32), row[0, idx]
        finally:
            buffers.put((row, product))

    yield from thread_map(maxima_row, range(grid.size), MAX_CWT_THREADS)


def singular_spectrum(series: TimeSeries, config: WtmmConfig | None = None) -> SingularSpectrum:
    """Full modulus-maxima spectrum estimate for a series of length >= 1024."""
    config = config or WtmmConfig()
    if series.length < 1024:
        raise ValueError(
            f"series too short for spectrum estimation: {series.length} < 1024"
        )
    grid = config.scale_grid(series.length)
    fit_range = config.fit_window(series.length)
    _fit_scales(grid, fit_range)  # refused before the transform is computed
    with contextlib.closing(_maxima_rows(series, grid)) as rows:
        lines = chain_maxima_lines(rows, grid, series.length)
    # overflow at extreme q shows up as inf or nan and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        pf = partition_function(lines, config.q_grid(), grid)
        spectrum = legendre_spectrum(estimate_tau(pf, fit_range))
    if not all(np.all(np.isfinite(v)) for v in (spectrum.tau, spectrum.alpha, spectrum.D)):
        raise ValueError("tau, alpha or D is not finite; narrow the q range")
    return spectrum


def legendre_duality_error(spectrum: SingularSpectrum) -> float:
    """Max gap in the duality ``tau(q) = min_alpha (q alpha - D(alpha))``.

    Each (alpha_k, D_k) pair defines the tangent line ``q alpha_k - D_k``;
    for a concave tau table those tangents envelope the curve from above,
    so their pointwise minimum recovers tau.  Small for concave tables;
    used as an internal consistency check of serialized spectra.
    """
    q = spectrum.q_grid
    recovered = np.min(q[:, None] * spectrum.alpha[None, :] - spectrum.D[None, :], axis=1)
    return float(np.max(np.abs(recovered - spectrum.tau)))
