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
  ``singular_spectrum`` transforms the grid in blocks of 2 rows, each
  into the same buffer, and keeps only each row's maxima and their
  moduli, so no whole matrix is held;
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
# Transform rows held at once by `singular_spectrum`, in one reused buffer:
# one per `cwt` thread.  On a 2**19-point path `spectrum` peaked at 73.6,
# 83.7 and 92.0 MiB with blocks of 1, 2 and 4 rows; one row per block leaves
# the second thread idle and took about 0.2 s longer.
_CWT_BLOCK = MAX_CWT_THREADS


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


def cwt(series: TimeSeries, scale_grid, spectrum=None, out=None) -> CwtMatrix:
    """Periodic continuous wavelet transform with 1/s normalization.

    ``W(x, s) = (1/s) sum_u f(u) psi((u - x)/s)`` with ``psi`` the Mexican
    hat and ``f`` extended periodically, evaluated for every sample position
    as ``irfft(rfft(f) * Psi(s w))``, where ``Psi(s w) = -sqrt(2 pi) (s w)^2
    exp(-(s w)^2 / 2)`` is the closed-form Fourier transform of
    ``psi(t / s) / s`` at the DFT frequencies ``w = 2 pi k / n``.  Scales
    must lie in ``[2, L/4]`` where the wavelet is well sampled and not yet
    wrap-dominated.  ``spectrum``, when given, must be
    ``np.fft.rfft(series.values)``: a caller that transforms the grid in
    blocks computes it once.  ``out``, when given, is the float array of
    shape ``(scales, n)`` the rows are written to, whatever it held, so such
    a caller can reuse one buffer.  The rows are computed on a few threads;
    no bit depends on their number.
    """
    scale_grid = np.asarray(scale_grid, dtype=float)
    n = series.length
    if np.any(scale_grid < 2.0) or np.any(scale_grid > n / 4.0):
        raise ValueError(f"scales must lie within [2, {n / 4:g}] samples")
    if np.any(np.diff(scale_grid) <= 0):
        raise ValueError("scales must be strictly increasing")
    if spectrum is None:
        spectrum = np.fft.rfft(series.values)
    if out is None:
        out = np.empty((scale_grid.size, n))
    elif out.shape != (scale_grid.size, n) or out.dtype != np.float64:
        raise ValueError(f"out must be a float array of shape {(scale_grid.size, n)}")
    if not scale_grid.size:
        return CwtMatrix(scales=scale_grid, values=out)
    # Only the finest scale's band is built, with 3 frequencies to spare for
    # the estimate's rounding: a block of coarse rows reads a small prefix.
    top = min(spectrum.size, int(_KERNEL_BAND / scale_grid[0] * n / (2.0 * np.pi)) + 3)
    omega = np.arange(top, dtype=float)
    omega *= 2.0 * np.pi
    omega /= n  # the bits of 2.0 * np.pi * k / n
    # One product buffer per thread, allocated here: what a thread allocates
    # stays in its arena, where the later stages cannot reuse it.
    pool = queue.SimpleQueue()
    for _ in range(min(scale_grid.size, MAX_CWT_THREADS)):
        pool.put(np.empty_like(spectrum))

    def transform_row(i: int) -> None:
        s = scale_grid[i]
        band = int(np.searchsorted(omega, _KERNEL_BAND / s, side="right"))
        product = pool.get()
        # the row is the kernel's scratch until the inverse transform fills it
        w2 = np.multiply(omega[:band], s, out=out[i, :band])
        np.square(w2, out=w2)
        e = np.multiply(w2, -0.5, out=product.real[:band])  # overwritten by the product below
        np.exp(e, out=e)
        w2 *= -_SQRT_2PI
        w2 *= e  # Psi(s w) = (-sqrt(2 pi) (s w)^2) exp(-(s w)^2 / 2)
        np.multiply(spectrum[:band], w2, out=product[:band])
        product[band:] = 0.0
        np.fft.irfft(product, n=n, out=out[i])
        pool.put(product)

    thread_map(transform_row, range(scale_grid.size), MAX_CWT_THREADS)
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
    if np.all(m == m[0]):
        return np.empty(0, dtype=np.int64)
    # Run-based scan for data with exact ties.
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
    identically, far below any genuine singularity response.
    """
    out = []
    for row in matrix.values:
        m = np.abs(row)
        idx = _local_maxima_circular(m)
        if idx.size:
            idx = idx[m[idx] > _NOISE_FLOOR * m.max()]
        out.append(idx)
    return out


def _circular_distance(a, b, n):
    d = np.abs(a - b)
    return np.minimum(d, n - d)


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
    rank = np.arange(order.size)
    won = np.zeros(order.size, dtype=bool)  # by rank
    line_free = np.ones(line.max(initial=-1) + 1, dtype=bool)
    cand_free = np.ones(cand.max(initial=-1) + 1, dtype=bool)
    while rank.size:
        line_best = np.full(line_free.size, order.size)
        np.minimum.at(line_best, line, rank)
        cand_best = np.full(cand_free.size, order.size)
        np.minimum.at(cand_best, cand, rank)
        first = (line_best[line] == rank) & (cand_best[cand] == rank)
        won[rank[first]] = True
        line_free[line[first]] = False
        cand_free[cand[first]] = False
        keep = line_free[line] & cand_free[cand]
        line, cand, rank = line[keep], cand[keep], rank[keep]
    return order[won]


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


def chain_maxima_lines(maxima: list, moduli: list, scales, length: int) -> MaximaLines:
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

    ``maxima[i]`` holds the sorted positions of the maxima at ``scales[i]``
    on a periodic series of ``length`` samples, and ``moduli[i]`` the
    transform modulus at each of them.  Line ``k`` of the result is the
    array of its moduli, fine to coarse: it starts at ``maxima[0][k]`` and
    its entry ``i`` lies at scale index ``i``.
    """
    scales = np.asarray(scales, dtype=float)
    if len(maxima) != scales.size or len(moduli) != scales.size:
        raise ValueError("need one maxima list and one moduli list per scale")
    heads = np.asarray(maxima[0] if maxima else [], dtype=np.int64)
    if heads.size == 0:
        return MaximaLines(np.empty(0), np.empty(0, dtype=np.int64))
    # line ids, in the order the heads were accepted: fewer than the series
    # length, which the memory budget keeps far below 2**31
    alive = np.arange(heads.size, dtype=np.int32)
    line_ids = [alive]
    line_moduli = [moduli[0]]
    for i in range(1, scales.size):
        cands = np.asarray(maxima[i], dtype=np.int64)
        if alive.size == 0 or cands.size == 0:
            break
        radius = max(1.0, _LINK_FACTOR * scales[i])
        idx = np.searchsorted(cands, heads)
        pair_line = np.tile(np.arange(alive.size), 2)
        pair_cand = np.concatenate([(idx - 1) % cands.size, idx % cands.size])
        dist = _circular_distance(heads[pair_line], cands[pair_cand], length)
        ok = dist <= radius
        pair_line, pair_cand = pair_line[ok], pair_cand[ok]
        accepted = _greedy_matching(pair_line, pair_cand, dist[ok])
        won = pair_cand[accepted]
        alive = alive[pair_line[accepted]]
        heads = cands[won]
        line_ids.append(alive)
        line_moduli.append(moduli[i][won])
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
    dft = np.fft.rfft(series.values)
    buffer = np.empty((min(_CWT_BLOCK, grid.size), series.length))
    maxima, moduli = [], []
    for k in range(0, grid.size, _CWT_BLOCK):
        scales = grid[k : k + _CWT_BLOCK]
        block = cwt(series, scales, dft, out=buffer[: scales.size])
        for row, idx in zip(block.values, find_modulus_maxima(block)):
            maxima.append(idx.astype(np.int32))  # below the length, which fits 32 bits
            moduli.append(np.abs(row[idx]))
    del dft, buffer, block, row  # chaining and the partition reuse this memory
    lines = chain_maxima_lines(maxima, moduli, grid, series.length)
    del maxima, moduli  # the partition needs only the lines
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
