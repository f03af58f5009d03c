"""Wavelet transform modulus maxima estimation of the singular spectrum.

The pipeline is: continuous wavelet transform with a Gaussian-derivative
analyzing wavelet, detection of the local maxima of the transform modulus
at every scale, chaining of those maxima into ridge lines across scales,
the moment partition function built from per-line modulus suprema, a
log-log regression for the scaling exponents tau(q), and finally the
Legendre transform to the singular spectrum D(alpha).

Conventions frozen here because they move the estimates:

* the transform uses the L1 normalization ``(1/s) * integral f(u)
  psi((u - x)/s) du``, under which a local regularity exponent ``a`` shows
  up as modulus growth ``s**a``;
* signals are treated as periodic, matching the discrete transform;
* the scale grid is geometric (default 8 voices per octave from 4 samples
  to an eighth of the signal), and the power-law fit defaults to scales
  below 1024 samples where the scaling regime is clean;
* a ridge line must reach all the way down to the finest scale of the grid
  to be counted, and the supremum entering the partition function at scale
  ``s`` is taken over the line's points at scales up to ``s``, which keeps
  negative moments stable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from wcascade.dwt import TimeSeries
from wcascade.stats import ols

__all__ = [
    "CwtMatrix",
    "MaximaLine",
    "PartitionFunction",
    "TauEstimate",
    "SingularSpectrum",
    "WtmmConfig",
    "gaussian_derivative_wavelet",
    "default_scale_grid",
    "cwt",
    "find_modulus_maxima",
    "chain_maxima_lines",
    "partition_function",
    "estimate_tau",
    "legendre_spectrum",
    "singular_spectrum",
    "legendre_duality_error",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "write_tau_csv",
    "write_spectrum_csv",
]

_LN2 = math.log(2.0)

# Analyzing wavelet: second derivative of the Gaussian (two vanishing moments).
_WAVELET_ORDER = 2
# Finest scale of the grid, in samples; the coarsest is an eighth of the series.
_MIN_SCALE = 4.0
# Maxima below this fraction of a row's largest modulus are FFT roundoff.
_NOISE_FLOOR = 1e-13
# Largest move of a ridge line to the next row, as a fraction of its scale.
_LINK_FACTOR = 0.5


def gaussian_derivative_wavelet(order: int, x):
    """N-th derivative of exp(-x^2/2).

    Evaluated through the probabilists' Hermite polynomials,
    ``d^N/dx^N exp(-x^2/2) = (-1)^N He_N(x) exp(-x^2/2)``; the result has
    exactly ``order`` vanishing moments.
    """
    if order < 1:
        raise ValueError("wavelet order must be >= 1")
    x = np.asarray(x, dtype=float)
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    he = np.polynomial.hermite_e.hermeval(x, coeffs)
    sign = -1.0 if order % 2 else 1.0
    out = sign * he * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


@dataclass
class CwtMatrix:
    """Samples of the continuous wavelet transform on a scale/position grid."""

    scales: np.ndarray
    values: np.ndarray  # shape (n_scales, n_positions), positions 0..n-1

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.scales) <= 0):
            raise ValueError("scales must be strictly increasing")
        if self.values.ndim != 2 or self.values.shape[0] != self.scales.size:
            raise ValueError("value matrix shape inconsistent with grids")

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class MaximaLine:
    """Chain of modulus maxima across scales, ordered fine to coarse.

    Entry ``i`` lies at index ``i`` of the transform's scale grid, so the
    line covers consecutive scales from the finest and satisfies the
    completeness requirement for every scale it reaches.
    """

    positions: np.ndarray
    moduli: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.moduli = np.asarray(self.moduli, dtype=float)
        if self.positions.size != self.moduli.size:
            raise ValueError("line fields must have equal lengths")
        if np.any(self.moduli < 0):
            raise ValueError("moduli must be non-negative")

    def __len__(self) -> int:
        return self.positions.size


def default_scale_grid(length: int, voices_per_octave: int = 8) -> np.ndarray:
    """Geometric scale grid from 4 samples to ``length / 8``."""
    max_scale = length / 8.0
    if not _MIN_SCALE < max_scale:
        raise ValueError(f"series of length {length} is too short for a scale grid")
    n = int(math.floor(voices_per_octave * math.log2(max_scale / _MIN_SCALE))) + 1
    grid = _MIN_SCALE * 2.0 ** (np.arange(n) / voices_per_octave)
    return grid[grid <= max_scale * (1 + 1e-12)]


def cwt(series: TimeSeries, order: int, scale_grid) -> CwtMatrix:
    """Continuous wavelet transform with periodic wrap and 1/s normalization.

    ``W(x, s) = (1/s) sum_u f(u) psi((u - x)/s)`` with ``psi`` the
    ``order``-th Gaussian derivative, evaluated for every
    sample position by FFT cross-correlation.  Scales must lie in
    ``[2, L/4]`` where the discretized wavelet is well sampled and not yet
    wrap-dominated.
    """
    scale_grid = np.asarray(scale_grid, dtype=float)
    x = series.values
    n = x.size
    if np.any(scale_grid < 2.0) or np.any(scale_grid > n / 4.0):
        raise ValueError(f"scales must lie within [2, {n / 4:g}] samples")
    if np.any(np.diff(scale_grid) <= 0):
        raise ValueError("scales must be strictly increasing")
    offsets = np.arange(n, dtype=float)
    offsets[offsets > n // 2] -= n  # signed circular offsets
    spectrum = np.fft.rfft(x)
    rows = np.empty((scale_grid.size, n))
    for i, s in enumerate(scale_grid):
        kernel = gaussian_derivative_wavelet(order, offsets / s) / s
        reversed_kernel = np.roll(kernel[::-1], 1)  # k[(-m) mod n]
        rows[i] = np.fft.irfft(spectrum * np.fft.rfft(reversed_kernel), n=n)
    return CwtMatrix(scales=scale_grid, values=rows)


def _local_maxima_circular(m: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima of a periodic sequence.

    A plateau counts once, through its leftmost index, and only when its
    value dominates the values on both sides of the run.
    """
    n = m.size
    has_plateau = bool(np.any(m[1:] == m[:-1])) or m[0] == m[-1]
    if not has_plateau:
        return np.flatnonzero((m > np.roll(m, 1)) & (m > np.roll(m, -1)))
    if np.all(m == m[0]):
        return np.empty(0, dtype=np.int64)
    # Run-based scan for data with exact ties.
    change = np.flatnonzero(m != np.roll(m, 1))  # run starts, circular
    run_vals = m[change]
    prev_vals = np.roll(run_vals, 1)
    next_vals = np.roll(run_vals, -1)
    keep = (run_vals > prev_vals) & (run_vals > next_vals)
    return np.sort(change[keep])


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


def chain_maxima_lines(maxima: list, matrix: CwtMatrix) -> list:
    """Link per-scale maxima into ridge lines from fine to coarse scales.

    Greedy nearest-neighbour matching between the heads of live lines and
    the maxima of the next scale; the admissible move to the scale ``s``
    row is ``|dx| <= max(1, s / 2)`` in circular distance.  Half a scale
    accommodates the drift of real ridge lines (which live in cones
    ``|x - x0| ~ s``) while staying below the typical maxima spacing, so
    unrelated ridges are not glued together.  A line that finds no
    continuation is closed and kept; maxima that appear first at a coarser
    scale can never satisfy completeness and are dropped.
    """
    n = matrix.length
    scales = matrix.scales
    if len(maxima) != scales.size:
        raise ValueError("need one maxima list per scale")
    seeds = np.asarray(maxima[0], dtype=np.int64)
    line_positions = [[int(p)] for p in seeds]
    line_moduli = [[float(abs(matrix.values[0, p]))] for p in seeds]
    heads = seeds.astype(float)
    alive = np.arange(seeds.size)
    for i in range(1, scales.size):
        if alive.size == 0:
            break
        cands = np.asarray(maxima[i], dtype=np.int64)
        if cands.size == 0:
            alive = np.empty(0, dtype=np.int64)
            break
        radius = max(1.0, _LINK_FACTOR * scales[i])
        head_pos = heads
        idx = np.searchsorted(cands, head_pos)
        neighbor = np.stack([(idx - 1) % cands.size, idx % cands.size])
        pair_line = np.tile(np.arange(alive.size), 2)
        pair_cand = neighbor.reshape(-1)
        dist = _circular_distance(head_pos[pair_line], cands[pair_cand], n)
        ok = dist <= radius
        pair_line, pair_cand, dist = pair_line[ok], pair_cand[ok], dist[ok]
        order = np.argsort(dist, kind="stable")
        line_used = np.zeros(alive.size, dtype=bool)
        cand_used = np.zeros(cands.size, dtype=bool)
        new_alive = []
        new_heads = []
        for k in order:
            li, ci = pair_line[k], pair_cand[k]
            if line_used[li] or cand_used[ci]:
                continue
            line_used[li] = True
            cand_used[ci] = True
            line_id = alive[li]
            pos = int(cands[ci])
            line_positions[line_id].append(pos)
            line_moduli[line_id].append(float(abs(matrix.values[i, pos])))
            new_alive.append(line_id)
            new_heads.append(float(pos))
        alive = np.asarray(new_alive, dtype=np.int64)
        heads = np.asarray(new_heads, dtype=float)
    return [
        MaximaLine(positions=np.asarray(positions), moduli=np.asarray(moduli))
        for positions, moduli in zip(line_positions, line_moduli)
    ]


@dataclass
class PartitionFunction:
    """Moment sums ``Z(q, s)`` over the surviving maxima lines at scale s.

    Only ``log2 Z`` is kept: ``Z`` itself overflows at large |q|.
    """

    q_grid: np.ndarray
    scales: np.ndarray
    log2_Z: np.ndarray  # shape (n_q, n_scales)
    line_counts: np.ndarray

    def __post_init__(self):
        self.q_grid = np.asarray(self.q_grid, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        self.log2_Z = np.asarray(self.log2_Z, dtype=float)
        self.line_counts = np.asarray(self.line_counts, dtype=np.int64)
        if self.log2_Z.shape != (self.q_grid.size, self.scales.size):
            raise ValueError("log2_Z shape inconsistent with grids")


def _logsumexp(a: np.ndarray, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(out)


def partition_function(lines: list, q_grid, scales) -> PartitionFunction:
    """Build ``Z(q, s)`` from per-line running modulus suprema.

    For each line alive at scale index i the contribution is
    ``sup_{i' <= i} modulus(i')`` raised to the power q, so ``Z(0, s)``
    counts the lines alive at s.  Sums are accumulated in the log domain
    for stability at large negative q.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n_s = scales.size
    sup_logs = [[] for _ in range(n_s)]
    for line in lines:
        if len(line) == 0:
            continue
        if np.any(line.moduli <= 0):
            raise ValueError("maxima lines must have strictly positive moduli")
        running = np.maximum.accumulate(np.log(line.moduli))
        for i in range(min(len(line), n_s)):
            sup_logs[i].append(running[i])
    log2_Z = np.full((q_grid.size, n_s), -np.inf)
    counts = np.zeros(n_s, dtype=np.int64)
    for i in range(n_s):
        if not sup_logs[i]:
            continue
        logs = np.asarray(sup_logs[i])
        counts[i] = logs.size
        log2_Z[:, i] = _logsumexp(q_grid[:, None] * logs[None, :], axis=1) / _LN2
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
    fit_scales: np.ndarray


def estimate_tau(pf: PartitionFunction, fit_range: tuple | None = None) -> TauEstimate:
    """Least-squares slope of log2 Z(q, s) against log2 s per moment order."""
    lo, hi = fit_range if fit_range is not None else (pf.scales.min(), pf.scales.max())
    usable = (pf.scales >= lo) & (pf.scales <= hi) & (pf.line_counts > 0)
    if np.count_nonzero(usable) < 3:
        raise ValueError(
            f"fit range [{lo:g}, {hi:g}] leaves fewer than 3 usable scales"
        )
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
        fit_scales=pf.scales[usable].copy(),
    )


@dataclass
class SingularSpectrum:
    """Scaling exponents and their Legendre transform.

    ``alpha`` is the derivative of tau on the q grid (centered differences,
    one-sided at the ends) and ``D = q * alpha - tau``; ``support`` is the
    alpha range and ``peak_alpha`` the alpha at the q closest to zero.
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
    already-concave input untouched.
    """
    q = np.asarray(tau_est.q_grid, dtype=float)
    tau = np.asarray(tau_est.tau, dtype=float)
    if q.size < 3:
        raise ValueError("need at least 3 q points")
    slopes = np.diff(tau) / np.diff(q)
    violation = float(max(0.0, np.max(np.diff(slopes)))) if slopes.size > 1 else 0.0
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
        tau=tau,
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

    voices_per_octave: int = 8
    # The finest voice carries discretization bias that inflates negative
    # moments, so the default fit window starts one octave up.
    fit_min_scale: float | None = None  # defaults to 8 samples
    fit_max_scale: float | None = None  # defaults to min(1024, L/8)
    q_min: float = -5.0
    q_max: float = 5.0
    n_q: int = 41

    def scale_grid(self, length: int) -> np.ndarray:
        return default_scale_grid(length, self.voices_per_octave)

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
    matrix = cwt(series, _WAVELET_ORDER, config.scale_grid(series.length))
    maxima = find_modulus_maxima(matrix)
    lines = chain_maxima_lines(maxima, matrix)
    pf = partition_function(lines, config.q_grid(), matrix.scales)
    tau_est = estimate_tau(pf, config.fit_window(series.length))
    return legendre_spectrum(tau_est)


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


def spectrum_to_dict(spectrum: SingularSpectrum) -> dict:
    return {
        "q": spectrum.q_grid.tolist(),
        "tau": spectrum.tau.tolist(),
        "tau_stderr": spectrum.tau_stderr.tolist(),
        "alpha": spectrum.alpha.tolist(),
        "D": spectrum.D.tolist(),
        "support": [spectrum.support[0], spectrum.support[1]],
        "peak_alpha": spectrum.peak_alpha,
    }


def spectrum_from_dict(data: dict) -> SingularSpectrum:
    return SingularSpectrum(
        q_grid=np.asarray(data["q"], dtype=float),
        tau=np.asarray(data["tau"], dtype=float),
        tau_stderr=np.asarray(data["tau_stderr"], dtype=float),
        alpha=np.asarray(data["alpha"], dtype=float),
        D=np.asarray(data["D"], dtype=float),
        support=(float(data["support"][0]), float(data["support"][1])),
        peak_alpha=float(data["peak_alpha"]),
    )


def write_tau_csv(spectrum: SingularSpectrum, path) -> None:
    with open(path, "w") as fh:
        fh.write("q,tau,tau_stderr\n")
        for q, t, e in zip(spectrum.q_grid, spectrum.tau, spectrum.tau_stderr):
            fh.write(f"{float(q)!r},{float(t)!r},{float(e)!r}\n")


def write_spectrum_csv(spectrum: SingularSpectrum, path) -> None:
    with open(path, "w") as fh:
        fh.write("alpha,D\n")
        for a, d in zip(spectrum.alpha, spectrum.D):
            fh.write(f"{float(a)!r},{float(d)!r}\n")
