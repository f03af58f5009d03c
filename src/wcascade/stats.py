"""Histogram density fits, least squares and binned conditional variance.

Scale fits match a normalized sample histogram against a single-parameter
density family (location fixed at zero) by least squares; the model value
per bin is the bin-averaged density, i.e. the CDF increment divided by the
bin width, which keeps the fit unbiased for heavy-tailed families even at
coarse binnings.  Variances use the population convention (divisor ``n``)
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult",
    "RegressionResult",
    "BinnedVariance",
    "fit_cauchy",
    "fit_student_t2",
    "fit_normal",
    "ols",
    "pearson_correlation",
    "binned_conditional_variance",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Scale fits bin the central 99% of the samples into 101 equal bins.
_HIST_BINS = 101
_HIST_TAIL = (1.0 - 0.99) / 2.0


@dataclass
class FitResult:
    scale: float
    goodness: float  # sum of squared density residuals


@dataclass
class RegressionResult:
    slope: float
    intercept: float
    stderr_slope: float
    stderr_intercept: float
    r2: float
    adj_r2: float


@dataclass
class BinnedVariance:
    """Per-bin sample variance of a successor conditioned on its predecessor.

    Bins are half-open ``[k*width, (k+1)*width)``.  ``included`` marks bins
    holding at least ``min_count`` samples; the full table is retained for
    the all-bins view.
    """

    bin_centers: np.ndarray
    bin_counts: np.ndarray
    conditional_variances: np.ndarray
    included: np.ndarray


def _golden_section(f, lo: float, hi: float, rel_tol: float = 1e-8):
    """Minimize a unimodal function on [lo, hi] by golden-section search."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(400):
        if (b - a) <= rel_tol * max(abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _cauchy_cdf(x, scale):
    return 0.5 + np.arctan(x / scale) / math.pi


def _student_t2_cdf(x, scale):
    t = x / scale
    return 0.5 + t / (2.0 * np.sqrt(2.0 + t * t))


# The standard library's erfc, so the fit needs nothing beyond numpy; taken
# at -x it keeps the lower tail's relative accuracy, which 1 + erf(x) loses.
_erfc = np.vectorize(math.erfc, otypes=[float])


def _normal_cdf(x, scale):
    return 0.5 * _erfc(-x / (scale * math.sqrt(2.0)))


def _fit_scale(samples, cdf) -> FitResult:
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError(f"scale fit needs >= 100 samples, got {samples.size}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite values")
    if samples.max() == samples.min():
        raise ValueError("samples are degenerate (all equal)")
    q25, q75 = np.quantile(samples, [0.25, 0.75])
    iqr = q75 - q25
    if not iqr > 0:
        raise ValueError("interquartile range is zero; samples too concentrated")
    lo, hi = np.quantile(samples, [_HIST_TAIL, 1.0 - _HIST_TAIL])
    if not hi > lo:
        raise ValueError("histogram range is degenerate")
    edges = np.linspace(lo, hi, _HIST_BINS + 1)
    width = edges[1] - edges[0]
    counts, _ = np.histogram(samples, bins=edges)
    density = counts / (samples.size * width)

    def sse(scale):
        model = (cdf(edges[1:], scale) - cdf(edges[:-1], scale)) / width
        return float(np.sum((density - model) ** 2))

    scale, goodness = _golden_section(sse, 1e-3 * iqr, 10.0 * iqr)
    return FitResult(scale=scale, goodness=goodness)


def fit_cauchy(samples) -> FitResult:
    """Least-squares Cauchy scale against the sample histogram density."""
    return _fit_scale(samples, _cauchy_cdf)


def fit_student_t2(samples) -> FitResult:
    """Least-squares scale of the two-degrees-of-freedom Student density."""
    return _fit_scale(samples, _student_t2_cdf)


def fit_normal(samples) -> FitResult:
    """Least-squares scale of the centered normal density."""
    return _fit_scale(samples, _normal_cdf)


def ols(x, y) -> RegressionResult:
    """Simple linear regression y = a x + b with classical standard errors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    n = x.size
    if n < 3:
        raise ValueError(f"regression needs at least 3 points, got {n}")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("x is constant; slope is undefined")
    sxy = float(np.sum((x - xbar) * (y - ybar)))
    slope = sxy / sxx
    intercept = float(ybar - slope * xbar)
    resid = y - slope * x - intercept
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - ybar) ** 2))
    sigma2 = ssr / (n - 2)
    stderr_slope = math.sqrt(sigma2 / sxx)
    stderr_intercept = math.sqrt(sigma2 * (1.0 / n + xbar**2 / sxx))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        stderr_slope=stderr_slope,
        stderr_intercept=stderr_intercept,
        r2=r2,
        adj_r2=adj_r2,
    )


def pearson_correlation(x, y) -> float:
    """Sample Pearson correlation; rejects constant inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if x.size < 2:
        raise ValueError("correlation needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx**2)))
    sy = float(np.sqrt(np.sum(dy**2)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for constant input")
    # np.sum, not BLAS np.dot: BLAS splits the sum by thread, so r would depend on the CPU count
    r = float(np.sum(dx * dy) / (sx * sy))
    return min(1.0, max(-1.0, r))


def binned_conditional_variance(
    predecessor, successor, bin_width: float, min_count: int
) -> BinnedVariance:
    """Population variance of ``successor`` within equal-width predecessor bins.

    Bin ``k`` covers ``[k*bin_width, (k+1)*bin_width)``; every sample lands
    in exactly one bin, so the counts add up to the input length.
    """
    predecessor = np.asarray(predecessor, dtype=float)
    successor = np.asarray(successor, dtype=float)
    if predecessor.shape != successor.shape or predecessor.ndim != 1:
        raise ValueError("predecessor and successor must be equal-length vectors")
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    idx = np.floor(predecessor / bin_width).astype(np.int64)
    uniq, inverse = np.unique(idx, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=successor)
    sq_sums = np.bincount(inverse, weights=successor**2)
    means = sums / counts
    variances = sq_sums / counts - means**2
    variances = np.maximum(variances, 0.0)  # guard rounding
    centers = (uniq + 0.5) * bin_width
    return BinnedVariance(
        bin_centers=centers,
        bin_counts=counts,
        conditional_variances=variances,
        included=counts >= min_count,
    )
