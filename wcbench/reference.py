"""Computations the benchmark checks the program against.

Each function here re-derives one of the program's results from its
definition, with numpy and scipy only and without importing ``wcascade``.
Where the program's conventions fix a result (the Daubechies-4 phase, the
Philox draw order, population variances, the 1e-6 parent mask), they are
restated here from the package's documentation, not imported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

_SQRT3 = math.sqrt(3.0)
# Daubechies-4 scaling filter in closed form, (1 + sqrt 3, 3 + sqrt 3, ...) / (4 sqrt 2).
D4_LOW = np.array([1 + _SQRT3, 3 + _SQRT3, 3 - _SQRT3, 1 - _SQRT3]) / (4.0 * math.sqrt(2.0))
D4_HIGH = np.array([D4_LOW[3], -D4_LOW[2], D4_LOW[1], -D4_LOW[0]])

MASK_TOL = 1e-6  # parents below MASK_TOL * layer spread carry no factor
MIN_PAIRS = 30  # fewer valid pairs and a correlation row is omitted
COLLAPSE_MIN_LAYER = 64
VARIANCE_MIN_LAYER = 256
VARIANCE_BIN_WIDTH = 0.2
VARIANCE_MIN_COUNT = 100
FIT_MIN_SAMPLES = 100
HIST_BINS = 101
HIST_COVERAGE = 0.99


# --------------------------------------------------------------- transform

def inverse_d4(root_approx: float, root_detail: float, raw_layers) -> np.ndarray:
    """Periodic Daubechies-4 synthesis of raw (unrescaled) detail layers.

    Coefficient ``k`` of a level contributes ``h[m]`` (approximation) or
    ``g[m]`` (detail) to sample ``(2k + m) mod n``: the adjoint of analysis
    with even-index decimation.
    """
    approx = np.array([float(root_approx)])
    for detail in [np.array([float(root_detail)]), *raw_layers]:
        n = 2 * approx.size
        out = np.zeros(n)
        k2 = 2 * np.arange(approx.size)
        for m in range(4):
            np.add.at(out, (k2 + m) % n, D4_LOW[m] * approx + D4_HIGH[m] * detail)
        approx = out
    return approx


def raw_layers(pyramid: dict) -> list:
    """Detail layers of a pyramid dict with any ``2**(j/2)`` rescaling removed."""
    layers = [np.asarray(layer, dtype=float) for layer in pyramid["layers"]]
    if pyramid["rescaled"]:
        layers = [layer / 2.0 ** ((j + 1) / 2.0) for j, layer in enumerate(layers)]
    return layers


def pyramid_energy(pyramid: dict) -> float:
    raw = raw_layers(pyramid)
    total = pyramid["root_approx"] ** 2 + pyramid["root_detail"] ** 2
    return float(total + sum(float(np.dot(layer, layer)) for layer in raw))


# ------------------------------------------------------------------ ingest

def deseasonalized_increments(prices: np.ndarray, dt: int = 1) -> np.ndarray:
    """Panel-average normalised within-day returns, from a (days, minutes, issues) array.

    Per issue and minute slot the return is divided by its population
    standard deviation across days, then each issue is z-scored over all its
    returns and the issues are averaged.
    """
    log_p = np.log(prices)
    returns = log_p[:, dt:, :] - log_p[:, :-dt, :]
    normalized = returns / returns.std(axis=0, keepdims=True)
    flat = normalized.reshape(-1, prices.shape[2])
    z = (flat - flat.mean(axis=0)) / flat.std(axis=0)
    return z.mean(axis=1)


def path_from_increments(deltas: np.ndarray) -> np.ndarray:
    keep = 2 ** int(math.floor(math.log2(deltas.size)))
    return np.cumsum(deltas[-keep:])


# --------------------------------------------------------------- synthesis

def mixed_cascade_layers(config: dict) -> list:
    """Rescaled layers of ``simulate`` rebuilt from the documented Philox layout.

    The stream is ``Philox(key=seed)``; per layer the signed-lognormal factor
    block (normal magnitudes, then 0/1 signs) precedes the normal noise
    block, children left before right; the noise of layer j+1 is scaled by
    the population std of layer j, and by |root_detail| for the first layer.
    """
    law, noise = config["multiplier_law"], config["additive_law"]
    rng = np.random.Generator(np.random.Philox(key=config["seed"]))
    parents = np.array([float(config["root_detail"])])
    h = abs(float(config["root_detail"]))
    layers = []
    for _ in range(config["depth"]):
        n = 2 * parents.size
        magnitudes = np.exp(rng.normal(law["mean_log"], math.sqrt(law["var_log"]), n))
        signs = rng.integers(0, 2, n) * 2.0 - 1.0
        children = magnitudes * signs * np.repeat(parents, 2)
        eta = rng.normal(0.0, math.sqrt(noise["variance"]), n)
        children = children + eta * h
        layers.append(children)
        parents = children
        h = float(children.std())
    return layers


# ---------------------------------------------------------------- collapse

def collapse_distance(layers: list, depth: int, h: float) -> float:
    """Mean pairwise ``scipy.stats.ks_2samp`` distance of layers rescaled by scale**-h."""
    usable = [j for j in range(1, depth + 1) if 2**j >= COLLAPSE_MIN_LAYER]
    scaled = [layers[j - 1] * float(2 ** (depth + 1 - j)) ** -h for j in usable]
    ks = [
        stats.ks_2samp(scaled[a], scaled[b], method="asymp").statistic
        for a in range(len(scaled))
        for b in range(a + 1, len(scaled))
    ]
    return float(np.mean(ks))


# ------------------------------------------------------------- multipliers

def _layer(pyramid: dict, layers: list, j: int) -> np.ndarray:
    return np.array([pyramid["root_detail"]]) if j == 0 else layers[j - 1]


def transition_ratios(pyramid: dict, layers: list, j: int):
    """``(left, right, valid)`` child/parent ratios of transition j -> j+1."""
    parents = _layer(pyramid, layers, j)
    children = layers[j]
    spread = parents.std() if parents.size > 1 else abs(parents[0])
    valid = np.abs(parents) > MASK_TOL * spread
    safe = np.where(valid, parents, 1.0)
    return children[0::2] / safe, children[1::2] / safe, valid


def _log_corr(x, y, valid):
    with np.errstate(divide="ignore"):
        lx, ly = np.log(np.abs(x)), np.log(np.abs(y))
    valid = valid & np.isfinite(lx) & np.isfinite(ly)
    n = int(valid.sum())
    if n < MIN_PAIRS:
        return None
    return float(np.corrcoef(lx[valid], ly[valid])[0, 1]), n


def log_correlations(pyramid: dict, layers: list) -> dict:
    """``{kind: {layer: (r, n_pairs)}}`` of log-magnitude Pearson correlations.

    ``successive`` pairs the factor into each layer-j node with both factors
    out of it; ``parent_vs_factor`` pairs each parent with its two factors.
    """
    depth = len(layers)
    ratios = [transition_ratios(pyramid, layers, j) for j in range(depth)]
    out = {"successive": {}, "parent_vs_factor": {}}
    for j, (left, right, valid) in enumerate(ratios):
        parents = _layer(pyramid, layers, j)
        row = _log_corr(
            np.concatenate([parents, parents]),
            np.concatenate([left, right]),
            np.concatenate([valid, valid]),
        )
        if row:
            out["parent_vs_factor"][j] = row
        if j == 0:
            continue
        in_left, in_right, in_valid = ratios[j - 1]
        incoming = np.empty(2 * in_left.size)
        incoming[0::2], incoming[1::2] = in_left, in_right
        both = np.repeat(in_valid, 2) & valid
        row = _log_corr(
            np.concatenate([incoming, incoming]),
            np.concatenate([left, right]),
            np.concatenate([both, both]),
        )
        if row:
            out["successive"][j] = row
    return out


_CDFS = {
    "cauchy": lambda x, s: stats.cauchy.cdf(x, scale=s),
    "student_t2": lambda x, s: stats.t.cdf(x, 2, scale=s),
    "normal": lambda x, s: special.ndtr(x / s),
}


def histogram_sse(samples: np.ndarray, family: str, scale: float) -> float:
    """Squared distance between the sample histogram density and a centred family.

    101 equal bins over the central 99% quantile range; the model density
    of a bin is its CDF increment over the bin width.
    """
    tail = (1.0 - HIST_COVERAGE) / 2.0
    lo, hi = np.quantile(samples, [tail, 1.0 - tail])
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    width = edges[1] - edges[0]
    counts, _ = np.histogram(samples, bins=edges)
    cdf = _CDFS[family](edges, scale)
    model = np.diff(cdf) / width
    return float(np.sum((counts / (samples.size * width) - model) ** 2))


# --------------------------------------------------------------- variances

def variance_fits(layers: list) -> dict:
    """``{(parent_layer, side): fit}`` from ``np.bincount`` bins and ``np.polyfit``.

    Parents of layer j are binned by ``floor(p / (0.2 h_j))``; bins with at
    least 100 children give a population variance, and with three or more
    such bins the variances are regressed on the squared bin centres.
    """
    depth = len(layers)
    fits = {}
    for j in range(1, depth):
        parents = layers[j - 1]
        if parents.size < VARIANCE_MIN_LAYER:
            continue
        children = layers[j]
        h_j = float(parents.std())
        ratio_sq = (float(children.std()) / h_j) ** 2
        width = VARIANCE_BIN_WIDTH * h_j
        idx = np.floor(parents / width).astype(np.int64)
        shifted = idx - idx.min()
        counts = np.bincount(shifted)
        for side, kids in (("left", children[0::2]), ("right", children[1::2])):
            sums = np.bincount(shifted, weights=kids)
            means = np.divide(sums, counts, out=np.zeros(counts.size), where=counts > 0)
            dev2 = np.bincount(shifted, weights=(kids - means[shifted]) ** 2)
            keep = counts >= VARIANCE_MIN_COUNT
            if keep.sum() < 3:
                continue
            var = dev2[keep] / counts[keep]
            centers = (np.flatnonzero(keep) + idx.min() + 0.5) * width
            x = centers**2
            (slope, intercept), cov = np.polyfit(x, var, 1, cov="unscaled")
            n = x.size
            resid = var - (slope * x + intercept)
            sigma2 = float(resid @ resid) / (n - 2)
            sst = float(((var - var.mean()) ** 2).sum())
            r2 = 1.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst
            var_w = max(slope, 0.0)
            var_eta = max(intercept, 0.0) / h_j**2
            fits[(j, side)] = {
                "slope": slope,
                "intercept": intercept,
                "stderr_slope": math.sqrt(sigma2 * cov[0, 0]),
                "stderr_intercept": math.sqrt(sigma2 * cov[1, 1]),
                "adj_r2": 1.0 - (1.0 - r2) * (n - 1) / (n - 2),
                "var_w": var_w,
                "var_eta": var_eta,
                "ratio_sq": ratio_sq,
                "identity_residual": abs(ratio_sq - (var_w + var_eta)),
                "n_bins": n,
            }
    return fits


# ---------------------------------------------------------------- spectrum

def concave_majorant(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Least concave majorant of (q, t) on the q grid (upper convex hull)."""
    hull = []
    for i in range(q.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # b lies on or under the chord a -> i: drop it
            if (t[b] - t[a]) * (q[i] - q[a]) <= (t[i] - t[a]) * (q[b] - q[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.interp(q, q[hull], t[hull])


def legendre_pairs(q: np.ndarray, tau: np.ndarray):
    """``(alpha, D)`` of the concave majorant: centred slopes and ``q alpha - tau``."""
    hull = concave_majorant(q, tau)
    alpha = np.empty_like(hull)
    alpha[1:-1] = (hull[2:] - hull[:-2]) / (q[2:] - q[:-2])
    alpha[0] = (hull[1] - hull[0]) / (q[1] - q[0])
    alpha[-1] = (hull[-1] - hull[-2]) / (q[-1] - q[-2])
    return alpha, q * alpha - hull
