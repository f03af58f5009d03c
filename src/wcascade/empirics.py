"""Empirical cascade diagnostics for panel data and wavelet pyramids.

This module covers the data-facing half of the toolkit: turning an
intraday price panel into one normalized return path, extracting the
layer-to-layer multiplicative factors of its wavelet pyramid backwards
(``W = child / parent`` in the rescaled convention), correlation
diagnostics between factors across the tree, the distribution-collapse
estimate of the global scaling exponent, and the per-layer variance
decomposition

    Var(child | parent) = Var(W) * parent^2 + Var(eta) * h_j^2,
    (h_{j+1} / h_j)^2   = Var(W) + Var(eta),

fitted by regressing binned conditional variances on the squared bin
center.  All layer statistics use the population convention (divisor n);
the size-one root layer uses the magnitude of the root coefficient in
place of its (vanishing) standard deviation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from wcascade.dwt import TimeSeries, WaveletPyramid
from wcascade.stats import binned_conditional_variance, ols, pearson_correlation
from wcascade.threads import thread_map

__all__ = [
    "ReturnPanel",
    "MultiplierTransition",
    "MultiplierSet",
    "CorrelationRow",
    "MultiplierCorrelations",
    "CollapseResult",
    "TransitionVarianceFit",
    "load_panel_csv",
    "deseasonalize_returns",
    "accumulate_path",
    "extract_multipliers",
    "multiplier_correlations",
    "collapse_H",
    "estimate_variances",
]

# Parents below this fraction of their layer's spread are masked.
_ZERO_TOL = 1e-6
# A correlation row needs at least this many valid factor pairs.
_MIN_PAIRS = 30
# Variance fits bin parents by 0.2 h_j and keep bins of >= 100 children.
_BIN_WIDTH = 0.2
_MIN_COUNT = 100


@dataclass
class ReturnPanel:
    """Intraday price panel on a shared minute grid.

    ``prices`` has one column per issue; day boundaries are inferred from
    date changes in the timestamps, and returns never span them.
    """

    timestamps: np.ndarray  # datetime64[s]
    issues: list
    prices: np.ndarray  # shape (n_times, n_issues)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.ndim != 2 or self.prices.shape[0] != self.timestamps.size:
            raise ValueError("prices must be (n_times, n_issues)")
        if len(self.issues) != self.prices.shape[1]:
            raise ValueError("issue names inconsistent with price columns")
        if self.timestamps.size < 2:
            raise ValueError("panel needs at least 2 rows")
        if np.any(np.diff(self.timestamps).astype(np.int64) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise ValueError("prices must be finite and positive")


def load_panel_csv(path) -> ReturnPanel:
    """Read ``timestamp,ISSUE1,ISSUE2,...`` rows into a panel.

    Blank lines are skipped.  A row with the wrong number of fields, a
    timestamp that does not parse or is not after the previous row's, or a
    price that does not parse or is not finite and positive is refused
    with its line number in the file.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"panel file {path} is empty") from None
    if len(header) < 2 or header[0].strip().lower() != "timestamp":
        raise ValueError("panel header must be 'timestamp,ISSUE1,...'")
    n_fields = len(header)
    row_type = [("stamp", "datetime64[s]"), ("price", float, (n_fields - 1,))]
    try:
        with warnings.catch_warnings():
            # an empty body is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # numpy would read a blank after the stamp as a timezone suffix
            rows = np.loadtxt(path, dtype=row_type, skiprows=1, delimiter=",",
                              quotechar='"', comments=None, ndmin=1,
                              converters={0: str.strip})
        if rows.size == 0:
            raise ValueError(f"panel file {path} has no data rows")
        return ReturnPanel(
            timestamps=rows["stamp"],
            issues=[name.strip() for name in header[1:]],
            prices=rows["price"],
        )
    except ValueError:
        # numpy's row numbers skip the header and blank lines; name the file line
        _raise_on_bad_line(path, n_fields)
        raise


def _raise_on_bad_line(path, n_fields: int) -> None:
    """Raise on the first data line of the panel that cannot be read, naming it."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        # this pass only names a line; numpy's warnings belong to the first read
        warnings.simplefilter("ignore", UserWarning)
        reader = csv.reader(fh)
        next(reader)
        previous = None  # (stamp, line number) of the last data row
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) != n_fields:
                raise ValueError(f"row {line_no} has {len(row)} fields, expected {n_fields}")
            try:
                stamp = np.datetime64(row[0], "s")
            except ValueError:
                stamp = None
            if stamp is None or np.isnat(stamp):  # an empty stamp parses, to NaT
                raise ValueError(f"line {line_no}: cannot parse timestamp {row[0]!r}")
            if previous is not None and not stamp > previous[0]:
                raise ValueError(
                    f"line {line_no}: timestamp {row[0]!r} is not after line {previous[1]}"
                )
            previous = (stamp, line_no)
            for v in row[1:]:
                price = numpy_float(v)
                if price is None:
                    raise ValueError(f"line {line_no}: cannot parse price {v!r}")
                if not (math.isfinite(price) and price > 0):
                    raise ValueError(f"line {line_no}: price {v!r} is not finite and positive")


def numpy_float(field: str) -> float | None:
    """``field``'s value if numpy's parser reads it (``float``'s syntax in ASCII, without ``_``)."""
    text = field.strip()
    try:
        value = float(text)
    except ValueError:
        return None
    return value if text.isascii() and "_" not in text else None


def deseasonalize_returns(panel: ReturnPanel, dt: int = 1) -> np.ndarray:
    """Average normalized intraday log-return across the panel's issues.

    Per issue: log-returns at lag ``dt`` are taken inside each day
    (overnight changes are dropped), divided by that issue's time-of-day
    standard deviation, then z-scored.  Time-of-day bins with fewer than
    two observations, or with zero spread, fall back to the issue's global
    standard deviation with a warning.
    """
    if dt < 1:
        raise ValueError("dt must be >= 1")
    days = panel.timestamps.astype("datetime64[D]")
    # stamps increase, so row r returns from row r - dt exactly when both lie on one day
    slots = np.flatnonzero(days[dt:] == days[:-dt])
    if not slots.size:
        raise ValueError(f"no day is longer than the return lag dt={dt}")
    slots += dt
    lagged = slots - dt
    minutes = (panel.timestamps[slots] - days[slots]).astype("timedelta64[m]").astype(np.int64)
    tod_values, slot_of_row = np.unique(minutes, return_inverse=True)
    # an issue's returns grouped by time of day, in row order, are r[order]
    order = np.argsort(slot_of_row, kind="stable")
    bounds = np.searchsorted(slot_of_row[order], np.arange(tod_values.size + 1))
    n_issues = len(panel.issues)
    averaged = np.zeros(slots.size)
    del days, minutes
    # One issue at a time, so no array spans the whole panel.  The column is
    # copied first: numpy's log then sees the contiguous layout it gets on
    # the whole panel's rows.
    for i in range(n_issues):
        log_price = np.log(np.ascontiguousarray(panel.prices[:, i]))
        r = log_price[slots]
        r -= log_price[lagged]
        del log_price
        global_std = float(r.std())
        if global_std == 0.0:
            raise ValueError(
                f"issue {panel.issues[i]!r} has degenerate returns (zero variance)"
            )
        grouped = r[order]
        sigmas = np.empty(tod_values.size)
        fallbacks = []
        for k, v in enumerate(tod_values):
            obs = grouped[bounds[k]:bounds[k + 1]]
            sigma = float(obs.std()) if obs.size >= 2 else 0.0
            if sigma == 0.0:
                sigma = global_std
                fallbacks.append(int(v))
            sigmas[k] = sigma
        if fallbacks:
            warnings.warn(
                f"issue {panel.issues[i]!r}: time-of-day bins {fallbacks} are too "
                "sparse; using the global standard deviation there",
                stacklevel=2,
            )
        normalized = r / sigmas[slot_of_row]
        spread = float(normalized.std())
        if spread == 0.0:
            raise ValueError(
                f"issue {panel.issues[i]!r} has degenerate normalized returns"
            )
        averaged += (normalized - normalized.mean()) / spread
    return averaged / n_issues


def accumulate_path(deltas) -> TimeSeries:
    """Cumulative sum of increments, truncated to the most recent 2^J points."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size < 2:
        raise ValueError("need a vector of at least 2 increments")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("increments contain non-finite values")
    keep = 2 ** int(math.floor(math.log2(deltas.size)))
    return TimeSeries(np.cumsum(deltas[-keep:]))


@dataclass
class MultiplierTransition:
    """Backward factor estimates for one layer transition j -> j+1.

    ``left[k] = child(2k)/parent(k)`` and ``right[k] = child(2k+1)/parent(k)``;
    entries whose parent magnitude falls below the masking threshold carry
    NaN and ``valid[k] = False``.
    """

    parent_layer: int
    left: np.ndarray
    right: np.ndarray
    valid: np.ndarray

    @property
    def pooled(self) -> np.ndarray:
        """Valid left and right ratios concatenated."""
        return np.concatenate([self.left[self.valid], self.right[self.valid]])


@dataclass
class MultiplierSet:
    transitions: list  # entry j is the transition with parent layer j


def _layer_spread(values: np.ndarray) -> float:
    # Size-one layers carry no spread; use the coefficient magnitude.
    return float(values.std()) if values.size > 1 else float(abs(values[0]))


def extract_multipliers(pyramid: WaveletPyramid) -> MultiplierSet:
    """Backward child/parent ratios for every layer transition.

    The pyramid's rescaled layers are what makes the ratios stationary.
    Parents with magnitude below ``1e-6 * h_j`` (and exact zeros) are
    masked rather than producing infinities.
    """
    transitions = []
    for j in range(pyramid.depth):
        parents = pyramid.layer(j)
        children = pyramid.layer(j + 1)
        threshold = _ZERO_TOL * _layer_spread(parents)
        valid = np.abs(parents) > threshold
        left = np.full(parents.size, np.nan)
        right = np.full(parents.size, np.nan)
        np.divide(children[0::2], parents, out=left, where=valid)
        np.divide(children[1::2], parents, out=right, where=valid)
        if not np.any(valid):
            warnings.warn(
                f"transition {j}->{j + 1}: every parent is masked; no ratios",
                stacklevel=2,
            )
        transitions.append(
            MultiplierTransition(parent_layer=j, left=left, right=right, valid=valid)
        )
    return MultiplierSet(transitions=transitions)


@dataclass
class CorrelationRow:
    layer: int
    r: float
    n_pairs: int


@dataclass
class MultiplierCorrelations:
    """Per-layer Pearson diagnostics across the cascade tree.

    ``successive`` pairs each node's incoming factor with both of its
    outgoing factors; ``parent_vs_factor`` pairs each parent coefficient
    with its two outgoing factors.  Layers of fewer than 15 nodes cannot
    give 30 pairs and are skipped; layers left with too few valid pairs
    after masking, or with constant factors, are omitted with a warning.

    The correlation is computed between log magnitudes.  The raw ratios
    have Cauchy-like tails, so their sample Pearson coefficient is
    dominated by a handful of extreme pairs and carries no stable signal;
    the log-magnitude coefficient is the statistic that exposes the
    dependence between neighbouring hierarchy levels.
    """

    successive: list
    parent_vs_factor: list


def _interleave(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    out = np.empty(left.size * 2, dtype=left.dtype)
    out[0::2] = left
    out[1::2] = right
    return out


def _correlation_row(x, y, valid, layer: int, label: str):
    # log of a zero magnitude is -inf; treat such pairs as masked
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(np.abs(x))
        y = np.log(np.abs(y))
    valid = valid & np.isfinite(x) & np.isfinite(y)
    n = int(np.count_nonzero(valid))
    if n < _MIN_PAIRS:
        warnings.warn(
            f"{label} at layer {layer}: only {n} valid pairs (< {_MIN_PAIRS}); omitted",
            stacklevel=3,
        )
        return None
    try:
        r = pearson_correlation(x[valid], y[valid])
    except ValueError:
        warnings.warn(
            f"{label} at layer {layer}: correlation undefined (constant factors); omitted",
            stacklevel=3,
        )
        return None
    return CorrelationRow(layer=layer, r=r, n_pairs=n)


def multiplier_correlations(ms: MultiplierSet, pyramid: WaveletPyramid) -> MultiplierCorrelations:
    if len(ms.transitions) < 2:
        raise ValueError("need at least 2 layer transitions")
    successive = []
    parent_vs = []
    for outgoing in ms.transitions:
        j = outgoing.parent_layer
        out_x2 = np.concatenate([outgoing.left, outgoing.right])
        if out_x2.size < _MIN_PAIRS:
            continue  # too few nodes to ever give enough pairs
        out_valid2 = np.concatenate([outgoing.valid, outgoing.valid])
        # Parent coefficient against each outgoing factor.
        parents = pyramid.layer(j)
        row = _correlation_row(
            np.concatenate([parents, parents]), out_x2, out_valid2, j, "parent-vs-factor"
        )
        if row is not None:
            parent_vs.append(row)
        if j == 0:
            continue
        # Incoming factor of each layer-j node against its outgoing factors.
        incoming_t = ms.transitions[j - 1]
        incoming = _interleave(incoming_t.left, incoming_t.right)
        in_valid = np.repeat(incoming_t.valid, 2)
        row = _correlation_row(
            np.concatenate([incoming, incoming]),
            out_x2,
            np.concatenate([in_valid & outgoing.valid, in_valid & outgoing.valid]),
            j,
            "successive-factor",
        )
        if row is not None:
            successive.append(row)
    return MultiplierCorrelations(successive=successive, parent_vs_factor=parent_vs)


_GAP_BLOCK = 1 << 14  # sample points per searchsorted call


def _own_ecdf(x: np.ndarray, tie_free_cdf: np.ndarray) -> np.ndarray:
    """``searchsorted(x, x, side="right") / x.size`` for sorted ``x``, in O(n).

    Each sample's count is the end of its run of equal values; a sample
    without ties gets the shared ``tie_free_cdf``, ``arange(1, n + 1) / n``.
    """
    last_of_run = np.append(x[1:] != x[:-1], True)
    if last_of_run.all():
        return tie_free_cdf
    counts = np.flatnonzero(last_of_run)
    counts += 1
    return np.repeat(counts, np.diff(counts, prepend=0)) / x.size


def _ks_statistic(x, x_cdf, y, y_cdf) -> float:
    """Two-sample KS statistic of sorted samples with their own ECDF values.

    The ECDF difference peaks at a sample point, so it is evaluated on
    each sample's points, one ``searchsorted`` into the other sample each.
    When one sample has at least 4 times the other's points, only its last
    point below each point of the smaller sample is searched.  The smaller
    sample's points cover every peak of its own ECDF over the larger one's;
    a peak the other way sits at the end of a run of the larger sample on
    which the smaller one's ECDF is constant, and float subtraction is
    monotone, so the statistic is the same float.
    """
    if x.size < y.size:
        x, x_cdf, y, y_cdf = y, y_cdf, x, x_cdf
    ends = slice(None)
    if x.size >= 4 * y.size:
        ends = np.searchsorted(x, y, side="left")
        ends -= 1
        np.maximum(ends, 0, out=ends)  # no point of x lies below y's first: any index does
    return max(_max_ecdf_gap(x[ends], x_cdf[ends], y), _max_ecdf_gap(y, y_cdf, x))


def _max_ecdf_gap(points, points_cdf, other) -> float:
    # block by block, so each thread's scratch stays small
    largest = 0.0
    for lo in range(0, points.size, _GAP_BLOCK):
        block = slice(lo, lo + _GAP_BLOCK)
        gap = np.searchsorted(other, points[block], side="right") / other.size
        gap -= points_cdf[block]
        largest = max(largest, float(np.abs(gap, out=gap).max()))
    return largest


@dataclass
class CollapseResult:
    """Exponent under which the rescaled layer distributions superpose."""

    h: float
    distance: float
    h_grid: np.ndarray
    distances: np.ndarray
    boundary: bool


def collapse_H(
    pyramid: WaveletPyramid, h_grid, min_layer_size: int = 64
) -> CollapseResult:
    """Distribution-collapse estimate of the global scaling exponent.

    For each candidate exponent H, layer-j samples are rescaled by
    ``scale_j ** -H`` and the mean pairwise two-sample KS distance across
    layers is computed; the estimate is the grid argmin.  Needs at least
    three layers of ``min_layer_size`` coefficients; the layers are taken
    in the pyramid's rescaled convention.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size < 2 or np.any(np.diff(h_grid) <= 0):
        raise ValueError("h_grid must be an increasing vector of >= 2 values")
    usable = [j for j in range(1, pyramid.depth + 1) if 2**j >= min_layer_size]
    if len(usable) < 3:
        raise ValueError(
            f"need >= 3 layers with >= {min_layer_size} coefficients, "
            f"got {len(usable)}"
        )
    sorted_layers = [np.sort(pyramid.layer(j)) for j in usable]
    log_scales = np.array([math.log(pyramid.scale(j)) for j in usable])
    tie_free_cdfs = [np.arange(1, x.size + 1) / x.size for x in sorted_layers]

    def mean_distance(h: float) -> float:
        scaled = [x * f for x, f in zip(sorted_layers, np.exp(-h * log_scales))]
        own_cdf = [_own_ecdf(x, c) for x, c in zip(scaled, tie_free_cdfs)]
        total = 0.0
        n_pairs = 0
        for a in range(len(usable)):
            for b in range(a + 1, len(usable)):
                total += _ks_statistic(scaled[a], own_cdf[a], scaled[b], own_cdf[b])
                n_pairs += 1
        return total / n_pairs

    # searchsorted releases the GIL; each row sums its pairs in order,
    # so the distances do not depend on the number of threads
    distances = np.array(thread_map(mean_distance, h_grid))
    best = int(np.argmin(distances))
    boundary = best in (0, h_grid.size - 1)
    if boundary:
        warnings.warn(
            "collapse argmin sits on the H grid boundary; widen the grid",
            stacklevel=2,
        )
    return CollapseResult(
        h=float(h_grid[best]),
        distance=float(distances[best]),
        h_grid=h_grid,
        distances=distances,
        boundary=boundary,
    )


@dataclass
class TransitionVarianceFit:
    """Variance decomposition of one layer transition and side.

    ``var_w`` is the regression slope and ``var_eta`` the intercept divided
    by ``h_j**2``, both clamped at zero (``clamped`` records if that bit);
    ``ratio_sq`` is ``(h_{j+1}/h_j)**2`` and ``identity_residual`` its gap
    to ``var_w + var_eta``.
    """

    parent_layer: int
    side: str
    slope: float
    intercept: float
    stderr_slope: float
    stderr_intercept: float
    adj_r2: float
    var_w: float
    var_eta: float
    clamped: bool
    ratio_sq: float
    identity_residual: float
    n_bins: int


def _zero_variance_row(j: int, side: str, ratio_sq: float) -> TransitionVarianceFit:
    return TransitionVarianceFit(
        parent_layer=j,
        side=side,
        slope=0.0,
        intercept=0.0,
        stderr_slope=float("nan"),
        stderr_intercept=float("nan"),
        adj_r2=float("nan"),
        var_w=0.0,
        var_eta=0.0,
        clamped=False,
        ratio_sq=ratio_sq,
        identity_residual=abs(ratio_sq) if math.isfinite(ratio_sq) else float("nan"),
        n_bins=0,
    )


def estimate_variances(pyramid: WaveletPyramid, min_layer_size: int = 256) -> list:
    """Per-transition, per-side variance decomposition fits.

    Parents are binned with width ``0.2 * h_j``; bins holding at least 100
    children enter an ordinary least squares fit of the conditional
    variance against the squared bin center.  Transitions whose parent
    layer is smaller than ``min_layer_size`` are omitted, and so is a side
    with fewer than 3 usable bins (with a warning if its children could
    have filled 3 bins), except that an exactly deterministic transition
    reports zero variances directly.  A squared ratio of layer spreads past
    the float range is an error.
    """
    rows = []
    for j in range(1, pyramid.depth):
        parents = pyramid.layer(j)
        if parents.size < min_layer_size:
            continue
        children = pyramid.layer(j + 1)
        h_j = float(parents.std())
        h_j1 = float(children.std())
        sides = (("left", children[0::2]), ("right", children[1::2]))
        if h_j == 0.0:
            ratio_sq = float("nan")
            for side, kids in sides:
                if float(kids.var()) == 0.0:
                    rows.append(_zero_variance_row(j, side, ratio_sq))
                else:
                    warnings.warn(
                        f"transition {j}->{j + 1} ({side}): parent layer has no "
                        "spread; cannot fit",
                        stacklevel=2,
                    )
            continue
        try:
            ratio_sq = (h_j1 / h_j) ** 2
        except OverflowError:  # the square is past 1.8e308
            ratio_sq = math.inf
        if ratio_sq == math.inf:  # the ratio or its square is past the float range
            raise ValueError(f"transition {j}->{j + 1}: the squared layer spread ratio overflows")
        for side, kids in sides:
            table = binned_conditional_variance(parents, kids, _BIN_WIDTH * h_j, _MIN_COUNT)
            inc = table.included
            if int(np.count_nonzero(inc)) < 3:
                if table.conditional_variances.max() == 0.0:
                    rows.append(_zero_variance_row(j, side, ratio_sq))
                elif kids.size >= 3 * _MIN_COUNT:  # too few children is no news
                    warnings.warn(
                        f"transition {j}->{j + 1} ({side}): fewer than 3 usable "
                        "bins; omitted",
                        stacklevel=2,
                    )
                continue
            fit = ols(table.bin_centers[inc] ** 2, table.conditional_variances[inc])
            var_w = max(fit.slope, 0.0)
            var_eta = max(fit.intercept, 0.0) / h_j**2
            rows.append(
                TransitionVarianceFit(
                    parent_layer=j,
                    side=side,
                    slope=fit.slope,
                    intercept=fit.intercept,
                    stderr_slope=fit.stderr_slope,
                    stderr_intercept=fit.stderr_intercept,
                    adj_r2=fit.adj_r2,
                    var_w=var_w,
                    var_eta=var_eta,
                    clamped=fit.slope < 0.0 or fit.intercept < 0.0,
                    ratio_sq=ratio_sq,
                    identity_residual=abs(ratio_sq - (var_w + var_eta)),
                    n_bins=int(np.count_nonzero(inc)),
                )
            )
    return rows
