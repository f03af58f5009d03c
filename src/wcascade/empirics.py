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
center, each layer in its own unit (:func:`wcascade.dwt.layer_exponent`),
with the results mapped back exactly.  Every layer spread ``h_j`` is
:func:`wcascade.dwt.layer_spread`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from wcascade.dwt import TimeSeries, WaveletPyramid, layer_exponent, layer_spread
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
    same_day = days[dt:] == days[:-dt]
    if not same_day.any():
        raise ValueError(f"no day is longer than the return lag dt={dt}")
    # the minute of the day (0..1439) at which each return ends; it is also its bin's id
    minutes = (panel.timestamps[dt:][same_day] - days[dt:][same_day]).astype("timedelta64[m]")
    minutes = minutes.astype(np.int32)
    del days
    counts = np.bincount(minutes)
    # an issue's returns grouped by time of day, in row order, are r[order];
    # bin v holds grouped[bounds[v]:bounds[v + 1]]
    order = np.argsort(minutes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    n_issues = len(panel.issues)
    averaged = np.zeros(minutes.size)
    sigmas = np.empty(counts.size)
    # One issue at a time, so no array spans the whole panel.  Each issue's
    # log is taken in place on a private copy of its price column, so the
    # panel is left as it was.
    for i in range(n_issues):
        log_price = panel.prices[:, i].copy()
        np.log(log_price, out=log_price)
        r = (log_price[dt:] - log_price[:-dt])[same_day]
        del log_price
        global_std = float(r.std())
        if global_std == 0.0:
            raise ValueError(
                f"issue {panel.issues[i]!r} has degenerate returns (zero variance)"
            )
        grouped = r[order]
        fallbacks = []
        for v in np.flatnonzero(counts):
            # no name is bound to a bin's view, which would keep grouped alive
            sigma = float(grouped[bounds[v]:bounds[v + 1]].std()) if counts[v] >= 2 else 0.0
            if sigma == 0.0:
                sigma = global_std
                fallbacks.append(int(v))
            sigmas[v] = sigma
        del grouped
        if fallbacks:
            warnings.warn(
                f"issue {panel.issues[i]!r}: time-of-day bins {fallbacks} are too "
                "sparse; using the global standard deviation there",
                stacklevel=2,
            )
        r /= sigmas[minutes]
        spread = float(r.std())
        if spread == 0.0:
            raise ValueError(
                f"issue {panel.issues[i]!r} has degenerate normalized returns"
            )
        r -= r.mean()
        r /= spread
        averaged += r
        del r
    averaged /= n_issues
    return averaged


def accumulate_path(deltas) -> TimeSeries:
    """Cumulative sum of increments, truncated to the most recent 2^J points."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size < 2:
        raise ValueError("need a vector of at least 2 increments")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("increments contain non-finite values")
    keep = 1 << (deltas.size.bit_length() - 1)
    return TimeSeries(np.cumsum(deltas[-keep:]))


@dataclass
class MultiplierTransition:
    """Backward factor estimates for one layer transition j -> j+1.

    ``ratios`` has the shape of ``pyramid.children(j)``: ``ratios[k]`` is
    node ``k``'s children over node ``k``, left first.  A row whose parent
    magnitude falls below the masking threshold is NaN and has
    ``valid[k] = False``.
    """

    ratios: np.ndarray
    valid: np.ndarray

    @property
    def pooled(self) -> np.ndarray:
        """The valid left ratios, then the valid right ones."""
        return self.ratios[self.valid].T.ravel()


@dataclass
class MultiplierSet:
    transitions: list  # entry j is the transition with parent layer j


def extract_multipliers(pyramid: WaveletPyramid) -> MultiplierSet:
    """Backward child/parent ratios for every layer transition.

    The pyramid's rescaled layers are what makes the ratios stationary.
    Parents with magnitude below ``1e-6 * h_j`` (and exact zeros) are
    masked rather than producing infinities.
    """
    transitions = []
    for j in range(pyramid.depth):
        parents = pyramid.layer(j)
        threshold = _ZERO_TOL * layer_spread(parents)
        valid = np.abs(parents) > threshold
        ratios = np.full((parents.size, 2), np.nan)
        np.divide(pyramid.children(j), parents[:, None], out=ratios, where=valid[:, None])
        if not np.any(valid):
            warnings.warn(
                f"transition {j}->{j + 1}: every parent is masked; no ratios",
                stacklevel=2,
            )
        transitions.append(MultiplierTransition(ratios=ratios, valid=valid))
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


def _correlation_row(x, y, layer: int, label: str):
    # a masked factor is NaN and the log of a zero magnitude is -inf; both drop the pair
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(np.abs(x))
        y = np.log(np.abs(y))
    valid = np.isfinite(x) & np.isfinite(y)
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
    for j, outgoing in enumerate(ms.transitions):
        factors = outgoing.ratios.T.ravel()  # every left factor, then every right one
        if factors.size < _MIN_PAIRS:
            continue  # too few pairs ever; skips transition 0, which has no incoming factor
        # The parent coefficient, then the incoming factor of each layer-j
        # node, against each of its outgoing factors.
        for rows, label, x in (
            (parent_vs, "parent-vs-factor", pyramid.layer(j)),
            (successive, "successive-factor", ms.transitions[j - 1].ratios.ravel()),
        ):
            row = _correlation_row(np.tile(x, 2), factors, j, label)
            if row is not None:
                rows.append(row)
    return MultiplierCorrelations(successive=successive, parent_vs_factor=parent_vs)


_GAP_BLOCK = 1 << 14  # points of x per searchsorted call


def _ks_statistic(x, shares, y) -> float:
    """Two-sample KS statistic of sorted samples; ``shares`` is ``arange(n + 1) / n``.

    Between two points of ``x`` its ECDF is constant while ``y``'s grows, so
    ``F_x - F_y`` peaks at a point of ``x`` and ``F_y - F_x`` just below one:
    one ``searchsorted`` of ``x`` into ``y`` gives both, and a second, on the
    left side, runs only where a point of ``y`` equals one of ``x``.  The
    i-th point takes ``(i + 1) / n`` of ``x`` up to it and ``i / n`` below
    it, which is exact at the last and the first point of a run of ties, and
    smaller gaps elsewhere in the run.  Each gap is a difference of ``k / n``
    and ``l / m`` that the merged ECDFs also take, and rounding is monotone,
    so the statistic is the same float as the largest gap over the merged
    points, for any sample sizes.
    """
    largest = 0.0
    for lo in range(0, x.size, _GAP_BLOCK):  # block by block, so each thread's scratch stays small
        points = x[lo : lo + _GAP_BLOCK]
        hi = lo + points.size
        right = np.searchsorted(y, points, side="right")
        share = right / y.size
        largest = max(largest, float((shares[lo + 1 : hi + 1] - share).max()))
        right -= 1  # y's last point up to each point; at -1, y[-1] lies above it
        if np.any(y[right] == points):
            share = np.searchsorted(y, points, side="left") / y.size
        share -= shares[lo:hi]
        largest = max(largest, float(share.max()))
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
    in the pyramid's rescaled convention.  Refuses, before any distance is
    computed, a grid that is not finite and increasing and an H that takes
    a layer past the float range.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if not (h_grid.size >= 2 and np.all(np.isfinite(h_grid)) and np.all(np.diff(h_grid) > 0)):
        raise ValueError("h_grid must be an increasing vector of >= 2 finite values")
    usable = [j for j in range(1, pyramid.depth + 1) if 2**j >= min_layer_size]
    if len(usable) < 3:
        raise ValueError(
            f"need >= 3 layers with >= {min_layer_size} coefficients, "
            f"got {len(usable)}"
        )
    sorted_layers = [np.sort(pyramid.layer(j)) for j in usable]
    log_scales = np.array([math.log(pyramid.scale(j)) for j in usable])
    largest = np.array([max(-x[0], x[-1]) for x in sorted_layers])
    # each row makes its H's factors again, so no array is held per H value;
    # an infinite factor gives inf, or nan on a layer of zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for h in h_grid:
            past = ~np.isfinite(largest * np.exp(-h * log_scales))
            if past.any():
                raise ValueError(f"H = {h:g} scales layer {usable[past.argmax()]} past the float range")
    # each layer but the largest is searched into every larger one
    shares = [np.arange(x.size + 1) / x.size for x in sorted_layers[:-1]]

    def mean_distance(h: float) -> float:
        scaled = [x * f for x, f in zip(sorted_layers, np.exp(-h * log_scales))]
        total = 0.0
        n_pairs = 0
        for a, x_shares in enumerate(shares):
            for y in scaled[a + 1:]:
                total += _ks_statistic(scaled[a], x_shares, y)
                n_pairs += 1
        return total / n_pairs

    # searchsorted releases the GIL; each row sums its pairs in order,
    # so the distances do not depend on the number of threads
    distances = np.array(list(thread_map(mean_distance, h_grid)))
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
        identity_residual=abs(ratio_sq),
        n_bins=0,
    )


def _ldexp(value: float, shift: int, what: str) -> float:
    """``value * 2**shift``: a result taken from layer units back to input units.

    One past the float range is refused as ``"{what} overflows"``.
    """
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        raise ValueError(f"{what} overflows") from None


def estimate_variances(pyramid: WaveletPyramid, min_layer_size: int = 256) -> list:
    """Per-transition, per-side variance decomposition fits.

    Parents are binned with width ``0.2 * h_j``; bins holding at least 100
    children enter an ordinary least squares fit of the conditional
    variance against the squared bin center.  Transitions whose parent
    layer is smaller than ``min_layer_size`` are omitted, and so is a side
    with fewer than 3 usable bins (with a warning if its children could
    have filled 3 bins), except that an exactly deterministic transition
    reports zero variances directly.

    The fit runs in layer units, parents times ``2**-e`` and children times
    ``2**-e1`` (their :func:`~wcascade.dwt.layer_exponent`), and each result
    is mapped back exactly.  So no square is taken in input units, and a
    pyramid times ``2**k`` gets bit-equal ratios.  A squared spread ratio or
    a result past the float range in input units is an error, raised before
    any warning.
    """
    rows, omitted = [], []
    for j in range(1, pyramid.depth):
        parents = pyramid.layer(j)
        if parents.size < min_layer_size:
            continue
        e, e1 = layer_exponent(parents), layer_exponent(pyramid.layer(j + 1))
        h_j = math.ldexp(layer_spread(parents), -e)
        h_j1 = math.ldexp(layer_spread(pyramid.layer(j + 1)), -e1)
        sides = tuple(zip(("left", "right"), pyramid.children(j).T))
        if h_j == 0.0:
            ratio_sq = float("nan")
            for side, kids in sides:
                if float(np.ldexp(kids, -e1).var()) == 0.0:
                    rows.append(_zero_variance_row(j, side, ratio_sq))
                else:
                    omitted.append(f"transition {j}->{j + 1} ({side}): parent layer has no "
                                   "spread; cannot fit")
            continue
        layer_ratio_sq = (h_j1 / h_j) ** 2
        ratio_sq = _ldexp(layer_ratio_sq, 2 * (e1 - e),
                          f"transition {j}->{j + 1}: the squared layer spread ratio")
        parents = np.ldexp(parents, -e)
        for side, kids in sides:
            table = binned_conditional_variance(parents, np.ldexp(kids, -e1), _BIN_WIDTH * h_j)
            inc = table.bin_counts >= _MIN_COUNT
            if int(np.count_nonzero(inc)) < 3:
                if table.conditional_variances.max() == 0.0:
                    rows.append(_zero_variance_row(j, side, ratio_sq))
                elif kids.size >= 3 * _MIN_COUNT:  # too few children is no news
                    omitted.append(f"transition {j}->{j + 1} ({side}): fewer than 3 usable "
                                   "bins; omitted")
                continue
            fit = ols(table.bin_centers[inc] ** 2, table.conditional_variances[inc])
            var_w, var_eta = max(fit.slope, 0.0), max(fit.intercept, 0.0) / h_j**2
            fields = {"slope": fit.slope, "intercept": fit.intercept, "stderr_slope": fit.stderr_slope,
                      "stderr_intercept": fit.stderr_intercept, "var_w": var_w, "var_eta": var_eta,
                      "identity_residual": abs(layer_ratio_sq - (var_w + var_eta))}
            # to input units: child variances times 2**(2 e1), variance ratios times 2**(2 (e1 - e))
            fields = {name: _ldexp(value, 2 * e1 if "intercept" in name else 2 * (e1 - e),
                                   f"transition {j}->{j + 1} ({side}): {name}")
                      for name, value in fields.items()}
            rows.append(TransitionVarianceFit(
                parent_layer=j, side=side, adj_r2=fit.adj_r2, ratio_sq=ratio_sq,
                clamped=fit.slope < 0.0 or fit.intercept < 0.0, n_bins=int(np.count_nonzero(inc)),
                **fields,
            ))
    for message in omitted:
        warnings.warn(message, stacklevel=2)
    return rows
