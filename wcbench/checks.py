"""Checks of the CLI's artifacts.

Every check returns a list of problems, empty when the artifact holds.  A
check recomputes the artifact with :mod:`reference` or tests a property the
method guarantees (Parseval, Legendre duality, agreement of the JSON and
CSV views); none compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

FIT_FAMILIES = ("cauchy", "student_t2", "normal")
# Fractional step around a fitted scale at which the fit's squared error
# must not be lower: the reported scale is a minimum of the error.
FIT_STEP = 1e-3


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_series(path) -> np.ndarray:
    rows = read_csv(path)
    if rows[0] != ["index", "value"]:
        raise ValueError(f"{path}: header {rows[0]}")
    return np.array([float(row[1]) for row in rows[1:]])


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    return float(np.max(np.abs(a - b))) / scale if a.size else 0.0


def _problem_if(condition: bool, message: str) -> list:
    return [message] if condition else []


def check_path_from_panel(path_csv: Path, prices: np.ndarray) -> list:
    """path.csv equals the plain-numpy deseasonalised panel path."""
    path = read_series(path_csv)
    expected = reference.path_from_increments(reference.deseasonalized_increments(prices))
    err = _rel_err(path, expected)
    return _problem_if(err > 1e-9, f"path: differs from the numpy deseasonalisation (rel {err:.2e})")


def check_pyramid_inverts_to_path(pyramid: dict, path: np.ndarray, depth: int) -> list:
    """The pyramid has the right depth, keeps the path's energy and inverts to it."""
    if pyramid["depth"] != depth or len(pyramid["layers"]) != depth:
        return [f"pyramid: depth {pyramid['depth']}, expected {depth}"]
    problems = _problem_if(not pyramid["rescaled"], "pyramid: not in the rescaled convention")
    energy = float(path @ path)
    gap = abs(reference.pyramid_energy(pyramid) - energy) / energy
    problems += _problem_if(gap > 1e-9, f"pyramid: Parseval gap {gap:.2e}")
    rebuilt = reference.inverse_d4(
        pyramid["root_approx"], pyramid["root_detail"], reference.raw_layers(pyramid)
    )
    err = _rel_err(rebuilt, path)
    problems += _problem_if(err > 1e-9, f"pyramid: D4 inverse differs from path.csv (rel {err:.2e})")
    return problems


def check_simulated_pyramid(pyramid: dict, config: dict) -> list:
    """``simulate``'s pyramid equals the one rebuilt from the Philox stream layout."""
    problems = []
    for key in ("depth", "root_approx", "root_detail"):
        problems += _problem_if(pyramid[key] != config[key], f"simulate: {key} {pyramid[key]!r}")
    expected = reference.mixed_cascade_layers(config)
    if len(pyramid["layers"]) != len(expected):
        return problems + ["simulate: wrong number of layers"]
    worst = max(_rel_err(got, want) for got, want in zip(pyramid["layers"], expected))
    return problems + _problem_if(worst > 1e-12, f"simulate: layers differ from the Philox rebuild (rel {worst:.2e})")


def check_spectrum(out: Path) -> list:
    """(alpha, D) is the Legendre dual of tau's concave majorant; CSVs match the JSON."""
    spec = load_json(out / "spectrum.json")
    q, tau = np.array(spec["q"]), np.array(spec["tau"])
    alpha, D = np.array(spec["alpha"]), np.array(spec["D"])
    if not (q.size >= 3 and q.size == tau.size == alpha.size == D.size):
        return ["spectrum: q, tau, alpha and D differ in length"]
    problems = _problem_if(np.any(np.diff(q) <= 0), "spectrum: q grid not increasing")
    ref_alpha, ref_D = reference.legendre_pairs(q, tau)
    err = max(_rel_err(alpha, ref_alpha), _rel_err(D, ref_D))
    problems += _problem_if(err > 1e-9, f"spectrum: (alpha, D) is not the Legendre dual of tau (rel {err:.2e})")
    problems += _problem_if(
        spec["support"] != [float(alpha.min()), float(alpha.max())],
        "spectrum: support is not the alpha range",
    )
    problems += _problem_if(
        spec["peak_alpha"] != float(alpha[np.argmin(np.abs(q))]),
        "spectrum: peak_alpha is not alpha at q nearest 0",
    )
    tau_rows = read_csv(out / "tau.csv")
    want = [["q", "tau", "tau_stderr"]] + [
        [repr(a), repr(b), repr(c)] for a, b, c in zip(spec["q"], spec["tau"], spec["tau_stderr"])
    ]
    problems += _problem_if(tau_rows != want, "spectrum: tau.csv disagrees with spectrum.json")
    d_rows = read_csv(out / "spectrum.csv")
    want = [["alpha", "D"]] + [[repr(a), repr(d)] for a, d in zip(spec["alpha"], spec["D"])]
    problems += _problem_if(d_rows != want, "spectrum: spectrum.csv disagrees with spectrum.json")
    return problems


def check_tau_closed_form(out: Path, mean_log: float, var_log: float, q_max: float, tol: float) -> list:
    """|tau(q) - closed form| <= tol for |q| <= q_max (tolerance from a seed sweep)."""
    spec = load_json(out / "spectrum.json")
    q, tau = np.array(spec["q"]), np.array(spec["tau"])
    theory = -(q * mean_log + 0.5 * q * q * var_log) / math.log(2.0) - 1.0
    mask = np.abs(q) <= q_max + 1e-12
    err = float(np.max(np.abs(tau[mask] - theory[mask])))
    return _problem_if(err > tol, f"spectrum: tau off the lognormal closed form by {err:.3f} > {tol}")


def check_multipliers(out: Path, pyramid: dict) -> list:
    """Correlations match ``np.corrcoef`` of log magnitudes; fits minimise the histogram error."""
    layers = [np.asarray(layer, dtype=float) for layer in pyramid["layers"]]
    report = load_json(out / "multipliers.json")
    expected = reference.log_correlations(pyramid, layers)
    problems = []
    csv_want = [["kind", "layer", "r", "n_pairs"]]
    for kind, key in (("successive", "successive_correlations"),
                      ("parent_vs_factor", "parent_vs_factor_correlations")):
        got = {row["layer"]: (row["r"], row["n_pairs"]) for row in report[key]}
        want = expected[kind]
        if sorted(got) != sorted(want):
            problems.append(f"multipliers: {kind} layers {sorted(got)}, expected {sorted(want)}")
            continue
        for layer, (r, n) in want.items():
            if got[layer][1] != n or abs(got[layer][0] - r) > 1e-9:
                problems.append(f"multipliers: {kind} layer {layer} is {got[layer]}, expected ({r}, {n})")
        csv_want += [[kind, str(row["layer"]), repr(row["r"]), str(row["n_pairs"])] for row in report[key]]
    problems += _problem_if(
        read_csv(out / "correlations.csv") != csv_want, "multipliers: correlations.csv disagrees with the JSON"
    )
    fits = report["transitions"]
    for j in range(len(layers)):
        left, right, valid = reference.transition_ratios(pyramid, layers, j)
        pooled = np.concatenate([left[valid], right[valid]])
        if pooled.size < reference.FIT_MIN_SAMPLES:
            problems += _problem_if(str(j) in fits, f"multipliers: transition {j} fitted on < 100 samples")
            continue
        entry = fits.get(str(j))
        if entry is None or entry["n_valid"] != pooled.size:
            problems.append(f"multipliers: transition {j} missing or n_valid != {pooled.size}")
            continue
        for family in FIT_FAMILIES:
            problems += _check_fit(j, family, entry["fits"].get(family), pooled)
    return problems


def check_negative_successive(out: Path, min_layer: int, ceiling: float) -> list:
    """Successive factor correlations at layers >= min_layer lie below ceiling.

    The paper's finding for a cascade with an additive term; the ceiling
    comes from a seed sweep (README, "Seed sweeps").
    """
    rows = load_json(out / "multipliers.json")["successive_correlations"]
    high = [(row["layer"], row["r"]) for row in rows if row["layer"] >= min_layer and row["r"] >= ceiling]
    deep = [row for row in rows if row["layer"] >= min_layer]
    return _problem_if(bool(high) or not deep, f"multipliers: successive correlations not below {ceiling}: {high}")


def _check_fit(j: int, family: str, fit, pooled: np.ndarray) -> list:
    label = f"multipliers: transition {j} {family} fit"
    if fit is None:
        return [f"{label} failed on continuous data"]
    scale, goodness = fit["scale"], fit["goodness"]
    sse = reference.histogram_sse(pooled, family, scale)
    if abs(sse - goodness) > 1e-6 * sse + 1e-12:
        return [f"{label}: goodness {goodness!r} != histogram error {sse!r} at its scale"]
    for step in (1.0 - FIT_STEP, 1.0 + FIT_STEP):
        if reference.histogram_sse(pooled, family, scale * step) < goodness * (1.0 - 1e-9):
            return [f"{label}: scale {scale!r} is not a minimum of the histogram error"]
    return []


VARIANCE_FIELDS = (
    "slope", "intercept", "stderr_slope", "stderr_intercept", "adj_r2",
    "var_w", "var_eta", "ratio_sq", "identity_residual",
)
TABLE_COLUMNS = (
    ("a", "slope"), ("b", "intercept"), ("Std a", "stderr_slope"),
    ("Std b", "stderr_intercept"), ("Adj R2", "adj_r2"), ("Var(W)", "var_w"),
    ("Var(eta)", "var_eta"),
)


def check_variances(out: Path, pyramid: dict) -> list:
    """Fits match ``np.bincount`` bins and ``np.polyfit``; the table matches the JSON."""
    layers = [np.asarray(layer, dtype=float) for layer in pyramid["layers"]]
    expected = reference.variance_fits(layers)
    rows = load_json(out / "variances.json")
    got = {(row["parent_layer"], row["side"]): row for row in rows}
    if sorted(got) != sorted(expected):
        return [f"variances: transitions {sorted(got)}, expected {sorted(expected)}"]
    problems = []
    for key, want in expected.items():
        row = got[key]
        for field in VARIANCE_FIELDS:
            if abs(row[field] - want[field]) > 1e-7 * (1.0 + abs(want[field])):
                problems.append(f"variances: {key} {field} {row[field]!r}, expected {want[field]!r}")
        problems += _problem_if(row["n_bins"] != want["n_bins"], f"variances: {key} n_bins")
        clamped = want["slope"] < 0.0 or want["intercept"] < 0.0
        problems += _problem_if(row["clamped"] != clamped, f"variances: {key} clamped flag")
    table = read_csv(out / "variance_table.csv")
    header = ["Scale", "side"] + [name for name, _ in TABLE_COLUMNS]
    if table[0] != header or len(table) != len(rows) + 1:
        return problems + ["variances: variance_table.csv header or length"]
    for line, row in zip(table[1:], rows):
        if line[:2] != [str(row["parent_layer"]), row["side"]]:
            problems.append(f"variances: table row {line[:2]} out of order")
            continue
        for cell, (_, field) in zip(line[2:], TABLE_COLUMNS):
            if abs(float(cell) - row[field]) > 0.005 + 1e-9:
                problems.append(f"variances: table {line[:2]} {field} {cell} vs {row[field]!r}")
    return problems


def h_grid(text: str) -> np.ndarray:
    """The CLI's documented START:STOP:STEP grid, stop included."""
    start, stop, step = (float(v) for v in text.split(":"))
    return np.arange(start, stop + step / 2, step)


def check_collapse(out: Path, pyramid: dict, grid_text: str, interior: bool) -> list:
    """KS distances match ``ks_2samp`` at the argmin and both grid ends; views agree.

    With ``interior`` the argmin must also lie inside the grid, a property of
    the grid chosen for the workload (see the README's seed sweep).
    """
    result = load_json(out / "collapse.json")
    grid, distances = np.array(result["h_grid"]), np.array(result["distances"])
    problems = []
    if _rel_err(grid, h_grid(grid_text)) > 1e-12 or distances.size != grid.size:
        return [f"collapse: h grid is not {grid_text}"]
    rows = read_csv(out / "collapse.csv")
    want = [["h", "distance"]] + [[repr(h), repr(d)] for h, d in zip(result["h_grid"], result["distances"])]
    problems += _problem_if(rows != want, "collapse: collapse.csv disagrees with collapse.json")
    best = int(np.argmin(distances))
    problems += _problem_if(
        result["h"] != grid[best] or result["distance"] != distances[best],
        "collapse: reported H is not the argmin of its distances",
    )
    on_edge = best in (0, grid.size - 1)
    problems += _problem_if(result["boundary"] != on_edge, "collapse: boundary flag disagrees with the argmin")
    problems += _problem_if(interior and on_edge, f"collapse: argmin H={grid[best]} on the grid boundary")
    layers = [np.asarray(layer, dtype=float) for layer in pyramid["layers"]]
    for k in sorted({0, best, grid.size - 1}):
        want_d = reference.collapse_distance(layers, pyramid["depth"], float(grid[k]))
        if abs(distances[k] - want_d) > 1e-9:
            problems.append(f"collapse: distance at H={grid[k]} is {distances[k]!r}, ks_2samp gives {want_d!r}")
    return problems


def check_identical(first: Path, second: Path) -> list:
    """Two output trees hold the same files with the same bytes."""
    a = {p.relative_to(first): p for p in sorted(first.rglob("*")) if p.is_file()}
    b = {p.relative_to(second): p for p in sorted(second.rglob("*")) if p.is_file()}
    if sorted(a) != sorted(b):
        return [f"rerun: files {sorted(map(str, a))} vs {sorted(map(str, b))}"]
    return [f"rerun: {name} differs" for name in a if a[name].read_bytes() != b[name].read_bytes()]
