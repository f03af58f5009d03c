"""Command-line front end: simulate cascades, analyze series, emit tables.

Exit codes are a frozen contract: 0 success, 2 invalid input or config,
3 I/O failure, 4 analysis failure.  Every command is deterministic given
its config and seed; rerunning produces byte-identical artifacts.

Each command is one row of :data:`_COMMANDS`: its flags, named in
:data:`_FLAGS`, and a function from the parsed arguments to its
``{name: content}`` files.  That function reads its input through
:func:`_read` (failures raise :class:`InputError`) and runs the library
through :func:`_stage` (failures raise :class:`AnalysisError`).
:func:`main` hands the files to :func:`_write_report`, which alone creates
``--out``, applies ``--format`` and writes every file, ``pyramid.json``
through :func:`~wcascade.dwt.save_pyramid`; :func:`main` alone maps the
exceptions to exit codes, and prints each warning a command raises as one
``warning: <message>`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from wcascade import cascade, empirics, wtmm
from wcascade.dwt import TimeSeries, WaveletPyramid, dwt_forward, dwt_inverse, load_pyramid
from wcascade.dwt import json_float, json_floats, save_pyramid
from wcascade.stats import fit_cauchy, fit_normal, fit_student_t2

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4


# Largest estimated allocation a command may make; a larger one is refused
# before anything is allocated.  It admits a 2**23-point spectrum (1.75 GiB
# estimated) and refuses a 2**24-point one (3.5 GiB).
MEMORY_BUDGET = 3 * 2**30
# `simulate`'s peak grew by 40 bytes per path sample from depth 19 to 21
# (76, 116 and 196 MiB): the pyramid, the path and the synthesis step's
# buffers.  So depth 25 is estimated at 2.8 GiB and would peak near 2.5 GiB.
_SIMULATE_BYTES_PER_SAMPLE = 45
# `spectrum` holds 2 transform rows, the maxima and the ridge lines, not a
# whole matrix: on lognormal cascade paths it peaked at 83.7, 136.5, 241.5
# and 457.6 MiB at 2**19, 2**20, 2**21 and 2**22 points, about 106 bytes
# per added sample.  The interpreter's own 31 MiB makes the smallest size the
# costliest per sample: 175 bytes at 2**19 with the fit window up to L/8
# (113 scales, 87.4 MiB).  This charge is 28% above that peak and 96% above
# the 2**22 one; the number of scales moves the peak little.
_SPECTRUM_BYTES_PER_SAMPLE = 224
# Per q value besides its log2_Z row: the fit's arrays and the report's floats
# (a 4096-point spectrum traced 535 bytes per q, 456 of them its 57 log2_Z cells).
_SPECTRUM_BYTES_PER_Q = 256
# Per H value: the grid, its distances and the report's two float lists
# (`collapse` on a depth-8 pyramid traced 71 bytes per H value, 22,000 to 42,000 points).
_COLLAPSE_BYTES_PER_H = 96
# CSV rows rendered per write: a path.csv never holds its whole text in memory.
_CSV_BLOCK = 1 << 14


class InputError(Exception):
    """Invalid input data or configuration (exit 2)."""


class AnalysisError(Exception):
    """A computation stage failed (exit 4)."""


def _stage(name: str, fn, *args):
    """Run one library stage; its ValueError becomes an AnalysisError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise AnalysisError(f"stage {name}: {exc}") from exc


def _fields(text: str, form: str, *types) -> tuple:
    """``text``'s colon-separated fields, converted one per type, in the ``form`` shown."""
    try:
        return tuple(kind(field) for kind, field in zip(types, text.split(":"), strict=True))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _q_range(text: str) -> tuple:
    lo, hi, n = _fields(text, "MIN:MAX:COUNT", float, float, int)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and n >= 3):
        raise argparse.ArgumentTypeError(f"need finite MIN < MAX and COUNT >= 3, got {text!r}")
    return lo, hi, n


def _scale_range(text: str) -> tuple:
    return _fields(text, "MIN:MAX", float, float)


def _h_grid(text: str) -> np.ndarray:
    start, stop, step = _fields(text, "START:STOP:STEP", float, float, float)
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop and 0 < step < math.inf):
        raise argparse.ArgumentTypeError(f"need finite STOP > START and STEP > 0, got {text!r}")
    points = (stop + step / 2 - start) / step  # np.arange's length, before rounding up
    what = f"an H grid of {points:.3g} points"
    _within_budget(what, points * _COLLAPSE_BYTES_PER_H, argparse.ArgumentTypeError)
    return np.arange(start, stop + step / 2, step)


def _simulate_bytes(depth: int) -> float:
    # 2.0 ** 1000 is far over any budget; the cap keeps the float finite
    return _SIMULATE_BYTES_PER_SAMPLE * 2.0 ** min(depth + 1, 1000)


def _spectrum_bytes(length: int, config: wtmm.WtmmConfig) -> int:
    """Per sample the measured peak with a margin, per q a log2_Z row and report."""
    n_scales = config.scale_grid(length).size
    return length * _SPECTRUM_BYTES_PER_SAMPLE + config.n_q * (n_scales * 8 + _SPECTRUM_BYTES_PER_Q)


def _within_budget(what: str, nbytes: float, error=InputError) -> None:
    if nbytes > MEMORY_BUDGET:
        raise error(f"{what} would need more than the {MEMORY_BUDGET / 2**30:g} GiB memory budget")


def _wtmm_config(args, length: int) -> wtmm.WtmmConfig:
    """The spectrum settings, once a ``length``-point series is long enough and fits the budget."""
    if length < 1024:
        raise InputError(f"series too short after truncation: {length} < 1024")
    config = wtmm.WtmmConfig()
    if args.q_range:
        config.q_min, config.q_max, config.n_q = args.q_range
    if args.scale_range:
        config.fit_min_scale, config.fit_max_scale = args.scale_range
    _within_budget(f"spectrum of {length} samples", _spectrum_bytes(length, config))
    return config


def _read(what: str, fn, *args):
    """Read one input; its failure becomes an InputError that names ``what``."""
    try:
        return fn(*args)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except (KeyError, IndexError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise InputError(f"invalid {what}: {exc}") from exc


def _is_header(line: str) -> bool:
    """Line 1 is a header unless it is blank or one number or ``index,value``."""
    fields = line.split(",")
    try:
        float(fields[-1])
    except ValueError:
        return bool(line.strip())
    return len(fields) > 2


def _series(path) -> TimeSeries:
    """One optional header line, then one number or ``index,value`` per line.

    numpy reads the file: every line has the same number of fields, each in
    numpy's float syntax.  Blank lines are skipped.  The series is truncated
    to its most recent ``2**J`` samples.
    """
    with open(path) as fh:
        header = int(_is_header(fh.readline()))
    try:
        with warnings.catch_warnings():
            # a file without samples is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=header)
        if table.shape[1] > 2:
            raise ValueError(f"{table.shape[1]} fields per line, expected at most 2")
    except ValueError:
        # numpy's row numbers skip the header and blank lines; name the file line
        _raise_on_bad_line(path, header)
        raise
    if table.shape[0] < 2:
        raise ValueError("fewer than 2 numeric samples")
    keep = 1 << (table.shape[0].bit_length() - 1)
    return TimeSeries(table[-keep:, -1])


def _raise_on_bad_line(path, header: int) -> None:
    """Raise on the first line of the series that numpy cannot read, naming it."""
    width = None  # the field count of the first sample line
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line_no <= header or not line:
                continue
            fields = line.split(",")
            width = width or len(fields)
            if len(fields) > 2 or any(empirics.numpy_float(f) is None for f in fields):
                raise ValueError(f"line {line_no}: expected a number or index,value, got {line!r}")
            if len(fields) != width:
                expected = ("a number", "index,value")[width - 1]
                raise ValueError(f"line {line_no}: expected {expected} as above, got {line!r}")


def _spectrum(path) -> wtmm.SingularSpectrum:
    """A ``spectrum.json`` file as written by :func:`_spectrum_report`."""
    data = json.loads(Path(path).read_text())
    columns = [json_floats(data[k], k) for k in ("q", "tau", "tau_stderr", "alpha", "D")]
    support = json_floats(data["support"], "support")
    if support.size != 2:
        raise ValueError(f"support must be a list of two numbers, got {data['support']!r}")
    support = (float(support[0]), float(support[1]))
    peak_alpha = json_float(data["peak_alpha"], "peak_alpha")
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1 or not columns[0].size:
        raise ValueError("q, tau, tau_stderr, alpha and D must be equal-length, non-empty lists")
    if not all(np.all(np.isfinite(c)) for c in (*columns, support, peak_alpha)):
        raise ValueError("the spectrum holds a non-finite value")
    return wtmm.SingularSpectrum(*columns, support=support, peak_alpha=peak_alpha)


def _panel(path, dt: int) -> tuple:
    """Deseasonalized increments of a price panel and their accumulated path."""
    deltas = empirics.deseasonalize_returns(empirics.load_panel_csv(path), dt=dt)
    return deltas, empirics.accumulate_path(deltas)


def _spec(path, seed: int | None) -> cascade.CascadeSpec:
    """A cascade config; a ``--seed`` override is validated like the file's own."""
    data = json.loads(Path(path).read_text())
    if seed is not None:
        data["seed"] = seed
    return cascade.CascadeSpec.from_dict(data)


def _write_report(out, files: dict, fmt: str = "both") -> None:
    """Create ``out`` and write the ``{name: content}`` files that ``fmt`` selects.

    ``fmt`` selects by suffix: ``json``, ``csv`` or ``both``.  A
    :class:`WaveletPyramid` goes to :func:`save_pyramid`; any other ``.json``
    name takes a JSON value; a ``.csv`` name takes ``(header, columns)``,
    equal-length columns of Python ints, strs and floats, or float arrays,
    each cell rendered with ``str`` (for a float, its ``repr``).
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        suffix = Path(name).suffix.lstrip(".")
        if fmt not in (suffix, "both"):
            continue
        if isinstance(content, WaveletPyramid):
            save_pyramid(content, out / name)
            continue
        with open(out / name, "w") as fh:
            if suffix == "json":
                json.dump(content, fh, indent=2)
                fh.write("\n")
            else:
                header, columns = content
                fh.write(header + "\n")
                for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
                    # a generator, so no block's cells stay alive while the next file is written
                    cells = (_csv_cells(c[start : start + _CSV_BLOCK]) for c in columns)
                    fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _csv_cells(column) -> list:
    """The ``str`` of each entry; for a float array, one ``repr`` of its list renders them all."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return repr(column.tolist())[1:-1].split(", ")
    return list(map(str, column))


def _indexed_csv(header: str, values) -> tuple:
    values = np.asarray(values, dtype=np.float64)
    return f"index,{header}", (range(values.size), values)


def _spectrum_report(series, config) -> dict:
    """The spectrum stage of ``spectrum`` and ``pipeline``, and its files."""
    spectrum = _stage("spectrum", wtmm.singular_spectrum, series, config)
    q, tau, stderr = spectrum.q_grid.tolist(), spectrum.tau.tolist(), spectrum.tau_stderr.tolist()
    alpha, D = spectrum.alpha.tolist(), spectrum.D.tolist()
    return {
        "spectrum.json": {
            "q": q,
            "tau": tau,
            "tau_stderr": stderr,
            "alpha": alpha,
            "D": D,
            "support": [spectrum.support[0], spectrum.support[1]],
            "peak_alpha": spectrum.peak_alpha,
        },
        "tau.csv": ("q,tau,tau_stderr", (q, tau, stderr)),
        "spectrum.csv": ("alpha,D", (alpha, D)),
    }


def _variance_report(pyramid) -> dict:
    """The variance stage of ``variances`` and ``pipeline``, and its files; no fit at all fails it."""
    fits = _stage("variances", empirics.estimate_variances, pyramid)
    if not fits:
        raise AnalysisError("no transition had enough data for a variance fit")
    return _variance_files(fits)


def _variance_files(fits: list) -> dict:
    # the publication table's numeric columns, rendered to two decimals
    cells = ("slope", "intercept", "stderr_slope", "stderr_intercept",
             "adj_r2", "var_w", "var_eta")
    table = [(f.parent_layer, f.side, *(f"{getattr(f, c):.2f}" for c in cells)) for f in fits]
    return {
        "variances.json": [dataclasses.asdict(f) for f in fits],
        "variance_table.csv": ("Scale,side,a,b,Std a,Std b,Adj R2,Var(W),Var(eta)", tuple(zip(*table))),
    }


def _collapse_report(pyramid, h_grid) -> dict:
    """The collapse stage of ``collapse`` and ``pipeline``, and its files."""
    result = _stage("collapse", empirics.collapse_H, pyramid, h_grid)
    h_grid, distances = result.h_grid.tolist(), result.distances.tolist()
    return {
        "collapse.json": {
            "h": result.h,
            "distance": result.distance,
            "boundary": result.boundary,
            "h_grid": h_grid,
            "distances": distances,
        },
        "collapse.csv": ("h,distance", (h_grid, distances)),
    }


def _multiplier_report(pyramid) -> dict:
    """The multiplier stage of ``multipliers`` and ``pipeline``, and its files."""
    ms = _stage("multipliers", empirics.extract_multipliers, pyramid)
    corr = _stage("multipliers", empirics.multiplier_correlations, ms, pyramid)
    fits = {}
    for t in ms.transitions:
        pooled = t.pooled
        if pooled.size < 100:
            continue
        entry = {}
        for name, fitter in (
            ("cauchy", fit_cauchy),
            ("student_t2", fit_student_t2),
            ("normal", fit_normal),
        ):
            entry[name] = None  # a fit that rejects the sample is reported as null
            with contextlib.suppress(ValueError):
                result = fitter(pooled)
                entry[name] = {"scale": result.scale, "goodness": result.goodness}
        fits[str(t.parent_layer)] = {"n_valid": int(pooled.size), "fits": entry}
    report = {"transitions": fits}
    rows = []
    tables = {"successive": corr.successive, "parent_vs_factor": corr.parent_vs_factor}
    for kind, table in tables.items():
        report[f"{kind}_correlations"] = [
            {"layer": r.layer, "r": r.r, "n_pairs": r.n_pairs} for r in table
        ]
        rows += [(kind, r.layer, float(r.r), r.n_pairs) for r in table]
    return {"multipliers.json": report, "correlations.csv": ("kind,layer,r,n_pairs", tuple(zip(*rows)))}


def _simulate(args) -> dict:
    spec = _read("cascade config", _spec, args.config, args.seed)
    _within_budget(f"cascade depth {spec.depth}", _simulate_bytes(spec.depth))
    pyramid = _stage("synthesize", cascade.synthesize_mixed, spec)
    path = _stage("reconstruct", dwt_inverse, pyramid)
    return {"path.csv": _indexed_csv("value", path.values), "pyramid.json": pyramid}


def _series_spectrum(args) -> dict:
    series = _read(f"series file {args.input}", _series, args.input)
    config = _wtmm_config(args, series.length)
    files = _spectrum_report(series, config)
    lo, hi = config.fit_window(series.length)
    print(f"fit scale range: [{lo:g}, {hi:g}] samples", file=sys.stderr)
    return files


def _check_spectrum(args) -> dict:
    spectrum = _read(f"spectrum file {args.input}", _spectrum, args.input)
    error = wtmm.legendre_duality_error(spectrum)
    curvature = 0.0
    if spectrum.tau.size >= 3:
        curvature = float(np.max(np.abs(np.diff(spectrum.tau, 2))))
    tolerance = 4.0 * curvature + 1e-9
    print(f"duality gap {error:.3e} (tolerance {tolerance:.3e})")
    if error > tolerance:
        raise AnalysisError(
            f"Legendre duality violated: gap {error:.3e} > {tolerance:.3e}"
        )
    return {}


def _ingest(args) -> dict:
    deltas, path = _read("panel", _panel, args.input, args.dt)
    return {"deltas.csv": _indexed_csv("delta", deltas), "path.csv": _indexed_csv("value", path.values)}


def _pipeline(args) -> dict:
    _, path = _read("panel", _panel, args.input, args.dt)
    config = _wtmm_config(args, path.length)
    pyramid = _stage("transform", dwt_forward, path)
    return {
        "path.csv": _indexed_csv("value", path.values),
        **_spectrum_report(path, config),
        **_multiplier_report(pyramid),
        **_variance_report(pyramid),
        **_collapse_report(pyramid, args.h_grid),
        "pyramid.json": pyramid,
    }


# Every flag, each declared once; `--input` is the one whose help a command sets.
_FLAGS = {
    "--config": dict(required=True, help="cascade spec JSON file"),
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--out": dict(required=True, help="output directory"),
    "--format": dict(
        choices=("json", "csv", "both"),
        default="both",
        help="artifact format for analysis tables (default: both)",
    ),
    "--dt": dict(type=int, default=1, help="return lag in grid steps"),
    "--q-range": dict(type=_q_range, help="moment grid MIN:MAX:COUNT"),
    "--scale-range": dict(type=_scale_range, help="fit window MIN:MAX in samples"),
    "--h-grid": dict(type=_h_grid, default="0:1:0.01", help="exponent grid START:STOP:STEP"),
}

# One row per command: name, help, --input help (None: no --input), its other
# flags in order, and its function from the parsed arguments to its files.
_COMMANDS = (
    ("simulate", "synthesize a cascade pyramid and its path", None,
     ("--config", "--seed", "--out"), _simulate),
    ("spectrum", "singular spectrum of a series", "path CSV (index,value or one value per line)",
     ("--out", "--format", "--q-range", "--scale-range"), _series_spectrum),
    ("check-spectrum", "verify a spectrum file's Legendre duality", "spectrum JSON file",
     (), _check_spectrum),
    ("multipliers", "backward factor statistics of a pyramid", "pyramid JSON file",
     ("--out", "--format"),
     lambda a: _multiplier_report(_read(f"pyramid file {a.input}", load_pyramid, a.input))),
    ("variances", "per-layer variance decomposition", "pyramid JSON file",
     ("--out", "--format"),
     lambda a: _variance_report(_read(f"pyramid file {a.input}", load_pyramid, a.input))),
    ("collapse", "distribution-collapse exponent estimate", "pyramid JSON file",
     ("--out", "--format", "--h-grid"),
     lambda a: _collapse_report(_read(f"pyramid file {a.input}", load_pyramid, a.input), a.h_grid)),
    ("ingest", "deseasonalize a price panel into a path", "panel CSV (timestamp,ISSUE1,...)",
     ("--out", "--dt"), _ingest),
    ("pipeline", "full panel-to-report analysis", "panel CSV (timestamp,ISSUE1,...)",
     ("--out", "--dt", "--q-range", "--scale-range", "--h-grid"), _pipeline),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcascade",
        description="Simulate multiplicative wavelet cascades and analyze "
        "time series for multifractality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, input_help, flags, run in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if input_help:
            p.add_argument("--input", required=True, help=input_help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=run)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        files = args.run(args)
        if files:
            _write_report(args.out, files, getattr(args, "format", "both"))
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    finally:
        warnings.formatwarning = formatwarning


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
