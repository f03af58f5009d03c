"""Command-line front end: simulate cascades, analyze series, emit tables.

Exit codes are a frozen contract: 0 success, 2 invalid input or config,
3 I/O failure, 4 analysis failure.  Every command is deterministic given
its config and seed; rerunning produces byte-identical artifacts.

Each command reads its input through one loader (failures raise
:class:`InputError`), runs the library through :func:`_stage` (failures
raise :class:`AnalysisError`) and writes each artifact through the one
writer that ``pipeline`` shares; :func:`main` alone maps the exceptions
to exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from wcascade import cascade, empirics, wtmm
from wcascade.dwt import TimeSeries, dwt_forward, dwt_inverse, load_pyramid, rescale, save_pyramid
from wcascade.stats import fit_cauchy, fit_normal, fit_student_t2

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4


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


def _q_range(text: str) -> tuple:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:COUNT, got {text!r}") from None


def _scale_range(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from None


def _h_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}") from None
    if step <= 0 or stop <= start:
        raise argparse.ArgumentTypeError(f"need STOP > START and STEP > 0, got {text!r}")
    return np.arange(start, stop + step / 2, step)


def _wtmm_config(args) -> wtmm.WtmmConfig:
    config = wtmm.WtmmConfig()
    if args.q_range:
        config.q_min, config.q_max, config.n_q = args.q_range
    if args.scale_range:
        config.fit_min_scale, config.fit_max_scale = args.scale_range
    return config


def _load_series(path) -> TimeSeries:
    """One optional header line, then one number or ``index,value`` per line.

    The series is truncated to its most recent ``2**J`` samples.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    values = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            if len(fields) > 2:
                raise ValueError
            values.append(float(fields[-1]))
        except ValueError:
            if line_no == 1:
                continue  # header
            raise InputError(
                f"{path} line {line_no}: expected a number or index,value, got {line!r}"
            ) from None
    if len(values) < 2:
        raise InputError(f"{path} holds fewer than 2 numeric samples")
    keep = 2 ** int(np.floor(np.log2(len(values))))
    try:
        return TimeSeries(np.asarray(values[-keep:]))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_pyramid(path):
    """A pyramid file, converted to the rescaled convention."""
    try:
        pyramid = load_pyramid(path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed pyramid file {path}: {exc}") from exc
    return pyramid if pyramid.rescaled else rescale(pyramid, "to_rescaled")


def _load_spectrum(path) -> wtmm.SingularSpectrum:
    try:
        with open(path) as fh:
            return wtmm.spectrum_from_dict(json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed spectrum file {path}: {exc}") from exc


def _load_panel(path, dt: int) -> tuple:
    """Deseasonalized increments of a price panel and their accumulated path."""
    try:
        deltas = empirics.deseasonalize_returns(empirics.load_panel_csv(path), dt=dt)
        return deltas, empirics.accumulate_path(deltas)
    except OSError as exc:
        raise InputError(f"cannot read panel: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"panel ingestion failed: {exc}") from exc


def _load_spec(path, seed: int | None) -> cascade.CascadeSpec:
    """A cascade config; a ``--seed`` override is validated like the file's own."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if seed is not None:
            data["seed"] = seed
        return cascade.CascadeSpec.from_dict(data)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"invalid cascade config: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_indexed_csv(path: Path, header: str, values) -> None:
    with open(path, "w") as fh:
        fh.write(f"index,{header}\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def _write_spectrum(out: Path, spectrum, fmt: str = "both") -> None:
    if fmt in ("json", "both"):
        _write_json(out / "spectrum.json", wtmm.spectrum_to_dict(spectrum))
    if fmt in ("csv", "both"):
        wtmm.write_tau_csv(spectrum, out / "tau.csv")
        wtmm.write_spectrum_csv(spectrum, out / "spectrum.csv")


def _write_multipliers(out: Path, result: tuple, fmt: str = "both") -> None:
    report, corr = result
    if fmt in ("json", "both"):
        _write_json(out / "multipliers.json", report)
    if fmt in ("csv", "both"):
        with open(out / "correlations.csv", "w") as fh:
            fh.write("kind,layer,r,n_pairs\n")
            for row in corr.successive:
                fh.write(f"successive,{row.layer},{float(row.r)!r},{row.n_pairs}\n")
            for row in corr.parent_vs_factor:
                fh.write(f"parent_vs_factor,{row.layer},{float(row.r)!r},{row.n_pairs}\n")


def _write_variances(out: Path, fits: list, fmt: str = "both") -> None:
    if fmt in ("json", "both"):
        _write_json(out / "variances.json", [dataclasses.asdict(f) for f in fits])
    if fmt in ("csv", "both"):
        with open(out / "variance_table.csv", "w") as fh:
            fh.write("Scale,side,a,b,Std a,Std b,Adj R2,Var(W),Var(eta)\n")
            for f in fits:
                fh.write(
                    f"{f.parent_layer},{f.side},{f.slope:.2f},{f.intercept:.2f},"
                    f"{f.stderr_slope:.2f},{f.stderr_intercept:.2f},"
                    f"{f.adj_r2:.2f},{f.var_w:.2f},{f.var_eta:.2f}\n"
                )


def _write_collapse(out: Path, result, fmt: str = "both") -> None:
    if fmt in ("json", "both"):
        _write_json(
            out / "collapse.json",
            {
                "h": result.h,
                "distance": result.distance,
                "boundary": result.boundary,
                "h_grid": result.h_grid.tolist(),
                "distances": result.distances.tolist(),
            },
        )
    if fmt in ("csv", "both"):
        with open(out / "collapse.csv", "w") as fh:
            fh.write("h,distance\n")
            for h, d in zip(result.h_grid, result.distances):
                fh.write(f"{float(h)!r},{float(d)!r}\n")


def _variance_fits(pyramid) -> list:
    """The variance stage of ``variances`` and ``pipeline``; no fit at all fails it."""
    fits = _stage("variances", empirics.estimate_variances, pyramid)
    if not fits:
        raise AnalysisError("no transition had enough data for a variance fit")
    return fits


def _multiplier_report(pyramid) -> tuple:
    ms = empirics.extract_multipliers(pyramid)
    corr = empirics.multiplier_correlations(ms, pyramid)
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
            try:
                result = fitter(pooled)
                entry[name] = {"scale": result.scale, "goodness": result.goodness}
            except ValueError:
                entry[name] = None
        fits[str(t.parent_layer)] = {"n_valid": int(pooled.size), "fits": entry}
    report = {
        "transitions": fits,
        "successive_correlations": [
            {"layer": r.layer, "r": r.r, "n_pairs": r.n_pairs} for r in corr.successive
        ],
        "parent_vs_factor_correlations": [
            {"layer": r.layer, "r": r.r, "n_pairs": r.n_pairs}
            for r in corr.parent_vs_factor
        ],
    }
    return report, corr


def cmd_simulate(args) -> int:
    spec = _load_spec(args.config, args.seed)
    pyramid = _stage("synthesize", cascade.synthesize_mixed, spec)
    path = _stage("reconstruct", dwt_inverse, pyramid)
    out = _out_dir(args)
    save_pyramid(pyramid, out / "pyramid.json")
    _write_indexed_csv(out / "path.csv", "value", path.values)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    series = _load_series(args.input)
    if series.length < 1024:
        raise InputError(f"series too short after truncation: {series.length} < 1024")
    config = _wtmm_config(args)
    spectrum = _stage("spectrum", wtmm.singular_spectrum, series, config)
    lo, hi = config.fit_window(series.length)
    print(f"fit scale range: [{lo:g}, {hi:g}] samples", file=sys.stderr)
    _write_spectrum(_out_dir(args), spectrum, args.format)
    return EXIT_OK


def cmd_check_spectrum(args) -> int:
    spectrum = _load_spectrum(args.input)
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
    return EXIT_OK


def cmd_multipliers(args) -> int:
    result = _stage("multipliers", _multiplier_report, _load_pyramid(args.input))
    _write_multipliers(_out_dir(args), result, args.format)
    return EXIT_OK


def cmd_variances(args) -> int:
    fits = _variance_fits(_load_pyramid(args.input))
    _write_variances(_out_dir(args), fits, args.format)
    return EXIT_OK


def cmd_collapse(args) -> int:
    pyramid = _load_pyramid(args.input)
    result = _stage("collapse", empirics.collapse_H, pyramid, args.h_grid)
    _write_collapse(_out_dir(args), result, args.format)
    return EXIT_OK


def cmd_ingest(args) -> int:
    deltas, path = _load_panel(args.input, args.dt)
    out = _out_dir(args)
    _write_indexed_csv(out / "deltas.csv", "delta", deltas)
    _write_indexed_csv(out / "path.csv", "value", path.values)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    _, path = _load_panel(args.input, args.dt)
    if path.length < 1024:
        raise InputError(f"path too short for analysis ({path.length} < 1024)")
    pyramid = _stage("transform", lambda: rescale(dwt_forward(path), "to_rescaled"))
    spectrum = _stage("spectrum", wtmm.singular_spectrum, path, _wtmm_config(args))
    multipliers = _stage("multipliers", _multiplier_report, pyramid)
    fits = _variance_fits(pyramid)
    collapse = _stage("collapse", empirics.collapse_H, pyramid, args.h_grid)
    out = _out_dir(args)
    _write_indexed_csv(out / "path.csv", "value", path.values)
    save_pyramid(pyramid, out / "pyramid.json")
    _write_spectrum(out, spectrum)
    _write_multipliers(out, multipliers)
    _write_variances(out, fits)
    _write_collapse(out, collapse)
    return EXIT_OK


# Flags that more than one command takes, each declared once.
_SHARED_FLAGS = {
    "--dt": dict(type=int, default=1, help="return lag in grid steps"),
    "--q-range": dict(type=_q_range, help="moment grid MIN:MAX:COUNT"),
    "--scale-range": dict(type=_scale_range, help="fit window MIN:MAX in samples"),
    "--h-grid": dict(type=_h_grid, default="0:1:0.01", help="exponent grid START:STOP:STEP"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcascade",
        description="Simulate multiplicative wavelet cascades and analyze "
        "time series for multifractality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, input_help=None, tables=True, flags=()):
        if input_help:
            p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--out", required=True, help="output directory")
        if tables:
            p.add_argument(
                "--format",
                choices=("json", "csv", "both"),
                default="both",
                help="artifact format for analysis tables (default: both)",
            )
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])

    p = sub.add_parser("simulate", help="synthesize a cascade pyramid and its path")
    p.add_argument("--config", required=True, help="cascade spec JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    add_common(p, tables=False)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("spectrum", help="singular spectrum of a series")
    add_common(
        p, "path CSV (index,value or one value per line)", flags=("--q-range", "--scale-range")
    )
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("check-spectrum", help="verify a spectrum file's Legendre duality")
    p.add_argument("--input", required=True, help="spectrum JSON file")
    p.set_defaults(fn=cmd_check_spectrum)

    p = sub.add_parser("multipliers", help="backward factor statistics of a pyramid")
    add_common(p, "pyramid JSON file")
    p.set_defaults(fn=cmd_multipliers)

    p = sub.add_parser("variances", help="per-layer variance decomposition")
    add_common(p, "pyramid JSON file")
    p.set_defaults(fn=cmd_variances)

    p = sub.add_parser("collapse", help="distribution-collapse exponent estimate")
    add_common(p, "pyramid JSON file", flags=("--h-grid",))
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("ingest", help="deseasonalize a price panel into a path")
    add_common(p, "panel CSV (timestamp,ISSUE1,...)", tables=False, flags=("--dt",))
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("pipeline", help="full panel-to-report analysis")
    add_common(p, "panel CSV (timestamp,ISSUE1,...)", tables=False, flags=tuple(_SHARED_FLAGS))
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
