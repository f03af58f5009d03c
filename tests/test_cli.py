"""Command-line contract: artifacts, schemas, exit codes, determinism."""

import argparse
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wcascade
from wcascade import cli, wtmm
from wcascade.cascade import CascadeSpec, NormalNoise, SignedLognormal, synthesize_mixed
from wcascade.cli import main
from wcascade.dwt import TimeSeries, WaveletPyramid, dwt_inverse, load_pyramid

REFERENCE_CONFIG = {
    "depth": 12,
    "root_detail": 1.0,
    "root_approx": 0.0,
    "seed": 42,
    "multiplier_law": {"kind": "signed_lognormal", "mean_log2": -0.33, "var_log2": 0.02},
    "additive_law": {"kind": "normal", "variance": 0.09},
}


def write_config(tmp_path, overrides=None):
    config = dict(REFERENCE_CONFIG)
    config.update(overrides or {})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(config))
    return path


def read_tree(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


def run_python(*args):
    """``python *args`` in a fresh process, importing this checkout."""
    env = dict(os.environ)
    src = str(Path(wcascade.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*argv):
    return run_python("-m", "wcascade.cli", *argv)


def write_cascade_panel(tmp_path, depth=14, seed=7, minutes_per_day=128):
    """Panel whose within-day returns replay a mixed cascade path exactly."""
    var_log = 0.02 * math.log(2)
    mean_log = (math.log(0.18) - 2 * var_log) / 2
    spec = CascadeSpec(
        depth=depth,
        multiplier_law=SignedLognormal(mean_log, var_log),
        additive_law=NormalNoise(0.32),
        seed=seed,
    )
    path = dwt_inverse(synthesize_mixed(spec))
    deltas = np.diff(np.concatenate([[0.0], path.values]))
    assert deltas.size % minutes_per_day == 0
    n_days = deltas.size // minutes_per_day
    base = np.datetime64("2008-01-02T09:00")
    lines = ["timestamp,FAKE1"]
    k = 0
    for day in range(n_days):
        day_base = base + np.timedelta64(day, "D")
        log_price = 0.0
        lines.append(f"{day_base},{math.exp(log_price)!r}")
        for minute in range(minutes_per_day):
            log_price += deltas[k]
            k += 1
            stamp = day_base + np.timedelta64(minute + 1, "m")
            lines.append(f"{stamp},{math.exp(log_price)!r}")
    panel_path = tmp_path / "panel.csv"
    panel_path.write_text("\n".join(lines) + "\n")
    return panel_path


def test_simulate_writes_pyramid_and_path(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    pyramid = load_pyramid(out / "pyramid.json")
    assert pyramid.depth == 12
    rows = (out / "path.csv").read_text().strip().splitlines()
    assert rows[0] == "index,value"
    assert len(rows) - 1 == 2**13


def test_simulate_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)
    # pure-cascade run (no noise) twice as well
    config0 = write_config(tmp_path, {"additive_law": {"kind": "zero"}})
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert main(["simulate", "--config", str(config0), "--out", str(out_c)]) == 0
    assert main(["simulate", "--config", str(config0), "--out", str(out_d)]) == 0
    assert read_tree(out_c) == read_tree(out_d)


def test_simulate_seed_flag_overrides(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config), "--out", str(out_a), "--seed", "1"])
    main(["simulate", "--config", str(config), "--out", str(out_b)])
    assert read_tree(out_a) != read_tree(out_b)


def test_simulate_invalid_depth_exits_2(tmp_path):
    config = write_config(tmp_path, {"depth": 0})
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


def test_simulate_unwritable_out_exits_3(tmp_path):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["simulate", "--config", str(config), "--out", str(blocker)]) == 3


def test_pyramid_write_failure_exits_3(tmp_path):
    # --out can be made, but its pyramid.json is a directory
    argvs = {
        "simulate": ["simulate", "--config", str(write_config(tmp_path))],
        "pipeline": ["pipeline", "--input", str(write_cascade_panel(tmp_path, depth=12))],
    }
    for command, argv in argvs.items():
        out = tmp_path / command
        (out / "pyramid.json").mkdir(parents=True)
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = [line for line in proc.stderr.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("I/O error: "), proc.stderr


def brownian_csv(tmp_path, n=2**14, seed=5):
    rng = np.random.default_rng(seed)
    path = tmp_path / "brownian.csv"
    values = np.cumsum(rng.normal(size=n))
    path.write_text(
        "index,value\n" + "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(values)) + "\n"
    )
    return path


def test_spectrum_brownian_and_check(tmp_path):
    series = brownian_csv(tmp_path)
    out = tmp_path / "spec"
    assert main(["spectrum", "--input", str(series), "--out", str(out)]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert set(data) == {"q", "tau", "tau_stderr", "alpha", "D", "support", "peak_alpha"}
    assert 0.42 <= data["peak_alpha"] <= 0.58
    assert (out / "tau.csv").read_text().startswith("q,tau,tau_stderr")
    assert (out / "spectrum.csv").read_text().startswith("alpha,D")
    # the emitted table satisfies the transform duality when re-read
    assert main(["check-spectrum", "--input", str(out / "spectrum.json")]) == 0


def test_spectrum_q_and_scale_flags(tmp_path):
    series = brownian_csv(tmp_path)
    out = tmp_path / "spec"
    # leading-dash values need the = form
    code = main(
        [
            "spectrum", "--input", str(series), "--out", str(out),
            "--q-range=-3:3:13", "--scale-range", "16:512", "--format", "json",
        ]
    )
    assert code == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert len(data["q"]) == 13 and data["q"][0] == -3.0
    assert not (out / "tau.csv").exists()  # json-only format


@pytest.mark.parametrize(
    "scale_range, code",
    [("4:4.5", 4), ("8:nan", 4), ("8:-inf", 4),
     ("4:8", 0), ("8:512", 0), ("8:1e9", 0), ("8:inf", 0)],
)
def test_every_scale_range_exits_cleanly(tmp_path, capsys, scale_range, code):
    series = brownian_csv(tmp_path, n=4096)
    out = tmp_path / "out"
    argv = ["spectrum", "--input", str(series), "--out", str(out), "--scale-range", scale_range]
    assert main(argv) == code
    if code:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "leaves fewer than 3 usable scales" in lines[0], lines
        assert not out.exists()


def test_scale_range_past_an_eighth_fits_the_whole_grid(tmp_path):
    series = str(brownian_csv(tmp_path, n=4096))
    for top in ("512", "1e9"):  # 512 = L/8, the grid's last scale
        argv = ["spectrum", "--input", series, "--out", str(tmp_path / top), "--scale-range"]
        assert main(argv + [f"8:{top}"]) == 0
    assert read_tree(tmp_path / "512") == read_tree(tmp_path / "1e9")


def test_spectrum_empty_input_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["spectrum", "--input", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_spectrum_short_input_exits_2(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("\n".join(str(float(i)) for i in range(512)))
    assert main(["spectrum", "--input", str(short), "--out", str(tmp_path / "o")]) == 2


def simulate_pyramid(tmp_path, overrides=None):
    config = write_config(tmp_path, overrides)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out / "pyramid.json"


def test_multipliers_command(tmp_path):
    pyramid = simulate_pyramid(tmp_path)
    out = tmp_path / "mult"
    assert main(["multipliers", "--input", str(pyramid), "--out", str(out)]) == 0
    report = json.loads((out / "multipliers.json").read_text())
    assert report["successive_correlations"]
    fits = report["transitions"]
    assert any(v["fits"]["student_t2"] for v in fits.values())
    lines = (out / "correlations.csv").read_text().splitlines()
    assert lines[0] == "kind,layer,r,n_pairs"


def test_variances_command_table_format(tmp_path):
    pyramid = simulate_pyramid(tmp_path)
    out = tmp_path / "var"
    assert main(["variances", "--input", str(pyramid), "--out", str(out)]) == 0
    table = (out / "variance_table.csv").read_text().splitlines()
    assert table[0] == "Scale,side,a,b,Std a,Std b,Adj R2,Var(W),Var(eta)"
    first = table[1].split(",")
    # publication-style rendering: two decimal places throughout
    for cell in first[2:]:
        assert "." in cell and len(cell.split(".")[1]) == 2
    data = json.loads((out / "variances.json").read_text())
    assert {"parent_layer", "side", "var_w", "var_eta"} <= set(data[0])


def test_library_warnings_print_one_line_each(tmp_path):
    # the reference pyramid's two widest transitions lack 3 bins of children
    pyramid = simulate_pyramid(tmp_path)
    proc = run_cli("variances", "--input", str(pyramid), "--out", str(tmp_path / "var"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: transition") for line in lines), lines


def test_collapse_command(tmp_path):
    pyramid = simulate_pyramid(
        tmp_path, {"multiplier_law": {"kind": "point_mass", "value": 2**-0.3},
                   "additive_law": {"kind": "zero"}}
    )
    out = tmp_path / "col"
    assert main(["collapse", "--input", str(pyramid), "--out", str(out),
                 "--h-grid", "0:1:0.01"]) == 0
    data = json.loads((out / "collapse.json").read_text())
    assert abs(data["h"] - 0.3) <= 0.05
    assert (out / "collapse.csv").read_text().startswith("h,distance")


def test_raw_pyramid_file_reports_as_its_conversion(tmp_path):
    # a "rescaled": false file takes each layer j times 2**(j/2) on load
    data = json.loads(simulate_pyramid(tmp_path).read_text())
    raw = [np.asarray(layer) / 2.0 ** (j / 2.0) for j, layer in enumerate(data["layers"], start=1)]
    converted = [layer * 2.0 ** (j / 2.0) for j, layer in enumerate(raw, start=1)]
    inputs = []
    for name, rescaled, layers in (("raw", False, raw), ("converted", True, converted)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "rescaled": rescaled,
                                    "layers": [layer.tolist() for layer in layers]}))
        inputs.append(path)
    for command in ("multipliers", "variances", "collapse"):
        trees = []
        for path in inputs:
            out = tmp_path / f"{command}-{path.stem}"
            assert main([command, "--input", str(path), "--out", str(out)]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1], command


def test_ingest_command(tmp_path):
    panel = write_cascade_panel(tmp_path, depth=10, minutes_per_day=128)
    out = tmp_path / "ing"
    assert main(["ingest", "--input", str(panel), "--out", str(out)]) == 0
    deltas = (out / "deltas.csv").read_text().splitlines()
    path = (out / "path.csv").read_text().splitlines()
    assert deltas[0] == "index,delta" and path[0] == "index,value"
    assert len(path) - 1 == 2**11


def test_ingest_bad_panel_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,AAA\n2020-01-01T09:00,1.0\n")
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_csv_columns_render_as_the_row_by_row_join(tmp_path):
    special = [-0.0, 0.0, 1e-300, 5e-324, 1e308, -1e308, math.nan, math.inf, 3.0, -2.0, 1e16, 0.1]
    rng = np.random.default_rng(0)
    column = np.concatenate([special, rng.standard_normal(2 * cli._CSV_BLOCK + 5)])
    table = [("successive", 4, -0.0, 31), ("parent_vs_factor", 12, 0.125, 4096)]
    cli._write_report(tmp_path, {
        "path.csv": cli._indexed_csv("value", column),
        "table.csv": ("kind,layer,r,n_pairs", tuple(zip(*table))),
        "empty.csv": ("kind,layer,r,n_pairs", ()),
    })

    def joined(header, rows):
        return (header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)).encode()

    assert (tmp_path / "path.csv").read_bytes() == joined("index,value", enumerate(map(float, column)))
    assert (tmp_path / "table.csv").read_bytes() == joined("kind,layer,r,n_pairs", table)
    assert (tmp_path / "empty.csv").read_bytes() == b"kind,layer,r,n_pairs\n"


def test_no_csv_block_outlives_its_write(tmp_path, monkeypatch):
    # simulate writes path.csv, then pyramid.json: a block of path.csv's cells
    # (16,384 strs per column, over 2 MB here) must be freed by then
    held = []
    monkeypatch.setattr(cli, "save_pyramid", lambda pyramid, path: held.append(
        tracemalloc.get_traced_memory()[0]))
    files = {"path.csv": cli._indexed_csv("value", np.random.default_rng(0).standard_normal(2**15)),
             "pyramid.json": WaveletPyramid(1, 0.0, 1.0, [np.zeros(2)])}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_report(tmp_path, files)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] - before < 100_000, held[0] - before


PIPELINE_FILES = {
    "path.csv",
    "pyramid.json",
    "spectrum.json",
    "tau.csv",
    "spectrum.csv",
    "multipliers.json",
    "correlations.csv",
    "variances.json",
    "variance_table.csv",
    "collapse.json",
    "collapse.csv",
}


def test_pipeline_report_and_recovery(tmp_path):
    panel = write_cascade_panel(tmp_path)
    out = tmp_path / "report"
    assert main(["pipeline", "--input", str(panel), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == PIPELINE_FILES
    # variance table recovers the generator parameters on wide layers
    rows = json.loads((out / "variances.json").read_text())
    wide = [r for r in rows if r["parent_layer"] >= 12]
    assert wide
    var_w = np.mean([r["var_w"] for r in wide])
    var_eta = np.mean([r["var_eta"] for r in wide])
    assert abs(var_w - 0.18) <= 0.05
    assert abs(var_eta - 0.32) <= 0.05


@pytest.fixture(scope="module")
def pipeline_report(tmp_path_factory):
    """Panel and ``pipeline`` report of a depth-12 cascade, shared by two tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    panel = write_cascade_panel(tmp, depth=12, minutes_per_day=128)
    out = tmp / "report"
    assert main(["pipeline", "--input", str(panel), "--out", str(out)]) == 0
    return panel, out


def test_pipeline_is_byte_deterministic(pipeline_report, tmp_path):
    panel, out_a = pipeline_report
    out_b = tmp_path / "rb"
    assert main(["pipeline", "--input", str(panel), "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)


def test_pipeline_artifacts_match_subcommands(pipeline_report, tmp_path):
    # one writer per artifact: each subcommand rerun on the report's own
    # path.csv or pyramid.json reproduces its files byte for byte
    _, report = pipeline_report
    expected = read_tree(report)
    written = set()
    for command, source in (
        ("spectrum", "path.csv"),
        ("multipliers", "pyramid.json"),
        ("variances", "pyramid.json"),
        ("collapse", "pyramid.json"),
    ):
        out = tmp_path / command
        assert main([command, "--input", str(report / source), "--out", str(out)]) == 0
        tree = read_tree(out)
        assert tree == {name: expected.get(name) for name in tree}, command
        written |= set(tree)
    assert written == PIPELINE_FILES - {"path.csv", "pyramid.json"}


def test_pipeline_constant_prices_exit_2(tmp_path):
    base = np.datetime64("2008-01-02T09:00")
    lines = ["timestamp,FLAT"]
    for day in range(8):
        for minute in range(64):
            stamp = base + np.timedelta64(day, "D") + np.timedelta64(minute, "m")
            lines.append(f"{stamp},100.0")
    panel = tmp_path / "flat.csv"
    panel.write_text("\n".join(lines) + "\n")
    assert main(["pipeline", "--input", str(panel), "--out", str(tmp_path / "o")]) == 2


# Each command's option strings, in the order its --help lists them.
COMMAND_FLAGS = {
    "simulate": ["--config", "--seed", "--out"],
    "spectrum": ["--input", "--out", "--format", "--q-range", "--scale-range"],
    "check-spectrum": ["--input"],
    "multipliers": ["--input", "--out", "--format"],
    "variances": ["--input", "--out", "--format"],
    "collapse": ["--input", "--out", "--format", "--h-grid"],
    "ingest": ["--input", "--out", "--dt"],
    "pipeline": ["--input", "--out", "--dt", "--q-range", "--scale-range", "--h-grid"],
}


def test_each_command_takes_its_flags():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(COMMAND_FLAGS)
    for name, sub in commands.choices.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert [s for a in actions for s in a.option_strings] == COMMAND_FLAGS[name], name
        # a command without --format writes both formats
        assert [a.default for a in actions if a.dest == "format"] in ([], ["both"]), name


def test_installed_entry_point_help():
    # bare invocation without a command is a usage error
    assert run_cli().returncode == 2


def test_every_exported_name_exists():
    # a rename must not leave a stale name in a module's __all__
    modules = [
        importlib.import_module(f"wcascade.{info.name}")
        for info in pkgutil.iter_modules(wcascade.__path__)
    ]
    exported = [(module, name) for module in modules for name in getattr(module, "__all__", [])]
    assert len({module for module, _ in exported}) >= 5
    assert [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)] == []


# Runs each argv through main() in one process and prints, after each,
# whether any scipy module is loaded.
SCIPY_PROBE = """
import json, sys
from wcascade.cli import main
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code == 0, argv
    print(any(name.partition(".")[0] == "scipy" for name in sys.modules))
"""


def test_no_command_loads_scipy(tmp_path):
    config = write_config(tmp_path)
    pyramid = str(tmp_path / "sim" / "pyramid.json")
    panel = str(write_cascade_panel(tmp_path, depth=12))
    commands = [
        ["--help"],
        ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")],
        ["collapse", "--input", pyramid, "--out", str(tmp_path / "col"), "--h-grid", "0:1:0.25"],
        ["variances", "--input", pyramid, "--out", str(tmp_path / "var")],
        ["multipliers", "--input", pyramid, "--out", str(tmp_path / "mult")],
        ["pipeline", "--input", panel, "--out", str(tmp_path / "report"), "--h-grid", "0:1:0.25"],
    ]
    proc = run_python("-c", SCIPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    # --help prints first; multipliers and pipeline fit the normal law
    assert proc.stdout.split()[-(len(commands) - 1):] == ["False"] * (len(commands) - 1)


def test_spectrum_file_passes_its_own_check(tmp_path):
    # on this panel's path the fitted tau(q) is slightly non-concave, within
    # fit noise, so the transform is taken on its concave envelope
    panel = write_cascade_panel(tmp_path, depth=14)
    assert main(["ingest", "--input", str(panel), "--out", str(tmp_path / "ing")]) == 0
    out = tmp_path / "spec"
    assert main(["spectrum", "--input", str(tmp_path / "ing" / "path.csv"), "--out", str(out)]) == 0
    assert main(["check-spectrum", "--input", str(out / "spectrum.json")]) == 0


def _restamped_panel(tmp_path, name, restamp):
    """The depth-10 cascade panel with every timestamp passed through ``restamp``."""
    lines = write_cascade_panel(tmp_path, depth=10).read_text().splitlines()
    rows = [line.split(",", 1) for line in lines[1:]]
    path = tmp_path / name
    path.write_text("\n".join([lines[0]] + [f"{restamp(stamp)},{rest}" for stamp, rest in rows]) + "\n")
    return path


def test_blank_padded_stamps_ingest_silently(tmp_path):
    plain = write_cascade_panel(tmp_path, depth=10)
    assert main(["ingest", "--input", str(plain), "--out", str(tmp_path / "plain")]) == 0
    padded = _restamped_panel(tmp_path, "padded.csv", lambda stamp: f" {stamp.replace('T', ' ')} ")
    proc = run_cli("ingest", "--input", str(padded), "--out", str(tmp_path / "padded"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_tree(tmp_path / "padded") == read_tree(tmp_path / "plain")
    # a real timezone suffix still draws numpy's warning
    zoned = _restamped_panel(tmp_path, "zoned.csv", lambda stamp: stamp + "Z")
    proc = run_cli("ingest", "--input", str(zoned), "--out", str(tmp_path / "zoned"))
    assert proc.returncode == 0
    assert "warning: no explicit representation of timezones" in proc.stderr


def _series_with_last_row(tmp_path, row):
    path = brownian_csv(tmp_path, n=4096)
    with open(path, "a") as fh:
        fh.write(row + "\n")
    return path


def _series_with_corrupt_row(tmp_path):
    path = brownian_csv(tmp_path, n=4096)
    lines = path.read_text().splitlines()
    lines[101] = "100,12x"  # after the header, so line 102 of the file
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_series_values(text):
    """The line-by-line series parse that the numpy parse must match."""
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
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
            raise ValueError(
                f"line {line_no}: expected a number or index,value, got {line!r}"
            ) from None
    if len(values) < 2:
        raise ValueError("fewer than 2 numeric samples")
    keep = 2 ** int(np.floor(np.log2(len(values))))
    return TimeSeries(np.asarray(values[-keep:])).values


_SAMPLES = ["0.1", "-2.5e-3", "1E5", "+.5", "5.", "-0", " 7.25 ", "1e-400", "4.9e-324",
            "0.1000000000000000055511151231257827021181583404541015625",
            "123456789012345678901234567890", repr(math.pi), f"{math.e:.25e}"]
_ROWS = [f"{i},{v}" for i, v in enumerate(_SAMPLES * 3)]

# files numpy reads in one call (a non-finite sample is refused after it)
NUMPY_SERIES = {
    "header": "index,value\n" + "\n".join(_ROWS) + "\n",
    "no-header": "\n".join(_ROWS),
    "values-only": "value\n" + "\n".join(_SAMPLES * 3) + "\n",
    "blank-lines": "index,value\n\n" + "\n\n".join(_ROWS) + "\n\n",
    "crlf": "index,value\r\n" + "\r\n".join(_ROWS) + "\r\n",
    "cr-only": "index,value\r" + "\r".join(_ROWS) + "\r",
    "no-final-newline": "index,value\n" + "\n".join(_ROWS),
    "three-field-header": "a,b,c\n" + "\n".join(_ROWS),
    "non-finite": "index,value\n" + "\n".join(_ROWS + ["99,nan"]),
}
# files numpy refuses, where the line scan names the line of the reference parse
SCANNED_SERIES = {
    "no-data": "index,value\n\n",
    "header-on-line-2": "\nindex,value\n" + "\n".join(_ROWS),
    "three-fields": "index,value\n" + "\n".join(_ROWS[:9] + ["9,1.0,2.0"] + _ROWS[9:]),
    "three-fields-everywhere": "a,b,c\n" + "\n".join(r + ",0" for r in _ROWS),
    "empty-field": "index,value\n" + "\n".join(_ROWS + ["99,"]),
}
# files that float() reads line by line but numpy refuses: (text, the line named)
REFUSED_SERIES = {
    "whitespace-line": ("index,value\n" + "\n  \n".join(_ROWS), 3),
    "text-index": ("index,value\n" + "\n".join(f"t{r}" for r in _ROWS), 2),
    "mixed-fields": ("\n".join(_ROWS + _SAMPLES), len(_ROWS) + 1),
    "underscores": ("index,value\n" + "\n".join(_ROWS + ["99,1_000.5"]), len(_ROWS) + 2),
    "non-ascii-digit": ("index,value\n" + "\n".join(_ROWS + ["99,\u0663.5"]), len(_ROWS) + 2),
    **{
        name: ("index,value\n" + "\n".join(_ROWS).replace("\n", sep, 3), 2)
        for name, sep in [("vertical-tab", "\v"), ("form-feed", "\f"), ("fs-line-breaks", "\x1c"),
                          ("gs-line-breaks", "\x1d"), ("rs-line-breaks", "\x1e")]
    },
}


def _outcome(parse, text):
    try:
        return "values", parse(text).view(np.int64).tobytes()
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", sorted({**NUMPY_SERIES, **SCANNED_SERIES, **REFUSED_SERIES}))
def test_series_parse_matches_the_line_scan(tmp_path, monkeypatch, name):
    text, line_no = REFUSED_SERIES.get(name, ({**NUMPY_SERIES, **SCANNED_SERIES}.get(name), None))
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    if name in NUMPY_SERIES:
        def no_scan(path, header):
            raise AssertionError("the line scan ran")

        monkeypatch.setattr(cli, "_raise_on_bad_line", no_scan)
    got = _outcome(lambda _: cli._series(path).values, text)
    expected = _outcome(reference_series_values, text)
    if line_no is None:
        assert got == expected
    else:  # float() reads it line by line; numpy refuses it and the scan names the line
        assert expected[0] == "values" and got[0] == "error", (expected, got)
        assert got[1].startswith(f"line {line_no}: "), got


@pytest.mark.parametrize("name", sorted(REFUSED_SERIES))
def test_series_outside_numpy_syntax_exits_2(tmp_path, capsys, name):
    text, line_no = REFUSED_SERIES[name]
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    out = tmp_path / "out"
    assert main(["spectrum", "--input", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith(f"error: invalid series file {path}: line {line_no}: "), lines
    assert not out.exists()


def test_series_parse_holds_no_object_per_line(tmp_path):
    path = brownian_csv(tmp_path, n=2**16)
    tracemalloc.start()
    try:
        series = cli._series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.length == 2**16
    # a str per line alone would exceed the file's size
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def _edited_panel(tmp_path, edit):
    """The depth-10 cascade panel, its list of lines changed in place by ``edit``."""
    path = write_cascade_panel(tmp_path, depth=10)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _panel_with_row(tmp_path, row, stamp=None):
    def edit(lines):  # line 57 of the file, stamped 2008-01-02T09:55
        lines[56] = (lines[56].split(",")[0] if stamp is None else stamp) + row

    return _edited_panel(tmp_path, edit)


def _swap_lines_57_and_58(lines):
    lines[56], lines[57] = lines[57], lines[56]


def _json_file(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return path


def _pyramid_with_spread_jump():
    """A rescaled depth-10 pyramid of standard normal layers, layers 1-8 times 1e-156."""
    rng = np.random.default_rng(0)
    layers = [(rng.standard_normal(2**j) * (1e-156 if j < 9 else 1.0)).tolist() for j in range(1, 11)]
    return {"depth": 10, "rescaled": True, "root_approx": 0.0, "root_detail": 1.0, "layers": layers}


def _nested_json(tmp_path):
    """A JSON file nested 200,000 arrays deep: deeper than Python's recursion limit."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return path


OVERFLOWING_LAW = {
    "depth": 8,
    "multiplier_law": {"kind": "folded_lognormal", "mean_log": 100, "var_log": 0.01},
    "additive_law": {"kind": "zero"},
}

PYRAMID_WITHOUT_LAYERS = {"depth": 3, "rescaled": True, "root_approx": 0.0, "root_detail": 1.0}

# tau is concave, and alpha and D are its exact Legendre pair
SPECTRUM_FILE = {
    "q": [-1.0, 0.0, 1.0], "tau": [-1.5, -1.0, -0.7], "tau_stderr": [0.01, 0.01, 0.01],
    "alpha": [0.5, 0.4, 0.3], "D": [1.0, 1.0, 1.0], "support": [0.3, 0.5], "peak_alpha": 0.4,
}

CONTRACT_CASES = {
    "spectrum-nan": (
        lambda t: ["spectrum", "--input", str(_series_with_last_row(t, "4096,nan"))],
        2, "non-finite",
    ),
    "spectrum-corrupt-row": (
        lambda t: ["spectrum", "--input", str(_series_with_corrupt_row(t))],
        2, "line 102",
    ),
    # refused before the transform: the window holds no scale of the grid
    "spectrum-scale-range-below-grid": (
        lambda t: ["spectrum", "--input", str(brownian_csv(t, n=4096)), "--scale-range", "1:3"],
        4, "stage spectrum: fit range [1, 3] leaves fewer than 3 usable scales",
    ),
    "spectrum-scale-range-reversed": (
        lambda t: ["spectrum", "--input", str(brownian_csv(t, n=4096)), "--scale-range", "8:5"],
        4, "stage spectrum: fit range [8, 5] leaves fewer than 3 usable scales",
    ),
    "simulate-seed-negative": (
        lambda t: ["simulate", "--config", str(write_config(t)), "--seed", "-1"],
        2, "seed",
    ),
    "simulate-seed-2**64": (
        lambda t: ["simulate", "--config", str(write_config(t)), "--seed", str(2**64)],
        2, "seed",
    ),
    "simulate-depth-1e400": (
        lambda t: ["simulate", "--config", str(write_config(t, {"depth": 1e400}))],
        2, "invalid cascade config",
    ),
    # refused before anything is allocated: never run these without the check
    "simulate-over-memory-budget": (
        lambda t: ["simulate", "--config", str(write_config(t, {"depth": 26}))],
        2, "cascade depth 26 would need more than the 3 GiB memory budget",
    ),
    "simulate-overflowing-law": (
        lambda t: ["simulate", "--config", str(write_config(t, OVERFLOWING_LAW))],
        4, "stage synthesize",
    ),
    # a non-finite law parameter is refused as config, not run or overflowed
    **{
        f"simulate-law-{name}": (
            lambda t, law=law: ["simulate", "--config", str(write_config(t, law))],
            2, "invalid cascade config",
        )
        for name, law in [
            ("nan-noise-variance", {"additive_law": {"kind": "normal", "variance": math.nan}}),
            ("inf-noise-variance", {"additive_law": {"kind": "normal", "variance": math.inf}}),
            ("nan-var-log", {"multiplier_law": {
                "kind": "folded_lognormal", "mean_log": 0.0, "var_log": math.nan}}),
            ("inf-mean-log", {"multiplier_law": {
                "kind": "folded_lognormal", "mean_log": math.inf, "var_log": 0.01}}),
            ("nan-point-mass", {"multiplier_law": {"kind": "point_mass", "value": math.nan}}),
            ("inf-cauchy-scale", {"multiplier_law": {"kind": "cauchy", "scale": math.inf}}),
        ]
    },
    "pipeline-bad-h-grid": (
        lambda t: ["pipeline", "--input", str(write_cascade_panel(t, depth=10)),
                   "--h-grid", "bad"],
        2, "--h-grid",
    ),
    "pipeline-bad-q-range": (
        lambda t: ["pipeline", "--input", str(write_cascade_panel(t, depth=10)),
                   "--q-range=bad"],
        2, "--q-range",
    ),
    **{
        f"spectrum-q-range-{q_range}": (
            lambda t, q_range=q_range: ["spectrum", "--input", str(brownian_csv(t, n=4096)),
                                        f"--q-range={q_range}"],
            2, "argument --q-range: need finite MIN < MAX and COUNT >= 3",
        )
        for q_range in ["nan:1:5", "0:inf:5", "1:0:5", "0:1:2"]
    },
    # refused before anything is allocated: never run these without the check
    "spectrum-q-range-over-memory-budget": (
        lambda t: ["spectrum", "--input", str(brownian_csv(t, n=4096)),
                   "--q-range=0:1:100000000000"],
        2, "spectrum of 4096 samples would need more than the 3 GiB memory budget",
    ),
    "collapse-h-grid-over-memory-budget": (
        lambda t: ["collapse", "--input", str(t / "pyramid.json"), "--h-grid", "0:1:1e-15"],
        2, "argument --h-grid: an H grid of 1e+15 points would need more than the 3 GiB",
    ),
    "spectrum-overflowing-q-range": (
        lambda t: ["spectrum", "--input", str(brownian_csv(t, n=4096)),
                   "--q-range=-1e308:1e308:5"],
        4, "stage spectrum: tau, alpha or D is not finite",
    ),
    "ingest-bad-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",12x"))],
        2, "line 57: cannot parse price '12x'",
    ),
    "ingest-extra-field": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",1.0,2.0"))],
        2, "row 57 has 3 fields, expected 2",
    ),
    "ingest-nan-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",nan"))],
        2, "line 57: price 'nan' is not finite and positive",
    ),
    "ingest-inf-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",inf"))],
        2, "line 57: price 'inf' is not finite and positive",
    ),
    "ingest-zero-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",0"))],
        2, "line 57: price '0' is not finite and positive",
    ),
    "ingest-negative-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",-1.0"))],
        2, "line 57: price '-1.0' is not finite and positive",
    ),
    "ingest-underscored-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",1_000.5"))],
        2, "line 57: cannot parse price '1_000.5'",
    ),
    "ingest-full-width-price": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",\uff11\uff10\uff11"))],
        2, "line 57: cannot parse price '\uff11\uff10\uff11'",
    ),
    "ingest-bad-timestamp": (
        lambda t: ["ingest", "--input",
                   str(_panel_with_row(t, ",1.0", stamp="2009-13-45T10:01:00"))],
        2, "line 57: cannot parse timestamp '2009-13-45T10:01:00'",
    ),
    "ingest-empty-timestamp": (
        lambda t: ["ingest", "--input", str(_panel_with_row(t, ",1.0", stamp=""))],
        2, "invalid panel: line 57: cannot parse timestamp ''",
    ),
    "ingest-repeated-timestamp": (
        lambda t: ["ingest", "--input",
                   str(_panel_with_row(t, ",1.0", stamp="2008-01-02T09:54"))],
        2, "line 57: timestamp '2008-01-02T09:54' is not after line 56",
    ),
    "ingest-swapped-rows": (
        lambda t: ["ingest", "--input", str(_edited_panel(t, _swap_lines_57_and_58))],
        2, "line 58: timestamp '2008-01-02T09:55' is not after line 57",
    ),
    # one case per kind of input that cannot be read or is not valid
    "ingest-missing-panel": (
        lambda t: ["ingest", "--input", str(t / "missing.csv")],
        2, "cannot read panel: ",
    ),
    "simulate-missing-config": (
        lambda t: ["simulate", "--config", str(t / "missing.json")],
        2, "cannot read cascade config: ",
    ),
    "spectrum-missing-series": (
        lambda t: ["spectrum", "--input", str(t / "missing.csv")],
        2, "cannot read series file ",
    ),
    "multipliers-missing-pyramid": (
        lambda t: ["multipliers", "--input", str(t / "missing.json")],
        2, "cannot read pyramid file ",
    ),
    "multipliers-pyramid-without-layers": (
        lambda t: ["multipliers", "--input", str(_json_file(t, PYRAMID_WITHOUT_LAYERS))],
        2, "invalid pyramid file ",
    ),
    "collapse-missing-pyramid": (
        lambda t: ["collapse", "--input", str(t / "missing.json")],
        2, "cannot read pyramid file ",
    ),
    "collapse-pyramid-without-layers": (
        lambda t: ["collapse", "--input", str(_json_file(t, PYRAMID_WITHOUT_LAYERS))],
        2, "invalid pyramid file ",
    ),
    "pipeline-bad-price": (
        lambda t: ["pipeline", "--input", str(_panel_with_row(t, ",12x"))],
        2, "line 57: cannot parse price '12x'",
    ),
    "pipeline-extra-field": (
        lambda t: ["pipeline", "--input", str(_panel_with_row(t, ",1.0,2.0"))],
        2, "row 57 has 3 fields, expected 2",
    ),
    # nesting deeper than the recursion limit is invalid input, not a crash
    **{
        f"{command}-nested-json": (
            lambda t, command=command, flag=flag: [command, flag, str(_nested_json(t))],
            2, f"invalid {what}",
        )
        for command, flag, what in [
            ("simulate", "--config", "cascade config: maximum recursion depth exceeded"),
            ("multipliers", "--input", "pyramid file "),
            ("variances", "--input", "pyramid file "),
            ("collapse", "--input", "pyramid file "),
        ]
    },
    # a JSON boolean is true or false, not a string that bool() reads as true
    "collapse-rescaled-string": (
        lambda t: ["collapse", "--input", str(_json_file(t, {
            **PYRAMID_WITHOUT_LAYERS, "rescaled": "false",
            "layers": [[1.0] * 2, [1.0] * 4, [1.0] * 8]}))],
        2, "rescaled must be true or false, got 'false'",
    ),
    # a JSON integer is an int: int() would truncate 10.9 and read "42" and true
    **{
        f"simulate-{field}-{kind}": (
            lambda t, field=field, value=value: [
                "simulate", "--config", str(write_config(t, {field: value}))],
            2, f"invalid cascade config: {field} must be an integer, got {value!r}",
        )
        for field, kind, value in [("depth", "float", 10.9), ("depth", "bool", True),
                                   ("seed", "string", "42"), ("seed", "float", 42.7)]
    },
    "multipliers-depth-float": (
        lambda t: ["multipliers", "--input", str(_json_file(t, {
            **PYRAMID_WITHOUT_LAYERS, "depth": 2.0, "layers": [[1.0] * 2, [1.0] * 4]}))],
        2, "depth must be an integer, got 2.0",
    ),
    "simulate-random-sign-string": (
        lambda t: ["simulate", "--config", str(write_config(t, {"multiplier_law": {
            "kind": "point_mass", "value": 0.7, "random_sign": "false"}}))],
        2, "random_sign must be true or false, got 'false'",
    ),
    # the loader's 2**(j/2) factor takes 1e308 in layer 2 past the float range
    "multipliers-raw-pyramid-overflow": (
        lambda t: ["multipliers", "--input", str(_json_file(t, {
            **PYRAMID_WITHOUT_LAYERS, "rescaled": False,
            "layers": [[1.0] * 2, [1.0, 1e308, 1.0, 1.0], [1.0] * 8]}))],
        2, "layer 2 contains non-finite values",
    ),
    # a pyramid's layers and a spectrum's support are refused by name, not
    # enumerated or indexed as whatever they hold
    **{
        f"{command}-layers-{kind}": (
            lambda t, command=command, value=value: [command, "--input", str(_json_file(t, {
                **PYRAMID_WITHOUT_LAYERS, "layers": value}))],
            2, f"layers must be a list of lists of numbers, got {value!r}",
        )
        for command in ("multipliers", "collapse")
        for kind, value in [("int", 5), ("null", None), ("string", "ab"), ("object", {"a": 1})]
    },
    **{
        f"check-spectrum-support-{kind}": (
            lambda t, value=value: ["check-spectrum", "--input", str(_json_file(t, {
                **SPECTRUM_FILE, "support": value}))],
            2, f"support must be a list of two numbers, got {value!r}",
        )
        for kind, value in [("empty", []), ("one-number", [0.1]), ("three-numbers", [0.3, 0.5, 7.0])]
    },
    # a 1,024-point path: no transition has 3 bins of 100 children
    "pipeline-no-variance-fit": (
        lambda t: ["pipeline", "--input", str(write_cascade_panel(t, depth=9))],
        4, "no transition had enough data",
    ),
    # the 8->9 spread ratio is about 1e156, whose square is past the float range
    "variances-overflowing-spread-ratio": (
        lambda t: ["variances", "--input", str(_json_file(t, _pyramid_with_spread_jump()))],
        4, "stage variances: transition 8->9: the squared layer spread ratio overflows",
    ),
}


@pytest.mark.parametrize("value", ["1", "1:2:3:4"])
@pytest.mark.parametrize(
    "flag, form", [("--q-range", "MIN:MAX:COUNT"), ("--scale-range", "MIN:MAX"),
                   ("--h-grid", "START:STOP:STEP")],
)
def test_flag_with_wrong_field_count_exits_2(tmp_path, capsys, flag, form, value):
    argv = ["pipeline", "--input", "panel.csv", "--out", str(tmp_path / "out"), f"{flag}={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"error: argument {flag}: expected {form}, got {value!r}"), last


# Each float field of a cascade config, as (law key or None, law, field).
CONFIG_FLOAT_FIELDS = [
    ("multiplier_law", {"kind": "signed_lognormal", "mean_log": -0.23, "var_log": 0.014}, "mean_log"),
    ("multiplier_law", {"kind": "signed_lognormal", "mean_log": -0.23, "var_log": 0.014}, "var_log"),
    ("multiplier_law", REFERENCE_CONFIG["multiplier_law"], "mean_log2"),
    ("multiplier_law", REFERENCE_CONFIG["multiplier_law"], "var_log2"),
    ("multiplier_law", {"kind": "point_mass", "value": 0.7}, "value"),
    ("multiplier_law", {"kind": "cauchy", "scale": 0.5}, "scale"),
    ("additive_law", REFERENCE_CONFIG["additive_law"], "variance"),
    (None, None, "root_detail"),
    (None, None, "root_approx"),
]


# a JSON number is an int or a float: float() would read "0.5", true, and "1_0" as 10.0
@pytest.mark.parametrize("value", ["0.5", True, "1_0"])
@pytest.mark.parametrize(
    "key, law, field", CONFIG_FLOAT_FIELDS, ids=[field for _, _, field in CONFIG_FLOAT_FIELDS]
)
def test_config_float_must_be_a_json_number(tmp_path, capsys, key, law, field, value):
    overrides = {key: {**law, field: value}} if key else {field: value}
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(write_config(tmp_path, overrides)), "--out", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: invalid cascade config: {field} must be a number, got {value!r}"]
    assert not out.exists()


def _numeric_leaves(value, path=()):
    """The path of every JSON number in ``value``: its keys and list indices."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, (*path, key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _numeric_leaves(item, (*path, k))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _field_name(path) -> str:
    """The name an error gives a leaf: its last key, then its list indices."""
    last = max(k for k, step in enumerate(path) if isinstance(step, str))
    return path[last] + "".join(f"[{k}]" for k in path[last + 1:])


def _with_leaf(value, path, leaf):
    """A copy of the JSON ``value`` with the leaf at ``path`` replaced."""
    value = json.loads(json.dumps(value))
    holder = value
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = leaf
    return value


# A valid file of each JSON kind the CLI reads: (argv before the file, its name
# in an error, the file's content, its integer fields)
JSON_INPUTS = {
    "config": (["simulate", "--config"], "cascade config", REFERENCE_CONFIG, {"depth", "seed"}),
    "pyramid": (["multipliers", "--input"], "pyramid file {path}", {
        "depth": 3, "rescaled": True, "root_approx": 0.25, "root_detail": -1.5,
        "layers": [[1.0, -0.5], [0.5, 2, -1.0, 0.75], [0.5, -0.25, 1.5, -2.0, 1.0, 0.5, -1.0, 3.0]],
    }, {"depth"}),
    "spectrum": (["check-spectrum", "--input"], "spectrum file {path}", SPECTRUM_FILE, set()),
}
JSON_LEAF_CASES = [
    (kind, path, leaf)
    for kind, (_, _, content, _) in JSON_INPUTS.items()
    for path in _numeric_leaves(content)
    for leaf in ["0.5", True, None, [0.5], "1_0"]
]


def _json_input_argv(tmp_path, kind, content) -> tuple:
    prefix, what, _, _ = JSON_INPUTS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(content))
    argv = [*prefix, str(path)] + (["--out", str(tmp_path / "out")] if kind != "spectrum" else [])
    return argv, what.format(path=path)


@pytest.mark.parametrize("kind", sorted(JSON_INPUTS))
def test_each_reference_json_input_is_valid(tmp_path, kind):
    argv, _ = _json_input_argv(tmp_path, kind, JSON_INPUTS[kind][2])
    assert main(argv) == 0


# every number of every JSON input is read as a JSON number: float() and
# np.asarray would read "0.5", true and "1_0", and null as nan
@pytest.mark.parametrize(
    "kind, path, leaf", JSON_LEAF_CASES,
    ids=[f"{kind}-{_field_name(path)}-{json.dumps(leaf)}" for kind, path, leaf in JSON_LEAF_CASES],
)
def test_every_json_number_must_be_a_json_number(tmp_path, capsys, kind, path, leaf):
    _, _, content, integers = JSON_INPUTS[kind]
    argv, what = _json_input_argv(tmp_path, kind, _with_leaf(content, path, leaf))
    assert main(argv) == 2
    captured = capsys.readouterr()
    field = _field_name(path)
    expected = "an integer" if field in integers else "a number"
    assert captured.err.splitlines() == [f"error: invalid {what}: {field} must be {expected}, got {leaf!r}"]
    assert not (tmp_path / "out").exists()


def test_memory_budget_admits_the_studied_sizes():
    config = wtmm.WtmmConfig()
    assert cli._simulate_bytes(17) < cli._simulate_bytes(25) <= cli.MEMORY_BUDGET
    assert cli._simulate_bytes(26) > cli.MEMORY_BUDGET
    assert cli._simulate_bytes(10**18) > cli.MEMORY_BUDGET
    # the default grid stops at the fit window's top, 1024 samples: 65 scales
    per_q = 65 * 8 + cli._SPECTRUM_BYTES_PER_Q
    assert cli._spectrum_bytes(2**23, config) == 2**23 * cli._SPECTRUM_BYTES_PER_SAMPLE + 41 * per_q
    assert cli._spectrum_bytes(2**19, config) < cli._spectrum_bytes(2**23, config)
    assert cli._spectrum_bytes(2**23, config) <= cli.MEMORY_BUDGET
    assert cli._spectrum_bytes(2**24, config) > cli.MEMORY_BUDGET
    # a wider fit window extends the grid, up to L/8, and adds only log2_Z
    # cells: no transform matrix is held (137 scales at 2**22)
    config.fit_max_scale = 2.0**19
    wide = 2**22 * cli._SPECTRUM_BYTES_PER_SAMPLE + 41 * (137 * 8 + cli._SPECTRUM_BYTES_PER_Q)
    assert cli._spectrum_bytes(2**22, config) == wide <= cli.MEMORY_BUDGET
    # a long q grid counts too, whatever the series' length
    assert cli._spectrum_bytes(4096, wtmm.WtmmConfig(n_q=10**8)) > cli.MEMORY_BUDGET
    assert cli._h_grid("0:1:1e-6").size == 10**6 + 1
    # an H value costs a few floats, not a future
    assert 3 * 10**7 * cli._COLLAPSE_BYTES_PER_H <= cli.MEMORY_BUDGET
    assert 10**8 * cli._COLLAPSE_BYTES_PER_H > cli.MEMORY_BUDGET


def test_spectrum_over_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    # a budget one byte short of a 4096-point transform stands in for a huge series
    needed = cli._spectrum_bytes(4096, wtmm.WtmmConfig())
    monkeypatch.setattr(cli, "MEMORY_BUDGET", needed - 1)
    out = tmp_path / "out"
    argv = ["spectrum", "--input", str(brownian_csv(tmp_path, n=4096)), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("error: spectrum of 4096 samples would need more than the ")
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_bad_input_exit_code_without_traceback(tmp_path, case):
    make_argv, code, fragment = CONTRACT_CASES[case]
    out = tmp_path / "out"
    argv = make_argv(tmp_path)
    if "--out" in COMMAND_FLAGS[argv[0]]:  # check-spectrum writes no files
        argv += ["--out", str(out)]
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "encountered in" not in proc.stderr  # numpy overflow is not leaked
    # one line, after argparse's usage lines for a bad flag
    lines = [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))]
    assert len(lines) == 1 and "error" in lines[0] and fragment in lines[0], proc.stderr
    assert not out.exists()  # flags and inputs are refused before any artifact


SHORT_ALPHA = {"q": [-1.0, 0.0, 1.0], "tau": [-2.0, -1.0, 0.0], "tau_stderr": [0.0, 0.0, 0.0],
               "alpha": [1.0, 1.0], "D": [1.0, 1.0, 1.0], "support": [1.0, 1.0],
               "peak_alpha": 1.0}


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "error: cannot read spectrum file "),
        ("not json", "error: invalid spectrum file "),
        (json.dumps(SHORT_ALPHA), "error: invalid spectrum file "),
        (json.dumps({**SHORT_ALPHA, "q": [], "tau": [], "tau_stderr": [], "alpha": [], "D": []}),
         "error: invalid spectrum file "),
        (json.dumps({**SHORT_ALPHA, "support": []}), "error: invalid spectrum file "),
        (json.dumps({**SHORT_ALPHA, "alpha": [1.0, 1.0, math.nan]}),
         "error: invalid spectrum file "),
        pytest.param("[" * 200_000 + "]" * 200_000, "error: invalid spectrum file ",
                     id="nested-deeper-than-the-recursion-limit"),
    ],
)
def test_check_spectrum_bad_file_exits_2(tmp_path, capsys, content, fragment):
    path = tmp_path / "spectrum.json"
    if content is not None:
        path.write_text(content)
    assert main(["check-spectrum", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith(fragment), lines


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "command, source",
    [
        ("spectrum", "path.csv"),
        ("multipliers", "pyramid.json"),
        ("variances", "pyramid.json"),
        ("collapse", "pyramid.json"),
    ],
)
def test_format_selects_the_both_files_by_suffix(pipeline_report, tmp_path, command, source, fmt):
    _, report = pipeline_report
    argv = [command, "--input", str(report / source), "--out"]
    assert main([*argv, str(tmp_path / "both")]) == 0
    assert main([*argv, str(tmp_path / fmt), "--format", fmt]) == 0
    both = read_tree(tmp_path / "both")
    expected = {name: data for name, data in both.items() if name.endswith("." + fmt)}
    assert expected and read_tree(tmp_path / fmt) == expected


def load_wcbench(name):
    path = Path(__file__).resolve().parents[1] / "wcbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"wcbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_opens_every_traced_span(tmp_path):
    # the benchmark's --trace 1 wraps package functions by name and reads
    # some of their argument names; a rename breaks it silently otherwise
    replay, layers = load_wcbench("replay"), load_wcbench("layers")
    pyramid = str(tmp_path / "sim" / "pyramid.json")
    commands = [
        ["pipeline", "--input", str(write_cascade_panel(tmp_path, depth=12)),
         "--out", str(tmp_path / "report")],
        ["simulate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "sim")],
        ["collapse", "--input", pyramid, "--out", str(tmp_path / "col"), "--h-grid", "0:1:0.25"],
    ]
    docs = []
    for i, argv in enumerate(commands):
        spans = tmp_path / f"spans{i}.json"
        proc = run_python(replay.__file__, str(spans), *argv)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(spans.read_text()))
    opened = {span["name"] for doc in docs for span in doc["spans"]}
    traced = {f"{layer}.{name}" for layer, names in replay.TRACED.items() for name in names}
    assert traced and traced <= opened, sorted(traced - opened)
    # the WTMM counters read the chaining result: one line per finest-scale maximum
    metrics = layers.layer_metrics(docs[:1], 0.0, 0.0, 0.0)
    path = TimeSeries(np.loadtxt(tmp_path / "report" / "path.csv", delimiter=",", skiprows=1)[:, 1])
    finest = wtmm.default_scale_grid(path.length)[:1]
    seeds = wtmm.find_modulus_maxima(wtmm.cwt(path, finest))[0]
    assert seeds.size and metrics["wtmm.lines_count"] == seeds.size
    assert 0 < metrics["wtmm.lines_complete_ratio"] <= 1


def test_regression_renders_two_decimals(tmp_path):
    from wcascade.cli import _variance_files, _write_report
    from wcascade.empirics import TransitionVarianceFit

    fit = TransitionVarianceFit(
        parent_layer=14, side="left", slope=0.7191, intercept=0.1309,
        stderr_slope=0.041, stderr_intercept=0.012, adj_r2=0.883,
        var_w=0.1309, var_eta=0.3391, clamped=False,
        ratio_sq=0.47, identity_residual=0.0, n_bins=12,
    )
    _write_report(tmp_path, _variance_files([fit]), "csv")
    row = (tmp_path / "variance_table.csv").read_text().splitlines()[1]
    assert row.split(",")[2] == "0.72"
    assert row.split(",")[3] == "0.13"
