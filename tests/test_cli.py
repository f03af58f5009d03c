"""Command-line contract: artifacts, schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcascade
from wcascade.cascade import CascadeSpec, NormalNoise, SignedLognormal, synthesize_mixed
from wcascade.cli import main
from wcascade.dwt import dwt_inverse, load_pyramid

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
    assert pyramid.depth == 12 and pyramid.rescaled
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


def test_installed_entry_point_help():
    # bare invocation without a command is a usage error
    assert run_cli().returncode == 2


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


def test_only_the_normal_fit_loads_scipy(tmp_path):
    config = write_config(tmp_path)
    pyramid = str(tmp_path / "sim" / "pyramid.json")
    commands = [
        ["--help"],
        ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")],
        ["collapse", "--input", pyramid, "--out", str(tmp_path / "col"), "--h-grid", "0:1:0.25"],
        ["variances", "--input", pyramid, "--out", str(tmp_path / "var")],
        ["multipliers", "--input", pyramid, "--out", str(tmp_path / "mult")],
    ]
    proc = run_python("-c", SCIPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    # --help prints first; multipliers, which fits the normal law, is the control
    assert proc.stdout.split()[-5:] == ["False", "False", "False", "False", "True"]


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


def _panel_with_row(tmp_path, row, stamp=None):
    path = write_cascade_panel(tmp_path, depth=10)
    lines = path.read_text().splitlines()
    lines[56] = (stamp or lines[56].split(",")[0]) + row  # line 57 of the file
    path.write_text("\n".join(lines) + "\n")
    return path


OVERFLOWING_LAW = {
    "depth": 8,
    "multiplier_law": {"kind": "folded_lognormal", "mean_log": 100, "var_log": 0.01},
    "additive_law": {"kind": "zero"},
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
    "simulate-overflowing-law": (
        lambda t: ["simulate", "--config", str(write_config(t, OVERFLOWING_LAW))],
        4, "stage synthesize",
    ),
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
    "ingest-bad-timestamp": (
        lambda t: ["ingest", "--input",
                   str(_panel_with_row(t, ",1.0", stamp="2009-13-45T10:01:00"))],
        2, "line 57: cannot parse timestamp '2009-13-45T10:01:00'",
    ),
    "pipeline-bad-price": (
        lambda t: ["pipeline", "--input", str(_panel_with_row(t, ",12x"))],
        2, "line 57: cannot parse price '12x'",
    ),
    "pipeline-extra-field": (
        lambda t: ["pipeline", "--input", str(_panel_with_row(t, ",1.0,2.0"))],
        2, "row 57 has 3 fields, expected 2",
    ),
    # a 1,024-point path: no transition has 3 bins of 100 children
    "pipeline-no-variance-fit": (
        lambda t: ["pipeline", "--input", str(write_cascade_panel(t, depth=9))],
        4, "no transition had enough data",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_bad_input_exit_code_without_traceback(tmp_path, case):
    make_argv, code, fragment = CONTRACT_CASES[case]
    out = tmp_path / "out"
    proc = run_cli(*make_argv(tmp_path), "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # numpy overflow is not leaked
    # one line, after argparse's usage lines for a bad flag
    lines = [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))]
    assert len(lines) == 1 and "error" in lines[0] and fragment in lines[0], proc.stderr
    assert not out.exists()  # flags and inputs are refused before any artifact


def test_regression_renders_two_decimals(tmp_path):
    from wcascade.cli import _write_variances
    from wcascade.empirics import TransitionVarianceFit

    fit = TransitionVarianceFit(
        parent_layer=14, side="left", slope=0.7191, intercept=0.1309,
        stderr_slope=0.041, stderr_intercept=0.012, adj_r2=0.883,
        var_w=0.1309, var_eta=0.3391, clamped=False,
        ratio_sq=0.47, identity_residual=0.0, n_bins=12,
    )
    _write_variances(tmp_path, [fit], "csv")
    row = (tmp_path / "variance_table.csv").read_text().splitlines()[1]
    assert row.split(",")[2] == "0.72"
    assert row.split(",")[3] == "0.13"
