"""Benchmark of the ``wcascade`` CLI: one researcher-style study per workload.

Run from the root of a checkout (the package need not be installed)::

    python3 wcbench/run.py --workload panel-pipeline --seed 1 --seconds 10 --trace 0

Each run makes its inputs from ``--seed`` with numpy, times a few launches
of ``python -m wcascade.cli --help`` (set-up), then runs whole rounds of
the workload's CLI commands, one process at a time, until ``--seconds``
have passed and at least two rounds are done.  The first round's artifacts
are checked against computations made apart from the program; every later
round must reproduce them byte for byte.  With ``--trace 1`` each command
of the first round is then replayed in-process with spans around the
package's layer functions (see ``replay.py``), and the per-layer metrics
are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.wcbench/`` in the checkout; the spans of a traced run stay there as
``trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import layer_metrics  # noqa: E402

SCRATCH = ROOT / ".wcbench"
SETUP_LAUNCHES = 3
MIN_ROUNDS = 2

PIPELINE_H_GRID = "0:1:0.01"  # the CLI default, passed implicitly
STUDY_H_GRID = "0:0.8:0.05"


class PanelPipeline:
    """``pipeline`` on a 20-issue x 340-day x 390-minute panel (2^17-point path)."""

    name = "panel-pipeline"

    def prepare(self, work: Path, seed: int) -> None:
        stamps, self.prices = inputs.make_panel(inputs.rng_for(self.name, seed))
        self.panel = work / "panel.csv"
        inputs.write_panel_csv(self.panel, stamps, self.prices)

    def commands(self, out: Path) -> list:
        return [["pipeline", "--input", str(self.panel), "--out", str(out / "report")]]

    def check(self, out: Path, ok: list) -> list:
        if not ok[0]:
            return []
        report = out / "report"
        pyramid = checks.load_json(report / "pyramid.json")
        return (
            checks.check_path_from_panel(report / "path.csv", self.prices)
            + checks.check_pyramid_inverts_to_path(
                pyramid, checks.read_series(report / "path.csv"), 16
            )
            + checks.check_spectrum(report)
            + checks.check_multipliers(report, pyramid)
            + checks.check_variances(report, pyramid)
            + checks.check_collapse(report, pyramid, PIPELINE_H_GRID, interior=False)
        )


class SpectrumLong:
    """``spectrum`` on a 2^19-point lognormal W-cascade path."""

    name = "spectrum-long"

    def prepare(self, work: Path, seed: int) -> None:
        self.path = work / "path.csv"
        inputs.write_series_csv(
            self.path, inputs.lognormal_cascade_path(inputs.rng_for(self.name, seed))
        )

    def commands(self, out: Path) -> list:
        return [["spectrum", "--input", str(self.path), "--out", str(out / "spectrum")]]

    def check(self, out: Path, ok: list) -> list:
        if not ok[0]:
            return []
        return checks.check_spectrum(out / "spectrum") + checks.check_tau_closed_form(
            out / "spectrum",
            inputs.LOGNORMAL_MEAN_LOG,
            inputs.LOGNORMAL_VAR_LOG,
            TAU_Q_MAX,
            TAU_TOLERANCE,
        )


class PyramidStudy:
    """``simulate`` a depth-17 mixed cascade, then three analyses of its pyramid."""

    name = "pyramid-study"

    def prepare(self, work: Path, seed: int) -> None:
        rng = inputs.rng_for(self.name, seed)
        self.config = inputs.mixed_cascade_config(int(rng.integers(1, 2**62)))
        self.config_path = work / "cascade.json"
        inputs.write_config(self.config_path, self.config)

    def commands(self, out: Path) -> list:
        pyramid = str(out / "sim" / "pyramid.json")
        return [
            ["simulate", "--config", str(self.config_path), "--out", str(out / "sim")],
            ["multipliers", "--input", pyramid, "--out", str(out / "mult")],
            ["variances", "--input", pyramid, "--out", str(out / "var")],
            ["collapse", "--input", pyramid, "--out", str(out / "col"), "--h-grid", STUDY_H_GRID],
        ]

    def check(self, out: Path, ok: list) -> list:
        if not ok[0]:
            return []
        pyramid = checks.load_json(out / "sim" / "pyramid.json")
        problems = checks.check_simulated_pyramid(pyramid, self.config)
        problems += checks.check_pyramid_inverts_to_path(
            pyramid, checks.read_series(out / "sim" / "path.csv"), self.config["depth"]
        )
        if ok[1]:
            problems += checks.check_multipliers(out / "mult", pyramid)
            problems += checks.check_negative_successive(
                out / "mult", SUCCESSIVE_MIN_LAYER, SUCCESSIVE_CEILING
            )
        if ok[2]:
            problems += checks.check_variances(out / "var", pyramid)
        if ok[3]:
            problems += checks.check_collapse(out / "col", pyramid, STUDY_H_GRID, interior=True)
        return problems


# Statistical checks, each with a tolerance set from the seed sweeps in the
# README: over seeds 0-39 the largest tau(q) error for |q| <= 2 was 0.050,
# and the largest successive correlation at layers >= 10 was -0.375.
TAU_Q_MAX = 2.0
TAU_TOLERANCE = 0.1
SUCCESSIVE_MIN_LAYER = 10
SUCCESSIVE_CEILING = -0.2

WORKLOADS = {w.name: w for w in (PanelPipeline, SpectrumLong, PyramidStudy)}


class Cli:
    """Launches ``python -m wcascade.cli`` from the checkout, one process at a time."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.log = work / "cli.log"
        self.result = work / "launch.json"

    def launch(self, argv: list, program=("-m", "wcascade.cli")) -> dict:
        """Run one process through ``launch.py``; its wall time, exit code, max RSS, CPU."""
        self.result.unlink(missing_ok=True)
        with open(self.log, "a") as log:
            log.write(f"$ {' '.join(argv)}\n")
            log.flush()
            subprocess.run(
                [sys.executable, str(HERE / "launch.py"), str(self.result),
                 sys.executable, *program, *argv],
                cwd=ROOT, env=self.env, stdout=log, stderr=log, stdin=subprocess.DEVNULL,
                check=True,
            )
        return checks.load_json(self.result)


def run_round(cli: Cli, workload, out: Path) -> dict:
    results = [cli.launch(argv) for argv in workload.commands(out)]
    return {
        "wall": sum(r["wall"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "cpu": sum(r["cpu"] for r in results),
        "ok": [r["code"] == 0 for r in results],
    }


def replay(cli: Cli, workload, out: Path, spans_dir: Path) -> tuple:
    """Replay the first round's commands traced; return (wall, span documents)."""
    spans_dir.mkdir()
    docs, wall = [], 0.0
    for k, argv in enumerate(workload.commands(out)):
        spans = spans_dir / f"{k}.json"
        result = cli.launch([str(spans), *argv], program=(str(HERE / "replay.py"),))
        wall += result["wall"]
        docs.append(checks.load_json(spans) if spans.exists() else {"exit": result["code"], "spans": []})
    return wall, docs


def metric_table() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wcascade" / "cli.py").is_file():
        print(f"error: no wcascade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = metric_table()

    workload = WORKLOADS[args.workload]()
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        cli = Cli(work)
        setup = []
        for _ in range(SETUP_LAUNCHES):
            launch = cli.launch(["--help"])
            if launch["code"] != 0:
                print(f"error: `wcascade.cli --help` exited {launch['code']}", file=sys.stderr)
                return 1
            setup.append(launch["wall"])
        workload.prepare(work, args.seed)

        rounds, problems = [], []
        first = work / "round0"
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            out = work / f"round{len(rounds)}"
            rounds.append(run_round(cli, workload, out))
            if len(rounds) == 1:
                try:
                    problems += workload.check(first, rounds[0]["ok"])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems.append(f"artifacts unreadable: {exc!r}")
            else:
                problems += checks.check_identical(first, out)
                shutil.rmtree(out)
        attempted = sum(len(r["ok"]) for r in rounds)
        failed = sum(r["ok"].count(False) for r in rounds)
        wall = statistics.median(r["wall"] for r in rounds)
        print(f"round walls (s): {[round(r['wall'], 3) for r in rounds]}", file=sys.stderr)

        if args.trace:
            replay_out = work / "replay"
            traced_wall, docs = replay(cli, workload, replay_out, work / "spans")
            problems += [f"replay: {p}" for p in checks.check_identical(first, replay_out)]
            values = layer_metrics(
                docs,
                untraced_wall=wall,
                traced_wall=traced_wall,
                cpu=statistics.median(r["cpu"] for r in rounds),
            )
            with open(SCRATCH / f"trace-{workload.name}-s{args.seed}.json", "w") as fh:
                json.dump({"metrics": values, "commands": docs}, fh)
            units = table["per_layer"]
        else:
            values = {
                "wall_s": wall,
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
                "setup_s": statistics.median(setup),
            }
            units = table["end_to_end"]
        if set(values) != set(units):
            print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
