"""Tests of the benchmark's checks.

Run from the root of a checkout (about a minute)::

    python3 wcbench/selftest.py

Every check must pass on the CLI's artifacts for small inputs made from
several seeds, and must fail on a deliberately corrupted copy of the
artifact it covers.  The file is not named ``test_*.py`` so the
repository's own pytest run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from run import SCRATCH, STUDY_H_GRID, Cli  # noqa: E402

SEEDS = (1, 2, 3, 4)
SMALL_DEPTH = 12  # 2^13-point paths: the smallest size every command accepts
PANEL = dict(n_issues=3, n_days=22, n_minutes=390)  # 22 x 389 returns -> 2^13
WORK = SCRATCH / "selftest"


def small_studies(seed: int, cli: Cli) -> dict:
    """Run each workload's commands on small inputs; return what the checks need."""
    root = WORK / f"s{seed}"
    root.mkdir(parents=True)
    stamps, prices = inputs.make_panel(inputs.rng_for("panel-pipeline", seed), **PANEL)
    inputs.write_panel_csv(root / "panel.csv", stamps, prices)
    path = inputs.lognormal_cascade_path(inputs.rng_for("spectrum-long", seed), SMALL_DEPTH)
    inputs.write_series_csv(root / "path.csv", path)
    config = inputs.mixed_cascade_config(seed, SMALL_DEPTH)
    inputs.write_config(root / "cascade.json", config)
    pyramid = str(root / "sim" / "pyramid.json")
    for argv in (
        ["pipeline", "--input", str(root / "panel.csv"), "--out", str(root / "report")],
        ["spectrum", "--input", str(root / "path.csv"), "--out", str(root / "spectrum")],
        ["simulate", "--config", str(root / "cascade.json"), "--out", str(root / "sim")],
        ["multipliers", "--input", pyramid, "--out", str(root / "mult")],
        ["variances", "--input", pyramid, "--out", str(root / "var")],
        ["collapse", "--input", pyramid, "--out", str(root / "col"), "--h-grid", STUDY_H_GRID],
    ):
        code = cli.launch(argv)["code"]
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}; see {cli.log}")
    return {"root": root, "prices": prices, "config": config}


def all_checks(study: dict) -> list:
    root = study["root"]
    report = root / "report"
    panel_pyramid = checks.load_json(report / "pyramid.json")
    sim_pyramid = checks.load_json(root / "sim" / "pyramid.json")
    return (
        checks.check_path_from_panel(report / "path.csv", study["prices"])
        + checks.check_pyramid_inverts_to_path(
            panel_pyramid, checks.read_series(report / "path.csv"), SMALL_DEPTH
        )
        + checks.check_spectrum(report)
        + checks.check_multipliers(report, panel_pyramid)
        + checks.check_variances(report, panel_pyramid)
        + checks.check_collapse(report, panel_pyramid, "0:1:0.01", interior=False)
        + checks.check_spectrum(root / "spectrum")
        + checks.check_simulated_pyramid(sim_pyramid, study["config"])
        + checks.check_pyramid_inverts_to_path(
            sim_pyramid, checks.read_series(root / "sim" / "path.csv"), SMALL_DEPTH
        )
        + checks.check_multipliers(root / "mult", sim_pyramid)
        + checks.check_variances(root / "var", sim_pyramid)
        + checks.check_collapse(root / "col", sim_pyramid, STUDY_H_GRID, interior=True)
    )


def edit_json(path: Path, change) -> None:
    data = checks.load_json(path)
    change(data)
    path.write_text(json.dumps(data))


def edit_lines(path: Path, change) -> None:
    lines = path.read_text().splitlines()
    change(lines)
    path.write_text("\n".join(lines) + "\n")


class ChecksOnSmallStudies(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cli = Cli(WORK)
        cls.studies = {seed: small_studies(seed, cli) for seed in SEEDS}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_every_check_passes_on_every_seed(self):
        for seed, study in self.studies.items():
            with self.subTest(seed=seed):
                self.assertEqual(all_checks(study), [])

    def corrupted(self) -> Path:
        """A fresh copy of seed 1's artifacts; returns the copy's root."""
        source = self.studies[SEEDS[0]]["root"]
        copy = WORK / f"corrupt-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        return copy

    def assertFails(self, problems, fragment=""):
        self.assertTrue(problems, "check passed a corrupted artifact")
        self.assertTrue(any(fragment in p for p in problems), problems)

    # ---------------------------------------------------------------- path

    def test_shifted_path_fails_deseasonalisation(self):
        root = self.corrupted()
        edit_lines(root / "report" / "path.csv",
                   lambda lines: lines.__setitem__(slice(1, None), lines[2:] + lines[1:2]))
        study = self.studies[SEEDS[0]]
        self.assertFails(checks.check_path_from_panel(root / "report" / "path.csv", study["prices"]))

    def test_shifted_path_fails_pyramid_inverse(self):
        root = self.corrupted()
        path = checks.read_series(root / "report" / "path.csv")
        pyramid = checks.load_json(root / "report" / "pyramid.json")
        self.assertFails(
            checks.check_pyramid_inverts_to_path(pyramid, np.roll(path, 1), SMALL_DEPTH),
            "D4 inverse",
        )

    def test_perturbed_coefficient_fails_parseval(self):
        root = self.corrupted()
        pyramid = checks.load_json(root / "report" / "pyramid.json")
        pyramid["layers"][5][3] *= 1.001
        path = checks.read_series(root / "report" / "path.csv")
        self.assertFails(checks.check_pyramid_inverts_to_path(pyramid, path, SMALL_DEPTH), "Parseval")

    def test_perturbed_simulation_fails_philox_rebuild(self):
        root = self.corrupted()
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        config = self.studies[SEEDS[0]]["config"]
        pyramid["layers"][-1][-1] += 1e-9
        self.assertFails(checks.check_simulated_pyramid(pyramid, config), "Philox")
        other = dict(config, seed=config["seed"] + 1)
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_simulated_pyramid(pyramid, other), "Philox")

    # ------------------------------------------------------------ spectrum

    def test_swapped_tau_row_fails_legendre_duality(self):
        root = self.corrupted()
        spec = root / "spectrum" / "spectrum.json"

        def swap(data):
            data["tau"][10], data["tau"][30] = data["tau"][30], data["tau"][10]

        edit_json(spec, swap)
        self.assertFails(checks.check_spectrum(root / "spectrum"), "Legendre")

    def test_swapped_tau_csv_rows_fail_agreement(self):
        root = self.corrupted()

        def swap(lines):
            lines[3], lines[4] = lines[4], lines[3]

        edit_lines(root / "spectrum" / "tau.csv", swap)
        self.assertFails(checks.check_spectrum(root / "spectrum"), "tau.csv")

    def test_perturbed_spectrum_csv_fails_agreement(self):
        root = self.corrupted()
        edit_lines(root / "spectrum" / "spectrum.csv",
                   lambda lines: lines.__setitem__(5, lines[5].split(",")[0] + ",0.5"))
        self.assertFails(checks.check_spectrum(root / "spectrum"), "spectrum.csv")

    def test_tau_closed_form_tolerance(self):
        root = self.corrupted()
        spec = root / "spectrum" / "spectrum.json"
        mean_log, var_log = inputs.LOGNORMAL_MEAN_LOG, inputs.LOGNORMAL_VAR_LOG

        def exact(data):
            q = np.array(data["q"])
            data["tau"] = (-(q * mean_log + 0.5 * q * q * var_log) / math.log(2.0) - 1.0).tolist()

        edit_json(spec, exact)
        self.assertEqual(checks.check_tau_closed_form(spec.parent, mean_log, var_log, 3.0, 0.1), [])
        edit_json(spec, lambda data: data["tau"].__setitem__(20, data["tau"][20] + 0.2))
        self.assertFails(checks.check_tau_closed_form(spec.parent, mean_log, var_log, 3.0, 0.1))

    # --------------------------------------------------------- multipliers

    def test_perturbed_correlation_fails(self):
        root = self.corrupted()
        edit_json(root / "mult" / "multipliers.json",
                  lambda data: data["successive_correlations"][2].__setitem__(
                      "r", data["successive_correlations"][2]["r"] + 1e-6))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_multipliers(root / "mult", pyramid), "successive")

    def test_positive_successive_correlation_fails(self):
        root = self.corrupted()
        rows = checks.load_json(root / "mult" / "multipliers.json")["successive_correlations"]
        self.assertEqual(checks.check_negative_successive(root / "mult", 10, -0.2), [])
        deep = [i for i, row in enumerate(rows) if row["layer"] >= 10][0]
        edit_json(root / "mult" / "multipliers.json",
                  lambda data: data["successive_correlations"][deep].__setitem__("r", 0.1))
        self.assertFails(checks.check_negative_successive(root / "mult", 10, -0.2), "not below")

    def test_edited_correlation_csv_fails(self):
        root = self.corrupted()
        edit_lines(root / "mult" / "correlations.csv", lambda lines: lines.pop(2))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_multipliers(root / "mult", pyramid), "correlations.csv")

    def test_perturbed_fit_scale_fails(self):
        root = self.corrupted()

        def nudge(data):
            fit = data["transitions"]["9"]["fits"]["cauchy"]
            fit["scale"] *= 1.01

        edit_json(root / "mult" / "multipliers.json", nudge)
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_multipliers(root / "mult", pyramid), "cauchy")

    def test_off_minimum_fit_fails(self):
        study = self.studies[SEEDS[0]]
        pyramid = checks.load_json(study["root"] / "sim" / "pyramid.json")
        layers = [np.asarray(layer) for layer in pyramid["layers"]]
        left, right, valid = reference.transition_ratios(pyramid, layers, 9)
        pooled = np.concatenate([left[valid], right[valid]])
        report = checks.load_json(study["root"] / "mult" / "multipliers.json")
        scale = report["transitions"]["9"]["fits"]["normal"]["scale"] * 1.05
        fit = {"scale": scale, "goodness": reference.histogram_sse(pooled, "normal", scale)}
        self.assertFails(checks._check_fit(9, "normal", fit, pooled), "not a minimum")

    # ----------------------------------------------------------- variances

    def test_perturbed_variance_fit_fails(self):
        root = self.corrupted()
        edit_json(root / "var" / "variances.json",
                  lambda rows: rows[0].__setitem__("var_w", rows[0]["var_w"] * 1.0001 + 1e-6))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_variances(root / "var", pyramid), "var_w")

    def test_edited_variance_table_fails(self):
        root = self.corrupted()

        def edit(lines):
            cells = lines[1].split(",")
            cells[-2] = f"{float(cells[-2]) + 0.02:.2f}"
            lines[1] = ",".join(cells)

        edit_lines(root / "var" / "variance_table.csv", edit)
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_variances(root / "var", pyramid), "table")

    # ------------------------------------------------------------ collapse

    def test_perturbed_ks_distance_fails(self):
        root = self.corrupted()

        def nudge(data):
            k = data["h_grid"].index(data["h"])
            data["distances"][k] -= 1e-6
            data["distance"] = data["distances"][k]

        edit_json(root / "col" / "collapse.json", nudge)
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_collapse(root / "col", pyramid, STUDY_H_GRID, True), "ks_2samp")

    def test_wrong_boundary_flag_fails(self):
        root = self.corrupted()
        edit_json(root / "col" / "collapse.json", lambda data: data.__setitem__("boundary", True))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_collapse(root / "col", pyramid, STUDY_H_GRID, True), "boundary")

    def test_wrong_argmin_fails(self):
        root = self.corrupted()
        edit_json(root / "col" / "collapse.json", lambda data: data.__setitem__("h", data["h_grid"][1]))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_collapse(root / "col", pyramid, STUDY_H_GRID, True), "argmin")

    def test_edited_collapse_csv_fails(self):
        root = self.corrupted()
        edit_lines(root / "col" / "collapse.csv", lambda lines: lines.__setitem__(3, "0.1,0.5"))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_collapse(root / "col", pyramid, STUDY_H_GRID, True), "collapse.csv")

    def test_boundary_argmin_fails_interior_grid(self):
        root = self.corrupted()

        def move(data):
            data["distances"][0] = 0.0
            data.update(h=data["h_grid"][0], distance=0.0, boundary=True)

        edit_json(root / "col" / "collapse.json", move)
        edit_lines(root / "col" / "collapse.csv",
                   lambda lines: lines.__setitem__(1, lines[1].split(",")[0] + ",0.0"))
        pyramid = checks.load_json(root / "sim" / "pyramid.json")
        self.assertFails(checks.check_collapse(root / "col", pyramid, STUDY_H_GRID, True), "grid boundary")

    # -------------------------------------------------------------- reruns

    def test_changed_byte_fails_rerun(self):
        first = self.studies[SEEDS[0]]["root"] / "var"
        root = self.corrupted()
        target = root / "var" / "variances.json"
        data = bytearray(target.read_bytes())
        data[10] = ord("9") if data[10] != ord("9") else ord("8")
        target.write_bytes(bytes(data))
        self.assertFails(checks.check_identical(first, root / "var"), "variances.json")
        self.assertEqual(checks.check_identical(first, first), [])


if __name__ == "__main__":
    unittest.main()
