"""Seed sweeps behind the benchmark's statistical tolerances.

Usage, from the root of a checkout (about 10 minutes for 40 seeds)::

    python3 wcbench/sweep.py FIRST_SEED LAST_SEED

For each workload ``--seed`` in the range, the inputs are made exactly as
in a run (``inputs.rng_for``) and the package runs in-process:

* ``spectrum-long``: the largest |tau(q) - closed form| over |q| <= 2;
* ``pyramid-study``: the collapse argmin on the workload's H grid, and the
  largest successive-factor correlation at layers >= 10.

One JSON line per seed goes to standard output, then a summary line.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import STUDY_H_GRID, SUCCESSIVE_MIN_LAYER, TAU_Q_MAX  # noqa: E402
from wcascade.cascade import CascadeSpec, synthesize_mixed, theoretical_tau_lognormal  # noqa: E402
from wcascade.dwt import TimeSeries  # noqa: E402
from wcascade.empirics import collapse_H, extract_multipliers, multiplier_correlations  # noqa: E402
from wcascade.wtmm import singular_spectrum  # noqa: E402


def sweep_seed(seed: int) -> dict:
    path = inputs.lognormal_cascade_path(inputs.rng_for("spectrum-long", seed))
    spectrum = singular_spectrum(TimeSeries(path))
    theory = theoretical_tau_lognormal(
        inputs.LOGNORMAL_MEAN_LOG, inputs.LOGNORMAL_VAR_LOG, spectrum.q_grid
    )
    mask = np.abs(spectrum.q_grid) <= TAU_Q_MAX + 1e-12
    rng = inputs.rng_for("pyramid-study", seed)
    config = inputs.mixed_cascade_config(int(rng.integers(1, 2**62)))
    pyramid = synthesize_mixed(CascadeSpec.from_dict(config))
    grid = checks.h_grid(STUDY_H_GRID)
    collapse = collapse_H(pyramid, grid)
    rows = multiplier_correlations(extract_multipliers(pyramid), pyramid).successive
    return {
        "seed": seed,
        "tau_error": float(np.max(np.abs(spectrum.tau[mask] - theory[mask]))),
        "collapse_index": int(np.argmin(collapse.distances)),
        "grid_points": int(grid.size),
        "max_successive_r": max(r.r for r in rows if r.layer >= SUCCESSIVE_MIN_LAYER),
    }


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    warnings.simplefilter("ignore")
    results = []
    for seed in range(first, last + 1):
        results.append(sweep_seed(seed))
        print(json.dumps(results[-1]), flush=True)
    print(json.dumps({
        "seeds": f"{first}-{last}",
        "max_tau_error": max(r["tau_error"] for r in results),
        "collapse_indices": sorted({r["collapse_index"] for r in results}),
        "max_successive_r": max(r["max_successive_r"] for r in results),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
