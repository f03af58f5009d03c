"""Seeded inputs for the benchmark, made with numpy alone.

Nothing here imports ``wcascade``: a change to the program cannot change
what the program is fed.  Every generator takes a numpy ``Generator`` (or
an integer seed for the cascade config) and writes files the CLI reads.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

from reference import inverse_d4

LN2 = math.log(2.0)

# Panel make-up: 20 issues x 340 days x 390 one-minute bars (09:30-15:59).
# 389 within-day returns a day give 132,260 increments; the CLI keeps the
# last 2^17 of them, so the pyramid has depth 16.
PANEL_ISSUES = 20
PANEL_DAYS = 340
PANEL_MINUTES = 390

# Lognormal W-cascade behind spectrum-long: log2|W| ~ N(-0.33, 0.02), a
# fair random sign, unit root detail; depth 18 reconstructs to 2^19 points.
LOGNORMAL_MEAN_LOG = -0.33 * LN2
LOGNORMAL_VAR_LOG = 0.02 * LN2
SPECTRUM_DEPTH = 18

# Mixed cascade behind pyramid-study: E[W^2] = 0.18 and Var(eta) = 0.32,
# the variance split the paper reports, at depth 17 (a 2^18-point path).
MIXED_VAR_LOG = 0.02 * LN2
MIXED_MEAN_LOG = (math.log(0.18) - 2.0 * MIXED_VAR_LOG) / 2.0
MIXED_NOISE_VARIANCE = 0.32
MIXED_DEPTH = 17


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """The input stream of one workload at one ``--seed``."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed % 2**63])


def make_panel(rng: np.random.Generator, n_issues=PANEL_ISSUES, n_days=PANEL_DAYS,
               n_minutes=PANEL_MINUTES):
    """Prices with a U-shaped intraday volatility profile and overnight gaps.

    Returns ``(stamps, prices)``: ISO timestamps, and prices of shape
    ``(n_days, n_minutes, n_issues)``.  Each issue's daily volatility is
    lognormal and shares a market component, so slots differ in spread and
    days differ in level.
    """
    minute = np.arange(n_minutes)
    profile = 1.0 + 1.5 * ((minute - n_minutes / 2.0) / (n_minutes / 2.0)) ** 2
    market = rng.standard_normal((n_days, 1, 1))
    own = rng.standard_normal((n_days, 1, n_issues))
    daily = np.exp(0.25 * market + 0.2 * own)
    returns = 1e-3 * profile[None, :, None] * daily * rng.standard_normal(
        (n_days, n_minutes, n_issues)
    )
    returns[:, 0, :] += 0.01 * rng.standard_normal((n_days, n_issues))  # overnight
    start = np.log(rng.uniform(20.0, 200.0, n_issues))
    log_prices = start + np.cumsum(returns.reshape(-1, n_issues), axis=0)
    prices = np.exp(log_prices).reshape(n_days, n_minutes, n_issues)
    days = np.datetime64("2010-01-04") + np.arange(n_days)
    stamps = (
        days[:, None].astype("datetime64[m]") + np.timedelta64(570, "m") + minute[None, :]
    ).reshape(-1)
    return np.datetime_as_string(stamps, unit="s"), prices


def write_panel_csv(path, stamps, prices) -> None:
    """``timestamp,I00,...`` rows; ``repr`` makes every price round-trip exactly."""
    n_issues = prices.shape[2]
    lines = ["timestamp," + ",".join(f"I{i:02d}" for i in range(n_issues))]
    for stamp, row in zip(stamps, prices.reshape(-1, n_issues).tolist()):
        lines.append(stamp + "," + ",".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def lognormal_cascade_path(rng: np.random.Generator, depth=SPECTRUM_DEPTH) -> np.ndarray:
    """Path of a pure lognormal W-cascade, synthesised with the benchmark's D4."""
    layers = []
    parents = np.array([1.0])
    for _ in range(depth):
        n = 2 * parents.size
        w = np.exp(rng.normal(LOGNORMAL_MEAN_LOG, math.sqrt(LOGNORMAL_VAR_LOG), n))
        w *= rng.integers(0, 2, n) * 2.0 - 1.0
        parents = w * np.repeat(parents, 2)
        layers.append(parents)
    raw = [layer / 2.0 ** ((j + 1) / 2.0) for j, layer in enumerate(layers)]
    return inverse_d4(0.0, 1.0, raw)


def write_series_csv(path, values) -> None:
    with open(path, "w") as fh:
        fh.write("index,value\n")
        fh.write("".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist())))


def mixed_cascade_config(seed: int, depth=MIXED_DEPTH) -> dict:
    """``simulate`` config: signed lognormal factor plus normal noise."""
    return {
        "depth": depth,
        "root_detail": 1.0,
        "root_approx": 0.0,
        "seed": int(seed),
        "multiplier_law": {
            "kind": "signed_lognormal",
            "mean_log": MIXED_MEAN_LOG,
            "var_log": MIXED_VAR_LOG,
        },
        "additive_law": {"kind": "normal", "variance": MIXED_NOISE_VARIANCE},
    }


def write_config(path, config: dict) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
