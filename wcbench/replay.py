"""Traced replay of one ``wcascade`` CLI command, in-process.

Usage, from the root of a checkout::

    python3 wcbench/replay.py SPANS_JSON <wcascade arguments...>

The package's public layer functions are wrapped with timing spans in
every ``wcascade`` module that holds them, then ``wcascade.cli.main`` runs
the command, so the spans follow the order and arguments the CLI itself
uses.  Counts are read from the returned objects.  Spans stay in memory
and go to SPANS_JSON when the command ends; the command's own ``--out``
receives only its usual artifacts.  Exits with the command's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import wcascade  # noqa: E402
from wcascade import cascade, cli, dwt, empirics, stats, wtmm  # noqa: E402

MODULES = (wcascade, cli, cascade, dwt, empirics, stats, wtmm)


def _usable_layers(depth: int, min_size: int) -> list:
    return [2**j for j in range(1, depth + 1) if 2**j >= min_size]


def _collapse_counts(args, result):
    sizes = _usable_layers(args["pyramid"].depth, args["min_layer_size"])
    pairs = [(a, b) for i, a in enumerate(sizes) for b in sizes[i + 1:]]
    grid = result.h_grid.size
    return {
        "ks_evals": grid * len(pairs),
        "samples_merged": grid * sum(a + b for a, b in pairs),
    }


def _variance_counts(args, result):
    eligible = _usable_layers(args["pyramid"].depth - 1, args["min_layer_size"])
    return {"fits": len(result), "omitted": 2 * len(eligible) - len(result)}


def _synth_counts(args, result):
    pyramid = result[0] if isinstance(result, tuple) else result
    return {"coefficients": 2 + sum(layer.size for layer in pyramid.layers)}


def _cwt_counts(args, result):
    return {
        "n_scales": int(result.scales.size),
        "cwt_bytes": int(result.values.nbytes),
        "scales": result.scales.tolist(),
    }


def _chain_counts(args, result):
    lengths = np.array([len(line) for line in result], dtype=np.int64)
    return {"lines": len(result), "length_hist": np.bincount(lengths).tolist()}


def _tau_counts(args, result):
    fit_range = args["fit_range"]
    return {"fit_hi": float(fit_range[1] if fit_range else args["pf"].scales.max())}


# layer -> {public function: counter over (bound arguments, result)}
TRACED = {
    "empirics": {
        "load_panel_csv": lambda a, r: {"rows": int(r.timestamps.size)},
        "deseasonalize_returns": None,
        "accumulate_path": None,
        "extract_multipliers": lambda a, r: {
            "masked": int(sum(np.count_nonzero(~t.valid) for t in r.transitions))
        },
        "multiplier_correlations": None,
        "estimate_variances": _variance_counts,
        "collapse_H": _collapse_counts,
    },
    "wtmm": {
        "singular_spectrum": None,
        "cwt": _cwt_counts,
        "find_modulus_maxima": lambda a, r: {"maxima": int(sum(len(m) for m in r))},
        "chain_maxima_lines": _chain_counts,
        "partition_function": None,
        "estimate_tau": _tau_counts,
        "legendre_spectrum": None,
    },
    "dwt": {
        "dwt_forward": None,
        "dwt_inverse": None,
        "rescale": None,
        "save_pyramid": lambda a, r: {"bytes": os.path.getsize(a["path"])},
        "load_pyramid": None,
    },
    "cascade": {"synthesize_mixed": _synth_counts},
    "stats": {"fit_cauchy": None, "fit_student_t2": None, "fit_normal": None},
}

MEMORY_TRACED = {"wtmm.cwt"}  # tracemalloc peak taken around these calls


class Tracer:
    """Spans in memory: name, start, end, parent index, counts, failure."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
            "failed": False,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)
        memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                self.close(span)
                if memory:
                    span["counts"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"].update(counter(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every module that binds it."""
        for layer, functions in TRACED.items():
            module = getattr(wcascade, layer)
            for fname, counter in functions.items():
                original = getattr(module, fname)
                traced = self.wrap(f"{layer}.{fname}", original, counter)
                for holder in MODULES:
                    if getattr(holder, fname, None) is original:
                        setattr(holder, fname, traced)


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    span = tracer.open("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.close(span)
    origin = span["start"]
    for s in tracer.spans:
        s["start"] -= origin
        s["end"] -= origin
    with open(spans_path, "w") as fh:
        json.dump({"argv": cli_argv, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
