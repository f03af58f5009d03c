"""Per-layer metrics from the spans of a traced replay.

Times are sums of span durations per traced function; counts come from the
counters ``replay.py`` read off the returned objects.  A layer the workload
does not run reports 0.
"""

from __future__ import annotations

MIB = 1024.0 * 1024.0

TIMED = {
    "empirics": ("load_panel_csv", "deseasonalize_returns", "collapse_H",
                 "extract_multipliers", "multiplier_correlations", "estimate_variances"),
    "wtmm": ("cwt", "find_modulus_maxima", "chain_maxima_lines", "partition_function",
             "estimate_tau", "legendre_spectrum"),
    "dwt": ("dwt_forward", "dwt_inverse", "rescale", "save_pyramid", "load_pyramid"),
    "cascade": ("synthesize_mixed",),
    "stats": ("fit_cauchy", "fit_student_t2", "fit_normal"),
}


def _complete_ratio(cwt_spans, chain_spans, tau_spans) -> float:
    """Lines reaching the top of the tau fit window / lines seeded."""
    seeded = complete = 0
    for cwt, chain, tau in zip(cwt_spans, chain_spans, tau_spans):
        scales = cwt["counts"]["scales"]
        top = max(i for i, s in enumerate(scales) if s <= tau["counts"]["fit_hi"])
        hist = chain["counts"]["length_hist"]
        seeded += chain["counts"]["lines"]
        complete += sum(hist[top + 1:])
    return complete / seeded if seeded else 0.0


def layer_metrics(docs: list, untraced_wall: float, traced_wall: float, cpu: float) -> dict:
    spans = [span for doc in docs for span in doc["spans"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    values = {
        f"{layer}.{fn}_s": seconds(f"{layer}.{fn}") for layer, fns in TIMED.items() for fn in fns
    }
    values.update({
        "empirics.panel_rows": count("empirics.load_panel_csv", "rows"),
        "empirics.collapse_ks_evals": count("empirics.collapse_H", "ks_evals"),
        "empirics.collapse_samples_merged": count("empirics.collapse_H", "samples_merged"),
        "empirics.masked_parents": count("empirics.extract_multipliers", "masked"),
        "empirics.variance_fits": count("empirics.estimate_variances", "fits"),
        "empirics.variance_fits_omitted": count("empirics.estimate_variances", "omitted"),
        "wtmm.n_scales": count("wtmm.cwt", "n_scales"),
        "wtmm.maxima_count": count("wtmm.find_modulus_maxima", "maxima"),
        "wtmm.lines_count": count("wtmm.chain_maxima_lines", "lines"),
        "wtmm.lines_complete_ratio": _complete_ratio(
            named("wtmm.cwt"), named("wtmm.chain_maxima_lines"), named("wtmm.estimate_tau")
        ),
        "wtmm.cwt_mb": count("wtmm.cwt", "cwt_bytes") / MIB,
        "wtmm.cwt_peak_mb": max((s["counts"]["peak_bytes"] for s in named("wtmm.cwt")), default=0) / MIB,
        "dwt.pyramid_json_mb": count("dwt.save_pyramid", "bytes") / MIB,
        "cascade.coefficients": count("cascade.synthesize_mixed", "coefficients"),
        "stats.fits_attempted": sum(len(named(f"stats.{fn}")) for fn in TIMED["stats"]),
        "stats.fits_failed": sum(s["failed"] for fn in TIMED["stats"] for s in named(f"stats.{fn}")),
    })
    # CLI self time: each command's span minus the library spans directly under it.
    self_time = covered = 0.0
    for doc in docs:
        for i, root in enumerate(doc["spans"]):
            if root["parent"] is None:
                inner = sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] == i)
                covered += inner
                self_time += root["end"] - root["start"] - inner
    values.update({
        "cli.self_s": self_time,
        "cli.cpu_s": cpu,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.span_share": covered / traced_wall if traced_wall else 0.0,
    })
    return values
