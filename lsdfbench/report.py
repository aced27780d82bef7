"""Reduce one run's samples and spans to the benchmark's metrics.

Each metric is a (name, value, unit, note) row; the note carries the sample
count or what a count is per.
"""

from __future__ import annotations

from statistics import median

# Spans that must each record at least one call in a traced run.
SPANS = (
    "robot.fk",
    "placement.place",
    "placement.transform",
    "grids.sample",
    "query.assemble",
    "query.voxelize",
    "query.gather",
)
MIN_COVERAGE = 0.9  # share of the blocking path the spans must cover


class TraceError(RuntimeError):
    """The traced run lost a span or no longer covers the blocking path."""


def tail(samples):
    """(value, percentile): the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run) -> list[tuple]:
    """(name, value, unit, note) rows, each timing with its sample count."""
    slow, pct = tail(run.cycle_s)
    return [
        ("cycle_ms_p50", 1e3 * median(run.cycle_s), "ms", f"n={len(run.cycle_s)}"),
        ("cycle_ms_tail", 1e3 * slow, "ms", f"p{pct:.1f}, n={len(run.cycle_s)}"),
        ("replan_s_p50", median(run.replan_s), "s", f"n={len(run.replan_s)}"),
        ("setup_s", median(run.setup_s), "s", f"n={len(run.setup_s)}"),
        ("peak_rss_mib", run.peak_rss_mib, "MiB", "ru_maxrss"),
    ]


def per_layer(run, spec) -> list[tuple]:
    """(name, value, unit, note) rows from the traced prepares and cycles."""
    ps, cs = run.prepare_spans, run.cycle_spans
    calls = {name: sum(s.calls[name] for s in ps + cs) for name in SPANS}
    missing = [name for name, n in calls.items() if n == 0]
    if missing:
        raise TraceError(f"spans recorded no call: {', '.join(missing)}")

    def prep_ms(name):
        return median([1e3 * s.seconds[name] for s in ps])

    def self_ms(s):
        inner = s.seconds["placement.transform"] + s.seconds["grids.sample"]
        return 1e3 * (s.seconds["placement.place"] - inner)

    if spec.replan:
        path = "replan_s_p50"
        overhead = median(run.replan_traced_s) / median(run.replan_s)
        coverage = run.covered_replan_s / sum(run.replan_traced_s)
    else:
        path = "cycle_ms_p50"
        overhead = median(run.cycle_traced_s) / median(run.cycle_s)
        spanned = sum(s.seconds["query.voxelize"] + s.seconds["query.gather"] for s in cs)
        coverage = spanned / sum(run.cycle_traced_s)
    if coverage < MIN_COVERAGE:
        raise TraceError(f"spans cover {coverage:.1%} of {path}")

    first = ps[0].counts
    frames = list(run.frame_counts.values())
    points, dropped, occupied, gathers, gather_bytes = (sum(col) for col in zip(*frames))
    n_prep, n_cyc = f"n={len(ps)} prepares", f"n={len(cs)} cycles"
    return [
        ("robot.fk_ms", prep_ms("robot.fk"), "ms", n_prep),
        ("placement.place_ms", prep_ms("placement.place"), "ms", n_prep),
        ("placement.transform_ms", prep_ms("placement.transform"), "ms", n_prep),
        ("placement.transform_points", first["placement.transform_points"], "count", "per prepare"),
        ("grids.sample_ms", prep_ms("grids.sample"), "ms", n_prep),
        ("grids.samples", first["grids.samples"], "count", "per prepare"),
        ("placement.self_ms", median([self_ms(s) for s in ps]), "ms", n_prep),
        ("placement.fields", first["placement.fields"], "count", "per prepare"),
        ("placement.field_bytes_computed", first["placement.field_bytes_computed"], "bytes", "per prepare"),
        ("query.assemble_ms", prep_ms("query.assemble"), "ms", n_prep),
        ("query.batch_bytes", run.batch_bytes, "bytes", "per prepare"),
        ("query.live_voxel_fraction", run.live_fraction, "ratio", "first trajectory"),
        ("query.voxelize_ms_p50", median([1e3 * s.seconds["query.voxelize"] for s in cs]), "ms", n_cyc),
        ("query.points", points, "count", f"per pass of {len(frames)} frames"),
        ("query.points_dropped", dropped, "count", "per pass"),
        ("query.occupied_voxels", occupied, "count", "per pass"),
        ("query.gather_ms_p50", median([1e3 * s.seconds["query.gather"] for s in cs]), "ms", n_cyc),
        ("query.gathers", gathers, "count", "per pass"),
        ("query.gather_bytes_computed", gather_bytes, "bytes", "per pass"),
        (
            "query.gather_ns_per_value",
            median([1e9 * s.seconds["query.gather"] / s.counts["query.gathers"]
                    for s in cs if s.counts["query.gathers"]]),
            "ns",
            n_cyc,
        ),
        ("check.cycles_checked", run.cycles_checked, "count", f"{run.distances_checked} distances"),
        ("check.violations", run.violations, "count", "outside the budget"),
        ("check.violation_rate", run.violations / max(run.distances_checked, 1), "ratio", "of checked distances"),
        ("trace.overhead_ratio", overhead, "ratio", f"traced / untraced {path}"),
        ("trace.coverage", coverage, "ratio", f"spanned share of traced {path}"),
    ]
