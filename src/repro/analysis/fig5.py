"""Figure 5 drivers: community size/lifetime statistics over time."""

from __future__ import annotations

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.experiments import ExperimentResult, finite, register, series_from
from repro.community.stats import (
    community_lifetimes,
    community_size_distribution,
    lifetime_cdf,
    top_k_coverage,
)
from repro.edges.powerlaw import fit_power_law_mle

__all__ = []


@register("F5a")
def fig5a(ctx: AnalysisContext) -> ExperimentResult:
    """Size distributions at three spaced snapshots: power law, drifting larger."""
    tracker = ctx.tracker
    snaps = tracker.snapshots
    if len(snaps) < 3:
        raise ValueError("tracking run too short for F5a")
    picks = [snaps[len(snaps) // 2], snaps[(3 * len(snaps)) // 4], snaps[-1]]
    result = ExperimentResult(
        experiment="F5a",
        title="Community size distribution at three snapshots",
        paper={
            "powerlaw_exponent[last]": "power-law sizes; gradual drift toward larger communities",
        },
    )
    for snap in picks:
        dist = community_size_distribution(snap)
        sizes = np.array(sorted(dist))
        counts = np.array([dist[s] for s in sizes])
        label = f"day {snap.time:g}"
        result.series[label] = series_from(sizes, counts)
        result.findings[f"max_size[{label}]"] = float(sizes.max()) if sizes.size else float("nan")
    all_sizes = [s.size for s in picks[-1].states.values()]
    if len(all_sizes) >= 5:
        fit = fit_power_law_mle(np.asarray(all_sizes, dtype=float))
        result.findings["powerlaw_exponent[last]"] = fit.exponent
    result.findings = finite(result.findings)
    return result


@register("F5b")
def fig5b(ctx: AnalysisContext) -> ExperimentResult:
    """Coverage of the top-5 communities grows as the network matures."""
    tracker = ctx.tracker
    # Total network size at each tracked snapshot: the node-arrival cursor.
    times = [snap.time for snap in tracker.snapshots]
    sizes = np.searchsorted(ctx.stream.nodes.time, times, side="right").tolist()
    coverage_rows = [
        top_k_coverage(snap, size, k=5) for snap, size in zip(tracker.snapshots, sizes, strict=True)
    ]
    arr = np.asarray(coverage_rows)
    result = ExperimentResult(
        experiment="F5b",
        title="Fraction of nodes covered by the top-5 communities",
        paper={
            "total_top5_final": "grows from <30% (~day 100) to >60% by the end",
        },
    )
    t = np.asarray(times)
    for rank in range(arr.shape[1] if arr.size else 0):
        result.series[f"rank_{rank + 1}"] = series_from(t, arr[:, rank])
    if arr.size:
        totals = arr.sum(axis=1)
        result.series["total_top5"] = series_from(t, totals)
        half = max(1, totals.size // 2)
        result.findings = finite(
            {
                "total_top5_early": float(np.mean(totals[:half])),
                "total_top5_final": float(totals[-1]),
                "coverage_growth": float(totals[-1] - np.mean(totals[:half])),
            }
        )
    return result


@register("F5c")
def fig5c(ctx: AnalysisContext) -> ExperimentResult:
    """Community lifetime CDF: most communities are short-lived."""
    tracker = ctx.tracker
    lifetimes = community_lifetimes(tracker)
    xs, ys = lifetime_cdf(tracker)
    result = ExperimentResult(
        experiment="F5c",
        title="CDF of community lifetimes",
        series={"lifetime_cdf": series_from(xs, ys)},
        paper={
            "frac_lifetime<=1_snapshot": "20% of communities live less than a day",
            "frac_lifetime<=30d_equiv": "60% live less than 30 days before merging",
        },
    )
    if lifetimes.size:
        interval = ctx.tracking_interval
        scale = ctx.config.days / 771.0
        month_equiv = max(interval, 30.0 * scale * 4)
        result.findings = finite(
            {
                "observed_deaths": float(lifetimes.size),
                "frac_lifetime<=1_snapshot": float((lifetimes <= interval).mean()),
                "frac_lifetime<=30d_equiv": float((lifetimes <= month_equiv).mean()),
                "median_lifetime_days": float(np.median(lifetimes)),
            }
        )
        result.notes.append(
            f"'30-day equivalent' on this compressed trace = {month_equiv:g} days"
        )
    return result
