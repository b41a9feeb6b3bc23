"""Figure 4 drivers: community tracking and the δ sensitivity sweep.

The sweep runs incremental Louvain tracking at several δ thresholds, one
tracker per δ stepped from a single replay; to keep the sweep affordable
it uses a coarser snapshot cadence than the main tracking run (the
conclusions — modularity ≥ 0.4, robustness for δ ≥ 0.01 — are
cadence-insensitive).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.context import DELTA_SWEEP, AnalysisContext
from repro.analysis.experiments import ExperimentResult, finite, register, series_from
from repro.community.stats import community_size_distribution

__all__ = ["DELTA_SWEEP"]


@register("F4a")
def fig4a(ctx: AnalysisContext) -> ExperimentResult:
    """Modularity stays high across snapshots for every δ."""
    result = ExperimentResult(
        experiment="F4a",
        title="Modularity over time for several delta thresholds",
        paper={
            "late_modularity[delta=0.01]": "always above 0.4 (strong community structure)"
        },
    )
    for delta, tracker in ctx.delta_sweep.items():
        times = np.array([s.time for s in tracker.snapshots])
        mods = np.array([s.modularity for s in tracker.snapshots])
        result.series[f"delta={delta:g}"] = series_from(times, mods)
        if mods.size:
            late = mods[times > ctx.config.days / 2]
            if late.size:
                result.findings[f"late_modularity[delta={delta:g}]"] = float(np.mean(late))
    result.findings = finite(result.findings)
    return result


@register("F4b")
def fig4b(ctx: AnalysisContext) -> ExperimentResult:
    """Average inter-snapshot community similarity by δ (robustness)."""
    result = ExperimentResult(
        experiment="F4b",
        title="Average community similarity between snapshots by delta",
        paper={
            "mean_similarity[delta=0.0001]": "small deltas (1e-4, 1e-3) are less robust",
            "mean_similarity[delta=0.1]": "deltas in [0.1, 0.3] track most stably",
        },
    )
    for delta, tracker in ctx.delta_sweep.items():
        times = np.array([s.time for s in tracker.snapshots])
        sims = np.array([s.avg_similarity for s in tracker.snapshots])
        result.series[f"delta={delta:g}"] = series_from(times, sims)
        if np.isfinite(sims).any():
            result.findings[f"mean_similarity[delta={delta:g}]"] = float(np.nanmean(sims))
    result.findings = finite(result.findings)
    return result


@register("F4c")
def fig4c(ctx: AnalysisContext) -> ExperimentResult:
    """Community size distributions are insensitive to δ once δ ≥ 0.01."""
    result = ExperimentResult(
        experiment="F4c",
        title="Community size distribution at the final snapshot, by delta",
        paper={
            "num_communities[delta=0.01]": "insensitive to delta once delta >= 0.01",
        },
    )
    for delta, tracker in ctx.delta_sweep.items():
        if not tracker.snapshots:
            continue
        dist = community_size_distribution(tracker.snapshots[-1])
        sizes = np.array(sorted(dist))
        counts = np.array([dist[s] for s in sizes])
        result.series[f"delta={delta:g}"] = series_from(sizes, counts)
        result.findings[f"num_communities[delta={delta:g}]"] = float(counts.sum())
    result.findings = finite(result.findings)
    return result
