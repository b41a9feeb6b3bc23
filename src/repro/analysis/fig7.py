"""Figure 7 drivers: impact of community membership on user activity."""

from __future__ import annotations

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.experiments import ExperimentResult, finite, register, series_from
from repro.community.impact import (
    CommunityMembership,
    in_degree_ratio_by_size,
    interarrival_by_membership,
    lifetime_by_community_size,
    membership_of,
)
from repro.util.binning import empirical_cdf

__all__ = ["scaled_size_buckets"]


def scaled_size_buckets(total_nodes: int) -> tuple[tuple[int, float], ...]:
    """Community-size buckets proportional to a compressed trace.

    The paper's buckets ([10,100], [100,1K], [1K,100K], 100K+) assume
    millions of nodes; these shrink geometrically with the trace size.
    """
    top = max(200, total_nodes // 4)
    mid = max(60, top // 8)
    low = max(25, mid // 4)
    return ((10, low), (low, mid), (mid, top), (top, float("inf")))


def _membership(ctx: AnalysisContext) -> CommunityMembership:
    if not ctx.tracker.snapshots:
        raise ValueError("tracking run produced no snapshots")
    return membership_of(ctx.tracker.snapshots[-1])


@register("F7a")
def fig7a(ctx: AnalysisContext) -> ExperimentResult:
    """Community users create edges more frequently than non-community users."""
    groups = interarrival_by_membership(ctx.stream, _membership(ctx))
    result = ExperimentResult(
        experiment="F7a",
        title="Edge inter-arrival CDF: community vs non-community users",
        paper={
            "median_gap_ratio": "community users have visibly shorter inter-arrivals",
        },
    )
    medians: dict[str, float] = {}
    for label, gaps in groups.items():
        if gaps.size == 0:
            continue
        xs, ys = empirical_cdf(gaps)
        result.series[label] = series_from(xs, ys)
        medians[label] = float(np.median(gaps))
        result.findings[f"median_gap[{label}]"] = medians[label]
    if "community" in medians and "non_community" in medians and medians["community"] > 0:
        result.findings["median_gap_ratio"] = medians["non_community"] / medians["community"]
    result.findings = finite(result.findings)
    return result


@register("F7b")
def fig7b(ctx: AnalysisContext) -> ExperimentResult:
    """Users in larger communities stay active longer."""
    buckets = scaled_size_buckets(ctx.stream.num_nodes)
    groups = lifetime_by_community_size(ctx.stream, _membership(ctx), buckets=buckets)
    result = ExperimentResult(
        experiment="F7b",
        title="User lifetime CDF by community size bucket",
        paper={
            "mean_lifetime[non_community]": "non-community users have the shortest lifetimes",
        },
    )
    for label, lifetimes in groups.items():
        if lifetimes.size == 0:
            continue
        xs, ys = empirical_cdf(lifetimes)
        result.series[label] = series_from(xs, ys)
        result.findings[f"mean_lifetime[{label}]"] = float(np.mean(lifetimes))
    result.findings = finite(result.findings)
    return result


@register("F7c")
def fig7c(ctx: AnalysisContext) -> ExperimentResult:
    """Users in larger communities keep a larger share of edges internal."""
    buckets = scaled_size_buckets(ctx.stream.num_nodes)
    groups = in_degree_ratio_by_size(ctx.final_graph, _membership(ctx), buckets=buckets)
    result = ExperimentResult(
        experiment="F7c",
        title="In-degree ratio CDF by community size bucket",
        paper={
            "frac_fully_internal[largest_bucket]": "18-30% of nodes only interact inside "
            "their community; grows with community size",
        },
    )
    labels = [label for label, vals in groups.items() if vals.size > 0]
    for label in labels:
        vals = groups[label]
        xs, ys = empirical_cdf(vals)
        result.series[label] = series_from(xs, ys)
        result.findings[f"mean_in_ratio[{label}]"] = float(np.mean(vals))
        result.findings[f"frac_fully_internal[{label}]"] = float((vals >= 1.0).mean())
    result.findings = finite(result.findings)
    return result
