"""Active-user tracking after the merge (paper §5.2, Figures 8a-8b).

The paper calls a user *active* when they have created an edge within the
activity threshold ``t`` (94 days on Renren: the 99th percentile of users'
average edge inter-arrival).  Because its Figure 8 x-axis stops ``t`` days
before the end of the data ("we cannot determine whether users have become
inactive during the tail"), the operational reading is forward-looking:

    a user is **active at day d** (after the merge) iff they create at
    least one *organic* post-merge edge in the window ``[d, d + t)``.

"Organic" excludes the one-day bulk import of 5Q's internal edges.  Users
inactive at day 0 — who never create an edge in the first ``t`` days — are
the paper's estimate of discarded duplicate accounts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.edges.interarrival import node_edge_times
from repro.graph.events import EventStream
from repro.osnmerge.classify import EdgeClass, classify_edges

__all__ = [
    "activity_threshold",
    "ActiveUserSeries",
    "active_users_over_time",
    "duplicate_account_estimate",
]


def activity_threshold(stream: EventStream, quantile: float = 0.99) -> float:
    """Data-derived activity threshold: ``quantile`` of per-user mean gaps.

    On the paper's Renren data this yields ~94 days; on compressed
    synthetic traces it scales down automatically.
    """
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")
    means = [
        float(np.mean(np.diff(times)))
        for times in node_edge_times(stream).values()
        if len(times) >= 2
    ]
    if not means:
        raise ValueError("no user created two or more edges")
    return float(np.quantile(means, quantile))


@dataclass(frozen=True)
class ActiveUserSeries:
    """Percent of one OSN's users active over days after the merge.

    ``percent_active[kind][i]`` is the percentage of the group active at
    ``days[i]``, where ``kind`` ∈ {"all", "new", "internal", "external"}
    restricts the activity to edges of that class ("all" counts any
    class), as in Figures 8(a)-8(b).
    """

    origin: str
    group_size: int
    threshold: float
    days: np.ndarray
    percent_active: dict[str, np.ndarray]


def active_users_over_time(
    stream: EventStream,
    merge_day: float,
    origin: str,
    threshold: float | None = None,
) -> ActiveUserSeries:
    """Figure 8(a)/(b): active-user percentages for one pre-merge OSN."""
    t = activity_threshold(stream) if threshold is None else threshold
    origins = stream.node_origins()
    group = {node for node, o in origins.items() if o == origin}
    if not group:
        raise ValueError(f"no nodes with origin {origin!r}")
    horizon = int(math.floor(stream.end_time - merge_day - t))
    if horizon < 0:
        raise ValueError("threshold exceeds the post-merge span of the trace")
    days = np.arange(horizon + 1)
    # Per user and class, the days (relative to merge) they created edges.
    activity: dict[str, dict[int, list[float]]] = {
        "all": defaultdict(list),
        "new": defaultdict(list),
        "internal": defaultdict(list),
        "external": defaultdict(list),
    }
    kind_key = {
        EdgeClass.NEW: "new",
        EdgeClass.INTERNAL: "internal",
        EdgeClass.EXTERNAL: "external",
    }
    for time, u, v, kind in classify_edges(stream, after=merge_day):
        rel = time - merge_day
        for endpoint in (u, v):
            if endpoint in group:
                activity["all"][endpoint].append(rel)
                activity[kind_key[kind]][endpoint].append(rel)
    percent: dict[str, np.ndarray] = {}
    for kind, per_user in activity.items():
        counts = np.zeros(days.size + 1)
        for times in per_user.values():
            # User active for d in [time - t, time]; union over edges via
            # a difference array over merged intervals.
            for lo, hi in _merged_intervals(times, t, days.size - 1):
                counts[lo] += 1
                counts[hi + 1] -= 1
        percent[kind] = 100.0 * np.cumsum(counts[:-1]) / len(group)
    return ActiveUserSeries(
        origin=origin,
        group_size=len(group),
        threshold=t,
        days=days,
        percent_active=percent,
    )


def duplicate_account_estimate(series: ActiveUserSeries) -> float:
    """Fraction of the group inactive at day 0 (likely discarded duplicates)."""
    return 1.0 - series.percent_active["all"][0] / 100.0


def _merged_intervals(
    times: list[float],
    threshold: float,
    max_day: int,
) -> list[tuple[int, int]]:
    """Union of the day windows ``[time - t, time]`` clipped to [0, max_day]."""
    intervals: list[tuple[int, int]] = []
    for time in sorted(times):
        lo = max(0, int(math.ceil(time - threshold)))
        hi = min(max_day, int(math.floor(time)))
        if lo > max_day or hi < 0 or lo > hi:
            continue
        if intervals and lo <= intervals[-1][1] + 1:
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], hi))
        else:
            intervals.append((lo, hi))
    return intervals
