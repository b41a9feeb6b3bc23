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
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream
from repro.osnmerge.classify import EXTERNAL, INTERNAL, NEW, edge_class_codes
from repro.util.arrays import FloatArray, IntArray

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
    means = _mean_gaps(stream)
    if not means.size:
        raise ValueError("no user created two or more edges")
    return float(np.quantile(means, quantile))


def _mean_gaps(stream: EventStream) -> np.ndarray:
    """``np.mean(np.diff(times))`` of every user with two or more edges.

    Users are grouped by gap count: each group's gaps form one 2-D array
    whose row means add each row with the same pairwise summation that
    ``np.mean`` runs on a 1-D array (``np.add.reduceat`` would not).
    """
    columns = stream.node_edge_columns()
    gaps, _ = columns.gaps()
    count = columns.degree() - 1
    # Row i's gaps start at indptr[i] - i in ``gaps``.
    start = columns.indptr[:-1] - np.arange(len(columns))
    means = np.empty(len(columns))
    for n in np.unique(count[count > 0]).tolist():
        rows = np.flatnonzero(count == n)
        means[rows] = np.mean(gaps[start[rows, None] + np.arange(n)], axis=1)
    return means[count > 0]


#: ``percent_active`` keys and the edge class each counts (None: any class).
_KINDS: tuple[tuple[str, int | None], ...] = (
    ("all", None),
    ("new", NEW),
    ("internal", INTERNAL),
    ("external", EXTERNAL),
)


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
    in_group = stream.nodes.origin_is(origin)
    group_size = int(in_group.sum())
    if not group_size:
        raise ValueError(f"no nodes with origin {origin!r}")
    horizon = int(math.floor(stream.end_time - merge_day - t))
    if horizon < 0:
        raise ValueError("threshold exceeds the post-merge span of the trace")
    days = np.arange(horizon + 1)
    columns = stream.node_edge_columns()
    rows = columns.rows()
    # Entries of group users' organic post-merge edges, row by row.
    entry = np.flatnonzero((columns.time > merge_day + 1.0) & in_group[columns.slot][rows])
    row = rows[entry]
    rel = columns.time[entry] - merge_day
    # User active for d in [time - t, time]: each edge's day window.
    lo = np.maximum(0, np.ceil(rel - t)).astype(np.int64)
    hi = np.minimum(horizon, np.floor(rel)).astype(np.int64)
    valid = (lo <= horizon) & (hi >= 0) & (lo <= hi)
    kind = edge_class_codes(stream)[columns.edge[entry]]
    percent: dict[str, np.ndarray] = {}
    for name, code in _KINDS:
        keep = valid if code is None else valid & (kind == code)
        counts = _union_counts(row[keep], lo[keep], hi[keep], days.size + 1)
        percent[name] = 100.0 * np.cumsum(counts[:-1]) / group_size
    return ActiveUserSeries(
        origin=origin,
        group_size=group_size,
        threshold=t,
        days=days,
        percent_active=percent,
    )


def duplicate_account_estimate(series: ActiveUserSeries) -> float:
    """Fraction of the group inactive at day 0 (likely discarded duplicates)."""
    return 1.0 - series.percent_active["all"][0] / 100.0


def _union_counts(row: IntArray, lo: IntArray, hi: IntArray, size: int) -> FloatArray:
    """Difference array of each row's union of day windows ``[lo, hi]``.

    Windows come grouped by row and sorted by ``lo`` within a row.  A
    window opens a new run unless it starts at most one day after the
    furthest ``hi`` seen so far in its row (a segmented running max).
    """
    counts = np.zeros(size)
    if not row.size:
        return counts
    # Offsetting each row past every earlier one keeps the running max
    # from leaking across rows.
    shift = row * size
    reach = np.maximum.accumulate(hi + shift) - shift
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (lo[1:] > reach[:-1] + 1)
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], row.size) - 1
    np.add.at(counts, lo[starts], 1)
    np.add.at(counts, reach[ends] + 1, -1)
    return counts
