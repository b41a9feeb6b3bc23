"""Edge inter-arrival times, bucketed by node age (Figure 2a).

For each node, the gaps between its consecutive edge creations are
collected; each gap is assigned to an age bucket based on how old the node
was when the later edge was created.  The paper buckets by months of age
("Month 1", "Month 2", ..., "Month 15-26") and finds a power law of
exponent 1.8-2.5 in every bucket.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graph.events import EventStream
from repro.util.binning import log_binned_pdf

__all__ = [
    "AGE_BUCKETS_PAPER",
    "node_edge_times",
    "node_interarrival_times",
    "collect_interarrivals_by_age",
    "interarrival_pdf_by_bucket",
]

#: The paper's age buckets, as (label, min_age_days, max_age_days).
AGE_BUCKETS_PAPER: tuple[tuple[str, float, float], ...] = (
    ("Month 1", 0.0, 30.0),
    ("Month 2", 30.0, 60.0),
    ("Month 3", 60.0, 90.0),
    ("Month 4-5", 90.0, 150.0),
    ("Month 6-14", 150.0, 420.0),
    ("Month 15-26", 420.0, 780.0),
)


def scaled_age_buckets(days: float, count: int = 4) -> tuple[tuple[str, float, float], ...]:
    """Age buckets proportional to a compressed trace of length ``days``.

    The first buckets are narrow (early life) and the last is open-ended,
    mirroring the paper's month-based scheme.
    """
    if count < 2:
        raise ValueError("need at least two buckets")
    unit = days / (2 ** (count - 1))
    edges = [0.0]
    for i in range(count - 1):
        edges.append(unit * (2**i))
    edges.append(float("inf"))
    return tuple(
        (f"Age {lo:g}-{hi:g}d" if np.isfinite(hi) else f"Age {lo:g}d+", lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:], strict=True)
    )


def node_edge_times(stream: EventStream) -> dict[int, list[float]]:
    """Map each node to the sorted times of its edge creations.

    A dict view over :meth:`EventStream.node_edge_columns`, keyed in the
    columns' row order.
    """
    columns = stream.node_edge_columns()
    times = columns.time.tolist()
    bounds = columns.indptr.tolist()
    return {
        node: times[lo:hi]
        for node, lo, hi in zip(columns.node.tolist(), bounds, bounds[1:], strict=False)
    }


def node_interarrival_times(edge_times: Sequence[float]) -> np.ndarray:
    """Gaps between consecutive edge creations of one node."""
    arr = np.asarray(edge_times, dtype=float)
    if arr.size < 2:
        return np.array([])
    return np.diff(arr)


def collect_interarrivals_by_age(
    stream: EventStream,
    buckets: Sequence[tuple[str, float, float]] | None = None,
) -> dict[str, np.ndarray]:
    """Aggregate all nodes' inter-arrival gaps into age buckets.

    A gap between a node's edges at ``t0 < t1`` lands in the first bucket
    containing the node's age at ``t1``; zero gaps are dropped.  Each
    bucket keeps its gaps in node-row order, then time order.  ``buckets``
    defaults to :data:`AGE_BUCKETS_PAPER`.
    """
    if buckets is None:
        buckets = AGE_BUCKETS_PAPER
    columns = stream.node_edge_columns()
    gaps, closing = columns.gaps()
    age = columns.time[closing] - columns.born[columns.rows()[closing]]
    open_ = gaps > 0
    collected: dict[str, np.ndarray] = {}
    for label, lo, hi in buckets:
        hit = open_ & (lo <= age) & (age < hi)
        collected[label] = gaps[hit]
        open_ &= ~hit
    return collected


def interarrival_pdf_by_bucket(
    stream: EventStream,
    buckets: Sequence[tuple[str, float, float]] | None = None,
    bins_per_decade: int = 8,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Log-binned PDF of inter-arrival gaps per age bucket (Fig 2a series)."""
    collected = collect_interarrivals_by_age(stream, buckets)
    return {
        label: log_binned_pdf(values, bins_per_decade)
        for label, values in collected.items()
        if values.size > 0
    }
