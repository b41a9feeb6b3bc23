"""Daily growth series: absolute and relative node/edge additions.

Reproduces Figure 1(a) (nodes/edges added per day, log scale) and
Figure 1(b) (daily additions as a percentage of the previous day's network
size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream

__all__ = ["GrowthSeries", "daily_growth"]


@dataclass(frozen=True)
class GrowthSeries:
    """Per-day growth counts and relative rates.

    ``days[i]`` is the integer day; ``new_nodes[i]`` / ``new_edges[i]`` are
    the additions during that day; ``node_growth_pct`` / ``edge_growth_pct``
    are additions as a percentage of the cumulative count at the end of the
    previous day (``nan`` where the previous count is zero, as a relative
    rate is undefined there).
    """

    days: np.ndarray
    new_nodes: np.ndarray
    new_edges: np.ndarray
    cumulative_nodes: np.ndarray
    cumulative_edges: np.ndarray
    node_growth_pct: np.ndarray
    edge_growth_pct: np.ndarray


def daily_growth(stream: EventStream) -> GrowthSeries:
    """Compute the :class:`GrowthSeries` for an event stream."""
    n_days = int(math.floor(stream.end_time)) + 1
    new_nodes = np.zeros(n_days, dtype=np.int64)
    new_edges = np.zeros(n_days, dtype=np.int64)
    for day in stream.nodes.time.tolist():
        new_nodes[int(day)] += 1
    for day in stream.edges.time.tolist():
        new_edges[int(day)] += 1
    cum_nodes = np.cumsum(new_nodes)
    cum_edges = np.cumsum(new_edges)
    prev_nodes = np.concatenate(([0], cum_nodes[:-1])).astype(float)
    prev_edges = np.concatenate(([0], cum_edges[:-1])).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        node_pct = np.where(prev_nodes > 0, 100.0 * new_nodes / prev_nodes, np.nan)
        edge_pct = np.where(prev_edges > 0, 100.0 * new_edges / prev_edges, np.nan)
    return GrowthSeries(
        days=np.arange(n_days),
        new_nodes=new_nodes,
        new_edges=new_edges,
        cumulative_nodes=cum_nodes,
        cumulative_edges=cum_edges,
        node_growth_pct=node_pct,
        edge_growth_pct=edge_pct,
    )
