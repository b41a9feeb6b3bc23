"""Event-stream transforms: time rescaling, node subsampling, relabeling.

Utilities for adapting traces between scales — e.g. compressing a long
real-world trace onto this library's laptop-scale timeline, or carving a
consistent subsample for a quick look.  All transforms return **new**
validated streams; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from repro.graph.events import EdgeColumns, EventStream, NodeColumns
from repro.util.rng import make_rng

__all__ = ["rescale_time", "subsample_nodes", "relabel_nodes", "truncate"]


def rescale_time(stream: EventStream, factor: float) -> EventStream:
    """Multiply every event time by ``factor`` (> 0)."""
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    nodes, edges = stream.nodes, stream.edges
    out = EventStream(
        nodes=NodeColumns(nodes.time * factor, nodes.node, nodes.origin, nodes.labels),
        edges=EdgeColumns(edges.time * factor, edges.u, edges.v),
    )
    out.validate()
    return out


def subsample_nodes(
    stream: EventStream,
    fraction: float,
    seed: int | np.random.Generator | None = 0,
) -> EventStream:
    """Keep a uniform ``fraction`` of nodes and their induced edges.

    Node sampling (not edge sampling) preserves per-node dynamics like
    inter-arrival gaps, at the cost of thinning degrees — the standard
    trade-off for OSN subsamples.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = make_rng(seed)
    nodes, edges = stream.nodes, stream.edges
    # One vector draw yields the same doubles as one scalar draw per node.
    keep = np.unique(nodes.node[rng.random(len(nodes)) < fraction])
    out = EventStream(
        nodes=nodes[np.isin(nodes.node, keep)],
        edges=edges[np.isin(edges.u, keep) & np.isin(edges.v, keep)],
    )
    out.validate()
    return out


def relabel_nodes(stream: EventStream) -> tuple[EventStream, dict[int, int]]:
    """Renumber nodes densely (0..N-1) in arrival order.

    Returns ``(new_stream, old_id -> new_id)``.  Useful after
    :func:`subsample_nodes`, and for anonymizing arbitrary ids.
    """
    nodes, edges = stream.nodes, stream.edges
    mapping = {node: idx for idx, node in enumerate(nodes.node.tolist())}

    def relabel(ids: np.ndarray) -> np.ndarray:
        return np.fromiter((mapping[i] for i in ids.tolist()), dtype=np.int64, count=len(ids))

    out = EventStream(
        nodes=NodeColumns(nodes.time, relabel(nodes.node), nodes.origin, nodes.labels),
        edges=EdgeColumns(edges.time, relabel(edges.u), relabel(edges.v)),
    )
    out.validate()
    return out, mapping


def truncate(stream: EventStream, end_time: float) -> EventStream:
    """Drop every event after ``end_time`` (inclusive cut)."""
    out = EventStream(
        nodes=stream.nodes[stream.nodes.time <= end_time],
        edges=stream.edges[stream.edges.time <= end_time],
    )
    out.validate()
    return out
