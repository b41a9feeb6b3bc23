"""Replay an event stream into graph snapshots at any cadence.

The paper derives 771 daily static snapshots from its event stream (§2) and
3-day snapshots for community tracking (§4.1).  :class:`DynamicGraph` does
the same: it holds one cursor over the stream's columns and yields
:class:`SnapshotView` records, each carrying the snapshot as an immutable
:class:`~repro.kernels.csr.CSRGraph`.

The first advance indexes the replay once: every edge event becomes two
directed entries in position space, sorted by (row, column) with the
event index kept beside each.  The snapshot after ``k`` edge events is
then the entries whose event index is below ``k`` — one mask, a
``bincount`` for the row pointers and a slice of node ids.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from repro.util.arrays import BoolArray, IntArray

__all__ = ["DynamicGraph", "SnapshotView", "snapshot_times"]


@dataclass(frozen=True)
class SnapshotView:
    """A point-in-time view of the evolving graph.

    ``graph`` is immutable, so a view stays valid however far the replay
    advances.
    """

    time: float
    graph: CSRGraph


class _PrefixIndex:
    """Sorted directed entries of a replay: one per edge event and direction.

    Semantics match applying the events one by one to a dict-of-sets graph:
    a repeated node or edge is counted once, a self-loop raises
    :class:`ValueError` and an endpoint that has not arrived raises
    :class:`KeyError` — both only once a snapshot includes that edge.
    """

    def __init__(self, stream: EventStream) -> None:
        nodes, edges = stream.nodes, stream.edges
        # Positions: each id at its first arrival.
        uniq, first_index = np.unique(nodes.node, return_index=True)
        first = np.zeros(nodes.node.size, dtype=bool)
        first[first_index] = True
        #: Nodes present after each number of node events.
        self.count_at = np.concatenate(([0], np.cumsum(first, dtype=np.int64)))
        self.node_ids = nodes.node[first]
        missing = self.node_ids.size  # a position past every node: never arrives
        uniq_pos = (np.cumsum(first, dtype=np.int64) - 1)[first_index]

        def positions(ids: IntArray) -> IntArray:
            if not missing:
                return np.full_like(ids, missing)
            at = np.minimum(np.searchsorted(uniq, ids), missing - 1)
            return np.where(uniq[at] == ids, uniq_pos[at], missing)

        pu, pv = positions(edges.u), positions(edges.v)
        self.loop: BoolArray = edges.u == edges.v
        #: Per edge event: the node count its endpoints need.
        self.need = np.maximum(pu, pv) + 1
        event = np.flatnonzero(~self.loop & (self.need <= missing))
        # Interleave both directions of each event so a stable sort keeps
        # the earliest event of every repeated (row, col) pair first.
        rows = np.column_stack((pu[event], pv[event])).ravel()
        cols = np.column_stack((pv[event], pu[event])).ravel()
        arrival = np.repeat(event, 2)
        order = np.argsort(rows * max(missing, 1) + cols, kind="stable")
        rows, cols, arrival = rows[order], cols[order], arrival[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.rows, self.cols, self.arrival = rows[keep], cols[keep], arrival[keep]

    def check(self, stream: EventStream, edge_lo: int, edge_hi: int, nodes: int) -> None:
        """Raise as the per-event replay would on the first bad edge in the range."""
        bad = self.loop[edge_lo:edge_hi] | (self.need[edge_lo:edge_hi] > nodes)
        if not bad.any():
            return
        k = edge_lo + int(np.argmax(bad))
        u, v = int(stream.edges.u[k]), int(stream.edges.v[k])
        if u == v:
            raise ValueError(f"self-loop on node {u} not allowed")
        present = self.node_ids[:nodes]
        raise KeyError(u if not np.isin(u, present) else v)

    def graph(self, nodes: int, edge_hi: int) -> CSRGraph:
        """The snapshot holding ``nodes`` nodes and the edges of events before ``edge_hi``."""
        mask = self.arrival < edge_hi
        indptr = np.zeros(nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows[mask], minlength=nodes), out=indptr[1:])
        indices = self.cols[mask]
        return CSRGraph(
            node_ids=self.node_ids[:nodes],
            indptr=indptr,
            indices=indices,
            num_edges=indices.size // 2,
            arrival=self.arrival[mask],
        )


class DynamicGraph:
    """Single-pass replayer of an :class:`EventStream`.

    A :class:`DynamicGraph` is a one-shot iterator factory: each call to
    :meth:`snapshots` or :meth:`advance_to` continues from the current
    cursor.  Create a fresh instance to replay from the beginning.
    """

    def __init__(self, stream: EventStream) -> None:
        self.stream = stream
        self.graph = CSRGraph.empty()
        self._node_idx = 0
        self._edge_idx = 0
        self._index: _PrefixIndex | None = None

    @property
    def node_cursor(self) -> int:
        """Number of node-arrival events consumed so far."""
        return self._node_idx

    @property
    def edge_cursor(self) -> int:
        """Number of edge-arrival events consumed so far."""
        return self._edge_idx

    @property
    def time_cursor(self) -> float:
        """The time up to which events have been applied (exclusive of future)."""
        times = []
        if self._node_idx > 0:
            times.append(float(self.stream.nodes.time[self._node_idx - 1]))
        if self._edge_idx > 0:
            times.append(float(self.stream.edges.time[self._edge_idx - 1]))
        return max(times, default=0.0)

    @property
    def exhausted(self) -> bool:
        """Whether every event has been applied."""
        return self._node_idx >= len(self.stream.nodes) and self._edge_idx >= len(self.stream.edges)

    def advance_to(self, time: float) -> SnapshotView:
        """Apply all events with ``event.time <= time`` and return a view."""
        nodes = self.stream.nodes
        edges = self.stream.edges
        node_lo, edge_lo = self._node_idx, self._edge_idx
        node_hi = max(node_lo, int(np.searchsorted(nodes.time, time, side="right")))
        edge_hi = max(edge_lo, int(np.searchsorted(edges.time, time, side="right")))
        if (node_hi, edge_hi) == (node_lo, edge_lo):
            return SnapshotView(time=time, graph=self.graph)
        index = self._index
        if index is None:
            index = self._index = _PrefixIndex(self.stream)
        count = int(index.count_at[node_hi])
        index.check(self.stream, edge_lo, edge_hi, count)
        self.graph = index.graph(count, edge_hi)
        self._node_idx, self._edge_idx = node_hi, edge_hi
        return SnapshotView(time=time, graph=self.graph)

    def snapshots(
        self,
        interval: float = 1.0,
        start: float | None = None,
        end: float | None = None,
    ) -> Iterator[SnapshotView]:
        """Yield views every ``interval`` days from ``start`` to ``end``.

        ``start`` defaults to ``interval`` past the cursor; ``end`` defaults
        to the stream's last event time.  The final partial interval is
        included so the last events are never dropped.
        """
        stop = self.stream.end_time if end is None else end
        first = (self.time_cursor + interval) if start is None else start
        for t in snapshot_times(stop, interval, first):
            yield self.advance_to(t)

    def final(self) -> CSRGraph:
        """Apply all remaining events and return the final snapshot."""
        self.advance_to(float("inf"))
        return self.graph


def snapshot_times(end_time: float, interval: float, start: float | None = None) -> list[float]:
    """The snapshot grid :meth:`DynamicGraph.snapshots` visits on a fresh replay.

    Samples every ``interval`` days from ``start`` (default one interval
    in), plus the final partial interval at ``end_time``.  Times
    accumulate by repeated addition, so every caller gets the same floats.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    times: list[float] = []
    t = interval if start is None else start
    while t < end_time:
        times.append(t)
        t += interval
    times.append(end_time)
    return times
