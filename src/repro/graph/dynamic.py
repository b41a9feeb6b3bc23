"""Replay an event stream into graph snapshots at any cadence.

The paper derives 771 daily static snapshots from its event stream (§2) and
3-day snapshots for community tracking (§4.1).  :class:`DynamicGraph` does
the same: it holds one cursor over the stream and advances a single mutable
:class:`~repro.graph.snapshot.GraphSnapshot` forward in time, yielding
lightweight :class:`SnapshotView` records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph

__all__ = ["DynamicGraph", "SnapshotView"]


@dataclass(frozen=True)
class SnapshotView:
    """A point-in-time view of the evolving graph.

    ``graph`` is the replayer's **live** snapshot: it will keep mutating as
    the replay advances.  Callers that retain it across steps must call
    :meth:`materialize` (or ``graph.copy()``).  ``new_edges`` lists the
    (u, v) pairs added since the previous view, which the incremental
    analyses (pe(d), community tracking) consume.
    """

    time: float
    graph: GraphSnapshot
    new_nodes: tuple[int, ...]
    new_edges: tuple[tuple[int, int], ...]

    def materialize(self) -> "SnapshotView":
        """A view whose graph is decoupled from the live replay.

        The graph is deep-copied, so the copy shares no mutable state with
        the replayer and is safe to retain while the replay advances.
        """
        return replace(self, graph=self.graph.copy())


class DynamicGraph:
    """Single-pass replayer of an :class:`EventStream`.

    A :class:`DynamicGraph` is a one-shot iterator factory: each call to
    :meth:`snapshots` or :meth:`advance_to` continues from the current
    cursor.  Create a fresh instance to replay from the beginning.
    """

    def __init__(self, stream: EventStream) -> None:
        self.stream = stream
        self.graph = GraphSnapshot()
        self._node_idx = 0
        self._edge_idx = 0

    @classmethod
    def from_checkpoint(cls, stream: EventStream, checkpoint: ReplayCheckpoint) -> "DynamicGraph":
        """Resume replay of ``stream`` from ``checkpoint``.

        The checkpoint must have been taken from a replay of the same
        stream; cursor indices out of range raise :class:`ValueError`.
        """
        if checkpoint.node_index > len(stream.nodes) or checkpoint.edge_index > len(stream.edges):
            raise ValueError(
                f"checkpoint cursor ({checkpoint.node_index}, {checkpoint.edge_index}) "
                f"out of range for stream with {len(stream.nodes)} node / "
                f"{len(stream.edges)} edge events"
            )
        replay = cls(stream)
        replay.graph = checkpoint.restore_graph()
        replay._node_idx = checkpoint.node_index
        replay._edge_idx = checkpoint.edge_index
        return replay

    def checkpoint(self) -> ReplayCheckpoint:
        """Freeze the current replay state into a compact checkpoint."""
        return ReplayCheckpoint(
            time=self.time_cursor,
            node_index=self._node_idx,
            edge_index=self._edge_idx,
            csr=CSRGraph.from_snapshot(self.graph),
        )

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
        new_nodes = nodes.node[node_lo:node_hi].tolist()
        for node in new_nodes:
            self.graph.add_node(node)
        new_edges: list[tuple[int, int]] = []
        for u, v in zip(
            edges.u[edge_lo:edge_hi].tolist(), edges.v[edge_lo:edge_hi].tolist(), strict=True
        ):
            if self.graph.add_edge(u, v):
                new_edges.append((u, v))
        self._node_idx, self._edge_idx = node_hi, edge_hi
        return SnapshotView(
            time=time,
            graph=self.graph,
            new_nodes=tuple(new_nodes),
            new_edges=tuple(new_edges),
        )

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
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        stop = self.stream.end_time if end is None else end
        t = (self.time_cursor + interval) if start is None else start
        while t < stop:
            yield self.advance_to(t)
            t += interval
        yield self.advance_to(stop)

    def final(self) -> GraphSnapshot:
        """Apply all remaining events and return the live snapshot."""
        self.advance_to(float("inf"))
        return self.graph
