"""Dict-of-sets replay: the oracle the CSR replay is pinned against.

:class:`DictReplay` applies a stream's events one by one to a
:class:`~repro.graph.snapshot.GraphSnapshot`, exactly as the replayer did
before snapshots became CSR arrays.  Parity tests compare
``CSRGraph.from_snapshot`` of its graph with the replay's own.
"""

from __future__ import annotations

import numpy as np

from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph


class DictReplay:
    """Per-event replay: each advance adds its node arrivals, then its edges."""

    def __init__(self, stream: EventStream, graph: GraphSnapshot | None = None) -> None:
        self.stream = stream
        self.graph = GraphSnapshot() if graph is None else graph
        self.node_cursor = 0
        self.edge_cursor = 0

    def advance_to(self, time: float) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Apply events up to ``time``; returns the new nodes and new edges."""
        nodes, edges = self.stream.nodes, self.stream.edges
        node_hi = max(self.node_cursor, int(np.searchsorted(nodes.time, time, side="right")))
        edge_hi = max(self.edge_cursor, int(np.searchsorted(edges.time, time, side="right")))
        new_nodes = nodes.node[self.node_cursor : node_hi].tolist()
        for node in new_nodes:
            self.graph.add_node(node)
        new_edges = []
        lo = self.edge_cursor
        for u, v in zip(edges.u[lo:edge_hi].tolist(), edges.v[lo:edge_hi].tolist(), strict=True):
            if self.graph.add_edge(u, v):
                new_edges.append((u, v))
        self.node_cursor, self.edge_cursor = node_hi, edge_hi
        return tuple(new_nodes), tuple(new_edges)


def dict_replay(stream: EventStream, time: float = float("inf")) -> GraphSnapshot:
    """The dict-of-sets graph after every event with ``time <= time``."""
    replay = DictReplay(stream)
    replay.advance_to(time)
    return replay.graph


def snapshot_of(csr: CSRGraph) -> GraphSnapshot:
    """The dict-of-sets graph of ``csr``, nodes in position order."""
    ids = csr.node_ids
    rows = np.repeat(np.arange(csr.num_nodes), csr.degrees)
    upper = rows < csr.indices
    edges = zip(ids[rows[upper]].tolist(), ids[csr.indices[upper]].tolist(), strict=True)
    return GraphSnapshot.from_edges(edges, nodes=ids.tolist())


def csr_of(edges, nodes=()) -> CSRGraph:
    """CSR of the graph with these edges (plus optional isolated nodes)."""
    return CSRGraph.from_snapshot(GraphSnapshot.from_edges(edges, nodes=nodes))


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    """Equal node order, rows and edge count."""
    assert np.array_equal(got.node_ids, want.node_ids)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.num_edges == want.num_edges
