"""Per-event oracles the array implementations are pinned against.

:class:`DictReplay` applies a stream's events one by one to a
:class:`~repro.graph.snapshot.GraphSnapshot`, exactly as the replayer did
before snapshots became CSR arrays.  Parity tests compare
``CSRGraph.from_snapshot`` of its graph with the replay's own.

:func:`pe_checkpoints_reference` is the per-edge pe(d) replay that
``EdgeProbabilityTracker.process`` computes in closed form.
"""

from __future__ import annotations

import numpy as np

from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker, PeCheckpoint


class DictReplay:
    """Per-event replay: each advance adds its node arrivals, then its edges."""

    def __init__(self, stream: EventStream, graph: GraphSnapshot | None = None) -> None:
        self.stream = stream
        self.graph = GraphSnapshot() if graph is None else graph
        self.node_cursor = 0
        self.edge_cursor = 0

    def advance_to(self, time: float) -> None:
        """Apply the events with ``event.time <= time``."""
        nodes, edges = self.stream.nodes, self.stream.edges
        node_hi = max(self.node_cursor, int(np.searchsorted(nodes.time, time, side="right")))
        edge_hi = max(self.edge_cursor, int(np.searchsorted(edges.time, time, side="right")))
        for node in nodes.node[self.node_cursor : node_hi].tolist():
            self.graph.add_node(node)
        lo = self.edge_cursor
        for u, v in zip(edges.u[lo:edge_hi].tolist(), edges.v[lo:edge_hi].tolist(), strict=True):
            self.graph.add_edge(u, v)
        self.node_cursor, self.edge_cursor = node_hi, edge_hi


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


def pe_checkpoints_reference(
    tracker: EdgeProbabilityTracker,
    stream: EventStream,
    checkpoint_every: int = 5000,
    min_edges: int = 0,
) -> list[PeCheckpoint]:
    """Replay ``stream`` edge by edge with ``tracker``'s settings and generator."""
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    size = tracker.max_degree + 1
    degree = dict.fromkeys(stream.nodes.node.tolist(), 0)
    degree_count = np.zeros(size, dtype=np.int64)
    numerator = np.zeros(size, dtype=np.float64)
    denominator = np.zeros(size, dtype=np.float64)
    # Nodes exist from their arrival; replay interleaves arrivals and
    # edges chronologically so degree-0 counts are correct.
    checkpoints: list[PeCheckpoint] = []
    edges_seen = 0
    edges = stream.edges
    born_by_edge = np.searchsorted(stream.nodes.time, edges.time, side="right").tolist()
    arrived = 0
    for t, u, v, n_born in zip(
        edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), born_by_edge, strict=True
    ):
        if n_born > arrived:
            degree_count[0] += n_born - arrived
            arrived = n_born
        dest_degree = _destination_degree(tracker, degree[u], degree[v])
        d = min(dest_degree, tracker.max_degree)
        numerator[d] += 1
        denominator += degree_count
        _bump(tracker, degree, degree_count, u)
        _bump(tracker, degree, degree_count, v)
        edges_seen += 1
        if edges_seen % checkpoint_every == 0 and edges_seen >= min_edges:
            node_count = int(degree_count.sum())
            checkpoints.append(
                tracker._checkpoint(edges_seen, t, numerator, denominator, node_count)
            )
            if tracker.mode == "window":
                numerator[:] = 0
                denominator[:] = 0
    return checkpoints


def _destination_degree(tracker: EdgeProbabilityTracker, du: int, dv: int) -> int:
    if tracker.rule is DestinationRule.HIGHER_DEGREE:
        return max(du, dv)
    return du if tracker._rng.random() < 0.5 else dv


def _bump(
    tracker: EdgeProbabilityTracker, degree: dict[int, int], degree_count: np.ndarray, node: int
) -> None:
    d = degree[node]
    capped = min(d, tracker.max_degree)
    degree_count[capped] -= 1
    degree[node] = d + 1
    degree_count[min(d + 1, tracker.max_degree)] += 1
