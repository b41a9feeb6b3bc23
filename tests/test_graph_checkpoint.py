"""Tests for repro.graph.checkpoint and the DynamicGraph checkpoint API."""

import numpy as np
import pytest

from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from tests.oracles import GraphSnapshot, assert_same_csr, from_snapshot


def make_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(float(i), i) for i in range(6)],
        edges=[
            (1.5, 0, 1),
            (2.5, 1, 2),
            (3.5, 2, 3),
            (4.5, 3, 4),
            (5.5, 4, 5),
            (5.75, 0, 5),
        ],
    )


def roundtrip(graph: GraphSnapshot) -> CSRGraph:
    """Resume a replay from ``graph``'s CSR and let it index the graph.

    The resumed stream adds one isolated node, which forces the replay to
    build its index from the checkpoint graph; the graph it returns is the
    final snapshot minus that node.
    """
    extra = max(graph.nodes(), default=-1) + 1
    checkpoint = ReplayCheckpoint(
        time=0.0, node_index=0, edge_index=0, csr=from_snapshot(graph)
    )
    stream = EventStream.from_records(nodes=[(0.0, extra)])
    final = DynamicGraph.from_checkpoint(stream, checkpoint).final()
    assert final.node_ids[-1] == extra and final.degrees[-1] == 0
    return CSRGraph(
        node_ids=final.node_ids[:-1],
        indptr=final.indptr[:-1],
        indices=final.indices,
        num_edges=final.num_edges,
    )


class TestCSRAdjacency:
    """The checkpoint's frozen graph (a CSRGraph) resumes exactly."""

    def test_roundtrip_preserves_structure(self, tiny_graph):
        assert_same_csr(roundtrip(tiny_graph), from_snapshot(tiny_graph))

    def test_roundtrip_preserves_node_order(self, tiny_graph):
        assert roundtrip(tiny_graph).node_ids.tolist() == list(tiny_graph.nodes())

    def test_restored_graph_is_independent(self):
        base = from_snapshot(GraphSnapshot.from_edges([(0, 1), (1, 2)]))
        arrays = (base.node_ids.copy(), base.indptr.copy(), base.indices.copy())
        checkpoint = ReplayCheckpoint(time=0.0, node_index=0, edge_index=0, csr=base)
        stream = EventStream.from_records(nodes=[(1.0, 3)], edges=[(1.0, 2, 3)])
        final = DynamicGraph.from_checkpoint(stream, checkpoint).final()
        assert final.num_edges == 3
        assert base.num_edges == 2
        for before, after in zip(arrays, (base.node_ids, base.indptr, base.indices), strict=True):
            assert np.array_equal(before, after)

    def test_empty_graph(self):
        csr = from_snapshot(GraphSnapshot())
        assert csr.num_nodes == 0
        restored = roundtrip(GraphSnapshot())
        assert restored.num_nodes == 0
        assert restored.num_edges == 0

    def test_isolated_nodes_survive(self):
        graph = GraphSnapshot.from_edges([(0, 1)], nodes=[7, 9])
        restored = roundtrip(graph)
        assert set(restored.node_ids.tolist()) == {0, 1, 7, 9}
        assert restored.degrees[restored.positions_of(np.array([7]))[0]] == 0


class TestReplayCheckpoint:
    def test_resume_matches_uninterrupted_replay(self):
        baseline = DynamicGraph(make_stream()).final()
        replay = DynamicGraph(make_stream())
        replay.advance_to(3.0)
        resumed = DynamicGraph.from_checkpoint(make_stream(), replay.checkpoint())
        assert_same_csr(resumed.final(), baseline)

    def test_resume_emits_only_remaining_events(self):
        replay = DynamicGraph(make_stream())
        replay.advance_to(3.0)
        resumed = DynamicGraph.from_checkpoint(make_stream(), replay.checkpoint())
        assert (resumed.node_cursor, resumed.edge_cursor) == (4, 2)
        view = resumed.advance_to(10.0)
        assert (resumed.node_cursor, resumed.edge_cursor) == (6, 6)
        assert view.graph.node_ids.tolist() == [0, 1, 2, 3, 4, 5]
        assert view.graph.num_edges == 6

    def test_time_cursor_restored(self):
        replay = DynamicGraph(make_stream())
        replay.advance_to(3.0)
        resumed = DynamicGraph.from_checkpoint(make_stream(), replay.checkpoint())
        assert resumed.time_cursor == replay.time_cursor

    def test_checkpoint_on_generated_trace(self, tiny_stream):
        replay = DynamicGraph(tiny_stream)
        mid = tiny_stream.end_time / 2.0
        replay.advance_to(mid)
        resumed = DynamicGraph.from_checkpoint(tiny_stream, replay.checkpoint())
        assert_same_csr(resumed.final(), DynamicGraph(tiny_stream).final())

    def test_out_of_range_cursor_rejected(self):
        stream = make_stream()
        replay = DynamicGraph(stream)
        replay.final()
        checkpoint = replay.checkpoint()
        with pytest.raises(ValueError):
            DynamicGraph.from_checkpoint(EventStream(), checkpoint)

    def test_checkpoint_is_frozen(self):
        replay = DynamicGraph(make_stream())
        replay.advance_to(2.0)
        chk = replay.checkpoint()
        assert isinstance(chk, ReplayCheckpoint)
        with pytest.raises(AttributeError):
            chk.time = 99.0


class TestMaterialize:
    def test_retained_view_no_longer_mutates_under_replay(self):
        """Regression: views used to alias the replayer's live graph.

        A view now holds an immutable CSR, so retaining one needs no copy.
        """
        replay = DynamicGraph(make_stream())
        view = replay.advance_to(2.0)
        nodes_then = view.graph.num_nodes
        edges_then = view.graph.num_edges
        final = replay.final()
        assert final.num_nodes > nodes_then
        assert view.graph.num_nodes == nodes_then
        assert view.graph.num_edges == edges_then
        assert 5 not in view.graph.node_ids
