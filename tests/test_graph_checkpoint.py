"""Tests for repro.graph.checkpoint and the DynamicGraph checkpoint API."""

import pytest

from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph


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


def roundtrip(graph: GraphSnapshot) -> GraphSnapshot:
    """Freeze ``graph`` into a checkpoint's CSRGraph and restore it."""
    checkpoint = ReplayCheckpoint(
        time=0.0, node_index=0, edge_index=0, csr=CSRGraph.from_snapshot(graph)
    )
    return checkpoint.restore_graph()


class TestCSRAdjacency:
    """The checkpoint's frozen adjacency (a CSRGraph) restores exactly."""

    def test_roundtrip_preserves_structure(self, tiny_graph):
        restored = roundtrip(tiny_graph)
        assert restored.adjacency == tiny_graph.adjacency
        assert restored.num_edges == tiny_graph.num_edges

    def test_roundtrip_preserves_node_order(self, tiny_graph):
        restored = roundtrip(tiny_graph)
        assert list(restored.nodes()) == list(tiny_graph.nodes())

    def test_restored_graph_is_independent(self):
        graph = GraphSnapshot.from_edges([(0, 1), (1, 2)])
        restored = roundtrip(graph)
        graph.add_node(3)
        graph.add_edge(2, 3)
        assert 3 not in restored
        assert restored.num_edges == 2

    def test_empty_graph(self):
        csr = CSRGraph.from_snapshot(GraphSnapshot())
        assert csr.num_nodes == 0
        restored = roundtrip(GraphSnapshot())
        assert restored.num_nodes == 0
        assert restored.num_edges == 0

    def test_isolated_nodes_survive(self):
        graph = GraphSnapshot.from_edges([(0, 1)], nodes=[7, 9])
        restored = roundtrip(graph)
        assert set(restored.nodes()) == {0, 1, 7, 9}
        assert restored.degree(7) == 0


class TestReplayCheckpoint:
    def test_resume_matches_uninterrupted_replay(self):
        baseline = DynamicGraph(make_stream()).final()
        replay = DynamicGraph(make_stream())
        replay.advance_to(3.0)
        resumed = DynamicGraph.from_checkpoint(make_stream(), replay.checkpoint())
        final = resumed.final()
        assert final.adjacency == baseline.adjacency
        assert final.num_edges == baseline.num_edges

    def test_resume_emits_only_remaining_events(self):
        replay = DynamicGraph(make_stream())
        replay.advance_to(3.0)
        resumed = DynamicGraph.from_checkpoint(make_stream(), replay.checkpoint())
        view = resumed.advance_to(10.0)
        assert view.new_nodes == (4, 5)
        assert view.new_edges == ((2, 3), (3, 4), (4, 5), (0, 5))

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
        assert resumed.final().adjacency == DynamicGraph(tiny_stream).final().adjacency

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
        """Regression: the documented aliasing hazard of SnapshotView."""
        replay = DynamicGraph(make_stream())
        live = replay.advance_to(2.0)
        frozen = live.materialize()
        nodes_then = frozen.graph.num_nodes
        edges_then = frozen.graph.num_edges
        replay.final()
        # The live view aliases the replayer's graph and has mutated ...
        assert live.graph.num_nodes > nodes_then
        # ... but the materialized view is stable.
        assert frozen.graph.num_nodes == nodes_then
        assert frozen.graph.num_edges == edges_then
        assert 5 not in frozen.graph

    def test_materialize_preserves_view_fields(self):
        replay = DynamicGraph(make_stream())
        view = replay.advance_to(2.0)
        frozen = view.materialize()
        assert frozen.time == view.time
        assert frozen.new_nodes == view.new_nodes
        assert frozen.new_edges == view.new_edges
        assert frozen.graph.adjacency == view.graph.adjacency
