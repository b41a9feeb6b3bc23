"""Tests for repro.graph.dynamic."""

import pytest

from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream


def make_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(float(i), i) for i in range(5)],
        edges=[
            (1.5, 0, 1),
            (2.5, 1, 2),
            (3.5, 2, 3),
            (4.5, 3, 4),
        ],
    )


class TestAdvance:
    def test_advance_applies_events_up_to_time(self):
        replay = DynamicGraph(make_stream())
        view = replay.advance_to(2.0)
        assert view.graph.num_nodes == 3
        assert view.graph.num_edges == 1
        assert view.new_nodes == (0, 1, 2)
        assert view.new_edges == ((0, 1),)

    def test_advance_is_incremental(self):
        replay = DynamicGraph(make_stream())
        replay.advance_to(2.0)
        view = replay.advance_to(3.0)
        assert view.new_nodes == (3,)
        assert view.new_edges == ((1, 2),)

    def test_time_cursor(self):
        replay = DynamicGraph(make_stream())
        assert replay.time_cursor == 0.0
        replay.advance_to(2.6)
        assert replay.time_cursor == 2.5

    def test_final(self):
        graph = DynamicGraph(make_stream()).final()
        assert graph.num_nodes == 5
        assert graph.num_edges == 4

    def test_exhausted(self):
        replay = DynamicGraph(make_stream())
        assert not replay.exhausted
        replay.final()
        assert replay.exhausted

    def test_duplicate_edges_in_stream_counted_once(self):
        stream = EventStream.from_records(
            nodes=[(0.0, 0), (0.0, 1)],
            edges=[(1.0, 0, 1), (2.0, 1, 0)],
        )
        replay = DynamicGraph(stream)
        view = replay.advance_to(10.0)
        assert view.graph.num_edges == 1
        assert view.new_edges == ((0, 1),)


class TestSnapshots:
    def test_covers_full_range(self):
        views = list(DynamicGraph(make_stream()).snapshots(interval=1.0))
        assert views[-1].time == pytest.approx(4.5)
        assert views[-1].graph.num_edges == 4

    def test_counts_monotone(self):
        replay = DynamicGraph(make_stream())
        sizes = [v.graph.num_edges for v in replay.snapshots(interval=1.0)]
        assert sizes == sorted(sizes)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            list(DynamicGraph(make_stream()).snapshots(interval=0.0))

    def test_explicit_window(self):
        views = list(DynamicGraph(make_stream()).snapshots(interval=1.0, start=2.0, end=4.0))
        assert views[0].time == 2.0
        assert views[-1].time == 4.0

    def test_generated_trace_replay_consistent(self, tiny_stream):
        final = DynamicGraph(tiny_stream).final()
        assert final.num_nodes == tiny_stream.num_nodes
        assert final.num_edges == tiny_stream.num_edges
