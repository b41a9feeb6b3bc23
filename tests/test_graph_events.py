"""Tests for repro.graph.events."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.events import EventStream


def make_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(0.0, 0), (0.5, 1), (2.0, 2, "fivq")],
        edges=[(1.0, 0, 1), (2.5, 2, 0)],
    )


class TestEventStreamBasics:
    def test_counts(self):
        s = make_stream()
        assert s.num_nodes == 3
        assert s.num_edges == 2

    def test_end_time(self):
        assert make_stream().end_time == 2.5

    def test_end_time_empty(self):
        assert EventStream().end_time == 0.0

    def test_node_arrival_times(self):
        assert make_stream().node_arrival_times() == {0: 0.0, 1: 0.5, 2: 2.0}

    def test_node_origins(self):
        origins = make_stream().node_origins()
        assert origins[2] == "fivq"
        assert origins[0] == "xiaonei"


class TestSliceAndFilter:
    def test_slice(self):
        sub = make_stream().slice(0.5, 2.0)
        assert sub.nodes.node.tolist() == [1, 2]
        assert len(sub.edges) == 1

    def test_slice_boundaries_inclusive(self):
        s = make_stream()
        sub = s.slice(1.0, 2.5)
        assert sub.edges.time.tolist() == [1.0, 2.5]
        assert sub.nodes.node.tolist() == [2]

    def test_slice_empty_window(self):
        sub = make_stream().slice(3.0, 9.0)
        assert sub.num_nodes == 0 and sub.num_edges == 0


class TestContentDigest:
    def test_stable_across_calls(self):
        s = make_stream()
        assert s.content_digest() == s.content_digest()

    def test_equal_streams_share_digest(self):
        assert make_stream().content_digest() == make_stream().content_digest()

    def test_sensitive_to_timestamp(self):
        a = make_stream()
        b = EventStream.from_records(
            nodes=[(0.001, 0), (0.5, 1), (2.0, 2, "fivq")], edges=[(1.0, 0, 1), (2.5, 2, 0)]
        )
        assert a.content_digest() != b.content_digest()

    def test_sensitive_to_origin_label(self):
        a = make_stream()
        b = EventStream.from_records(
            nodes=[(0.0, 0), (0.5, 1), (2.0, 2, "new")], edges=[(1.0, 0, 1), (2.5, 2, 0)]
        )
        assert a.content_digest() != b.content_digest()

    def test_stream_is_immutable(self):
        s = make_stream()
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.nodes = s.nodes  # type: ignore[misc]


class TestValidate:
    def test_valid_stream_passes(self):
        make_stream().validate()

    def test_unsorted_nodes(self):
        s = EventStream.from_records(nodes=[(1.0, 0), (0.0, 1)])
        with pytest.raises(ValueError, match="not sorted"):
            s.validate()

    def test_duplicate_node(self):
        s = EventStream.from_records(nodes=[(0.0, 0), (1.0, 0)])
        with pytest.raises(ValueError, match="duplicate node"):
            s.validate()

    def test_self_loop(self):
        s = EventStream.from_records(nodes=[(0.0, 0)], edges=[(1.0, 0, 0)])
        with pytest.raises(ValueError, match="self-loop"):
            s.validate()

    def test_duplicate_edge(self):
        s = EventStream.from_records(nodes=[(0.0, 0), (0.0, 1)], edges=[(1.0, 0, 1), (2.0, 1, 0)])
        with pytest.raises(ValueError, match="duplicate edge"):
            s.validate()

    def test_unknown_endpoint(self):
        s = EventStream.from_records(nodes=[(0.0, 0)], edges=[(1.0, 0, 7)])
        with pytest.raises(ValueError, match="unknown node"):
            s.validate()

    def test_edge_predates_node(self):
        s = EventStream.from_records(nodes=[(0.0, 0), (5.0, 1)], edges=[(1.0, 0, 1)])
        with pytest.raises(ValueError, match="predates"):
            s.validate()


def _per_event_violation(nodes, edges):
    """The first invariant violation, found by a plain per-event scan."""
    for label, rows in (("nodes", nodes), ("edges", edges)):
        for prev, cur in zip(rows, rows[1:]):
            if cur[0] < prev[0]:
                return f"{label} not sorted by time at t={cur[0]}"
    born = {}
    for t, node in nodes:
        if node in born:
            return f"duplicate node arrival for node {node}"
        born[node] = t
    seen = set()
    for t, u, v in edges:
        if u == v:
            return f"self-loop edge at time {t}: node {u}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {key} at time {t}"
        seen.add(key)
        for endpoint in key:
            if endpoint not in born:
                return f"edge {key} references unknown node {endpoint}"
            if born[endpoint] > t:
                return f"edge {key} at time {t} predates node {endpoint} (born {born[endpoint]})"
    return None


_times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])
_ids = st.integers(min_value=0, max_value=6)


class TestValidateMatchesPerEventScan:
    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.lists(st.tuples(_times, _ids), max_size=8),
        edges=st.lists(st.tuples(_times, _ids, _ids), max_size=8),
        sort=st.booleans(),
    )
    def test_same_verdict_and_message(self, nodes, edges, sort):
        if sort:  # mostly-valid streams reach the edge checks more often
            nodes = sorted(nodes, key=lambda r: r[0])
            edges = sorted(edges, key=lambda r: r[0])
        expected = _per_event_violation(nodes, edges)
        stream = EventStream.from_records(nodes, edges)
        if expected is None:
            stream.validate()
        else:
            with pytest.raises(ValueError) as excinfo:
                stream.validate()
            assert str(excinfo.value) == expected
