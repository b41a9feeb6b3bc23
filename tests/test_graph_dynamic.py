"""Tests for repro.graph.dynamic."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.runtime.parallel import evaluate_timeseries
from repro.runtime.spec import MetricSpec
from tests.oracles import DictReplay, assert_same_csr, from_snapshot, stream_prefix


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
        assert view.graph.node_ids.tolist() == [0, 1, 2]

    def test_advance_is_incremental(self):
        replay = DynamicGraph(make_stream())
        first = replay.advance_to(2.0)
        view = replay.advance_to(3.0)
        assert (replay.node_cursor, replay.edge_cursor) == (4, 2)
        assert view.graph.node_ids.tolist() == [0, 1, 2, 3]
        assert view.graph.num_edges == 2
        assert first.graph.num_edges == 1  # an earlier view is not mutated

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
        assert view.graph.degrees.tolist() == [1, 1]


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
        views = list(DynamicGraph(tiny_stream).snapshots(interval=10.0))
        edges = [view.graph.num_edges for view in views]
        assert edges == sorted(edges)
        final = views[-1].graph
        assert final.num_nodes == tiny_stream.num_nodes
        assert final.num_edges == tiny_stream.num_edges


# -- prefix builder vs the per-event dict replay -----------------------------


@st.composite
def streams(draw) -> EventStream:
    """Small streams with repeated nodes and edges, late or missing
    endpoints, self-loops and trailing isolated nodes."""
    ids = draw(st.lists(st.integers(0, 12), max_size=12))
    node_times = sorted(draw(st.lists(st.integers(0, 10), min_size=len(ids), max_size=len(ids))))
    missing = [99] if draw(st.booleans()) else []
    pool = [*ids, *missing] or [0]
    endpoint = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    if not draw(st.booleans()):
        pairs = [(u, v) for u, v in pairs if u != v]
    edge_times = sorted(
        draw(st.lists(st.integers(0, 10), min_size=len(pairs), max_size=len(pairs)))
    )
    return EventStream.from_records(
        nodes=[(float(t), node) for t, node in zip(node_times, ids, strict=True)],
        edges=[(float(t), u, v) for t, (u, v) in zip(edge_times, pairs, strict=True)],
    )


@settings(max_examples=300, deadline=None)
@given(
    stream=streams(),
    times=st.lists(st.integers(-2, 24).map(lambda t: t / 2.0), max_size=6).map(sorted),
    resume_at=st.integers(0, 5),
)
def test_prefix_builder_matches_dict_replay(stream, times, resume_at):
    """Every view equals the dict replay's, errors included, fresh or windowed.

    From the advance at ``resume_at`` on, a second replay over only the
    stream prefix up to the last time joins in, as a parallel window does,
    and must agree from then on.
    """
    oracle = DictReplay(stream)
    replays = [DynamicGraph(stream)]
    for step, time in enumerate(times):
        if step == resume_at:
            replays.append(DynamicGraph(stream_prefix(stream, times[-1])))
        try:
            oracle.advance_to(time)
        except (KeyError, ValueError) as exc:
            for replay in replays:
                with pytest.raises(type(exc)) as raised:
                    replay.advance_to(time)
                assert raised.value.args == exc.args
            return
        views = [replay.advance_to(time).graph for replay in replays]
        for view in views:
            assert_same_csr(view, from_snapshot(oracle.graph))
        assert_same_csr(views[-1], views[0])  # the arrivals too


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
        assert 4 not in view.graph.node_ids


class TestReplayErrors:
    def test_self_loop_raises_once_included(self):
        stream = EventStream.from_records(nodes=[(0.0, 0)], edges=[(2.0, 0, 0)])
        replay = DynamicGraph(stream)
        assert replay.advance_to(1.0).graph.num_nodes == 1
        with pytest.raises(ValueError, match="self-loop"):
            replay.advance_to(2.0)

    def test_endpoint_not_yet_arrived_raises(self):
        stream = EventStream.from_records(nodes=[(0.0, 0), (3.0, 1)], edges=[(1.0, 0, 1)])
        with pytest.raises(KeyError):
            DynamicGraph(stream).advance_to(2.0)
        # Applied together with the node's arrival, the edge is fine.
        assert DynamicGraph(stream).advance_to(3.0).graph.num_edges == 1

    def test_empty_prefix(self):
        view = DynamicGraph(make_stream()).advance_to(-1.0)
        assert view.graph.num_nodes == view.graph.num_edges == 0
        assert view.graph.indptr.tolist() == [0]


# -- generated replays vs the per-event dict replay --------------------------
#
# 2 trace shapes x 5 seeds x 3 window starts = 30 replays.  Case ``c{n}``
# starts a window at the first snapshot holding at least n edges: 8 is the
# first few windows, 64 a little later, 4096 late in the merge traces and
# the middle window of the plain ones, which never reach it.

_WINDOW_EDGES = (8, 64, 4096)
_SEEDS = (0, 1, 2, 3, 4)
CASES = [
    (kind, seed, edges)
    for kind in ("tiny", "tiny_merge")
    for seed in _SEEDS
    for edges in _WINDOW_EDGES
]
CASE_IDS = [f"{kind}-s{seed}-c{edges}" for kind, seed, edges in CASES]

_INTERVALS = {"tiny": 6.0, "tiny_merge": 8.0}


@functools.lru_cache(maxsize=None)
def _stream(kind: str, seed: int) -> EventStream:
    if kind == "tiny":
        cfg = presets.tiny(days=45.0, target_nodes=420)
    else:
        cfg = presets.tiny_merge(days=60.0, target_nodes=650)
    return generate_trace(cfg, seed=seed)


@pytest.mark.parametrize(("kind", "seed", "edges"), CASES, ids=CASE_IDS)
def test_replay_csr_matches_batch_build(kind: str, seed: int, edges: int) -> None:
    """The replay's CSR == dict replay + from_snapshot.

    Checked on a fresh replay at every snapshot, and on a window that starts
    at step ``c``, ends halfway to the last snapshot and replays only the
    stream prefix up to its end, as a parallel worker runs it: every field
    equals the fresh replay's, ``arrival`` included.
    """
    stream = _stream(kind, seed)
    replay, oracle = DynamicGraph(stream), DictReplay(stream)
    views = []
    for view in replay.snapshots(interval=_INTERVALS[kind]):
        oracle.advance_to(view.time)
        assert_same_csr(view.graph, from_snapshot(oracle.graph))
        views.append(view)
    step = next(
        (i for i, view in enumerate(views) if view.graph.num_edges >= edges), len(views) // 2
    )
    window = views[step : (step + len(views)) // 2 + 1]
    windowed = DynamicGraph(stream_prefix(stream, window[-1].time))
    for view in window:
        got = windowed.advance_to(view.time).graph
        assert got.arrival is not None
        assert_same_csr(got, view.graph)


@pytest.mark.parametrize("kind", ["tiny", "tiny_merge"])
def test_timeseries_serial_matches_workers(kind: str) -> None:
    """A serial timeseries == the same one over two windows."""
    stream = _stream(kind, 0)
    spec = MetricSpec(path_sample=60, clustering_sample=80, seed=3)
    serial = evaluate_timeseries(stream, spec, interval=_INTERVALS[kind])
    parallel = evaluate_timeseries(stream, spec, interval=_INTERVALS[kind], workers=2)
    assert len(serial.times) > 2
    assert repr((parallel.times, parallel.values)) == repr((serial.times, serial.values))
