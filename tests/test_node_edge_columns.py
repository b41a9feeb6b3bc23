"""Node edge-time columns and the Figure 2, 7 and 8 drivers that read them.

Every column driver is pinned byte for byte (``tobytes()`` / ``float.hex``)
against the per-node loop it replaced, kept in :mod:`tests.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fig7 import scaled_size_buckets
from repro.community.impact import (
    SIZE_BUCKETS_PAPER,
    CommunityMembership,
    in_degree_ratio_by_size,
    interarrival_by_membership,
    lifetime_by_community_size,
    membership_of,
)
from repro.edges.interarrival import (
    AGE_BUCKETS_PAPER,
    collect_interarrivals_by_age,
    node_edge_times,
    scaled_age_buckets,
)
from repro.edges.lifetime import _uniform_bin_index, edge_creation_over_lifetime, node_lifetimes
from repro.edges.node_age import minimal_age_fractions
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream, NodeEdgeColumns
from repro.osnmerge.activity import _mean_gaps, active_users_over_time, activity_threshold
from repro.osnmerge.classify import classify_edges
from repro.osnmerge.edge_rates import edges_per_day_by_type
from tests import oracles

#: (config, seed) of every generated trace the parity tests run on: the
#: perfbench ``figures`` trace at two seeds and ``presets.small``.
TRACES = {
    "figures-1": (presets.small(target_nodes=2500), 1),
    "figures-3": (presets.small(target_nodes=2500), 3),
    "small-7": (presets.small(), 7),
}


def assert_same(got, want, where="result"):
    """Equal structure, dict key order, dtypes, shapes and bytes."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex(), where
    else:
        assert got == want, where


def fields(record):
    """A dataclass's fields as a tuple, for :func:`assert_same`."""
    return tuple(getattr(record, name) for name in record.__dataclass_fields__)


@pytest.fixture(scope="module", params=[*TRACES, "tiny", "tiny-merge"])
def traced(request, tiny_stream, merge_stream):
    """``(name, days, merge_day or None, stream)`` of one parity trace."""
    if request.param == "tiny":
        return "tiny", presets.tiny().days, None, tiny_stream
    if request.param == "tiny-merge":
        config = presets.tiny_merge()
        return "tiny-merge", config.days, float(int(config.merge.merge_day)), merge_stream
    config, seed = TRACES[request.param]
    stream = generate_trace(config, seed=seed)
    return request.param, config.days, float(int(config.merge.merge_day)), stream


def fresh(stream: EventStream) -> EventStream:
    """The same events without cached columns."""
    return EventStream(nodes=stream.nodes, edges=stream.edges)


def synthetic_membership(stream: EventStream, seed: int = 0) -> CommunityMembership:
    """Random communities over about 70% of the nodes, sized on bucket bounds."""
    rng = np.random.default_rng(seed)
    nodes = stream.nodes.node
    chosen = nodes[rng.random(nodes.size) < 0.7].tolist()
    lineage = rng.integers(0, 12, size=len(chosen)).tolist()
    sizes = [10, 25, 60, 100, 200, 1_000, 9, 5_000, 100_000, 61, 24, 150]
    return CommunityMembership(
        community_of=dict(zip(chosen, lineage, strict=True)),
        size_of=dict(enumerate(sizes)),
    )


class TestColumns:
    def test_rows_follow_first_appearance_u_before_v(self):
        stream = EventStream.from_records(
            nodes=[(0.0, 5), (0.0, 3), (0.0, 9), (1.0, 7)],
            edges=[(1.0, 9, 3), (2.0, 5, 9), (2.0, 7, 5), (4.0, 3, 7)],
        )
        columns = stream.node_edge_columns()
        assert columns.node.tolist() == [9, 3, 5, 7]
        assert columns.indptr.tolist() == [0, 2, 4, 6, 8]
        assert columns.time.tolist() == [1.0, 2.0, 1.0, 4.0, 2.0, 2.0, 2.0, 4.0]
        assert columns.edge.tolist() == [0, 1, 0, 3, 1, 2, 2, 3]
        assert columns.born.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert columns.slot.tolist() == [2, 1, 0, 3]
        assert columns.ends.tolist() == [[2, 1], [0, 2], [3, 0], [1, 3]]
        assert columns.degree().tolist() == [2, 2, 2, 2]
        gaps, closing = columns.gaps()
        assert gaps.tolist() == [1.0, 3.0, 0.0, 2.0]
        assert closing.tolist() == [1, 3, 5, 7]

    def test_built_once_and_ignored_by_equality(self, tiny_stream):
        stream = fresh(tiny_stream)
        assert stream.node_edge_columns() is stream.node_edge_columns()
        assert stream == fresh(tiny_stream)
        assert "_node_edges" not in repr(stream)

    def test_empty_stream(self):
        columns = EventStream().node_edge_columns()
        assert len(columns) == 0 and columns.indptr.tolist() == [0]
        assert columns.ends.shape == (0, 2)

    def test_nodes_without_edges_have_no_row(self):
        stream = EventStream.from_records(nodes=[(0.0, 1), (0.0, 2), (0.0, 3)], edges=[(1.0, 3, 1)])
        assert stream.node_edge_columns().node.tolist() == [3, 1]

    @pytest.mark.parametrize("nodes", [[(0.0, 1)], []])
    def test_unknown_endpoint_raises(self, nodes):
        stream = EventStream.from_records(nodes=nodes, edges=[(1.0, 1, 2)])
        with pytest.raises(ValueError, match="has no node arrival"):
            NodeEdgeColumns.build(stream.nodes, stream.edges)

    def test_dict_view_matches_reference(self, traced):
        _, _, _, stream = traced
        assert node_edge_times(stream) == oracles.node_edge_times_reference(stream)
        assert list(node_edge_times(stream)) == list(oracles.node_edge_times_reference(stream))


class TestFigure2Parity:
    def test_interarrivals_by_age(self, traced):
        _, days, _, stream = traced
        for buckets in (scaled_age_buckets(days), AGE_BUCKETS_PAPER, scaled_age_buckets(days, 6)):
            assert_same(
                collect_interarrivals_by_age(stream, buckets),
                oracles.collect_interarrivals_by_age_reference(stream, buckets),
            )

    @pytest.mark.parametrize(
        "options",
        [
            {"bins": 10, "min_history_days": 10.0, "min_degree": 10},
            {},
            {"bins": 7, "min_history_days": 0.0, "min_degree": 1},
        ],
    )
    def test_edge_creation_over_lifetime(self, traced, options):
        _, _, _, stream = traced
        assert_same(
            edge_creation_over_lifetime(stream, **options),
            oracles.edge_creation_over_lifetime_reference(stream, **options),
        )

    def test_minimal_age_fractions(self, traced):
        _, days, _, stream = traced
        scale = days / 771.0
        thresholds = (max(1.0, round(scale)), max(2.0, round(10 * scale)), 30.0)
        assert_same(
            minimal_age_fractions(stream, thresholds),
            oracles.minimal_age_fractions_reference(stream, thresholds),
        )

    def test_node_lifetimes(self, traced):
        _, _, _, stream = traced
        got, want = node_lifetimes(stream), oracles.node_lifetimes_reference(stream)
        assert list(got) == list(want)
        for node, record in want.items():
            assert_same(fields(got[node]), fields(record))


class TestFigure7Parity:
    def test_interarrival_by_membership(self, traced):
        _, _, _, stream = traced
        membership = synthetic_membership(stream)
        assert_same(
            interarrival_by_membership(stream, membership),
            oracles.interarrival_by_membership_reference(stream, membership),
        )

    def test_lifetime_by_community_size(self, traced):
        _, _, _, stream = traced
        membership = synthetic_membership(stream, seed=1)
        for buckets in (SIZE_BUCKETS_PAPER, scaled_size_buckets(stream.num_nodes)):
            assert_same(
                lifetime_by_community_size(stream, membership, buckets),
                oracles.lifetime_by_community_size_reference(stream, membership, buckets),
            )

    def test_in_degree_ratio_by_size(self, traced):
        _, _, _, stream = traced
        graph = DynamicGraph(stream).final()
        membership = synthetic_membership(stream, seed=2)
        for buckets in (SIZE_BUCKETS_PAPER, scaled_size_buckets(stream.num_nodes)):
            assert_same(
                in_degree_ratio_by_size(graph, membership, buckets),
                oracles.in_degree_ratio_by_size_reference(graph, membership, buckets),
            )

    def test_tracked_membership(self, tiny_stream, tiny_tracker):
        membership = membership_of(tiny_tracker.snapshots[-1])
        buckets = scaled_size_buckets(tiny_stream.num_nodes)
        assert_same(
            interarrival_by_membership(tiny_stream, membership),
            oracles.interarrival_by_membership_reference(tiny_stream, membership),
        )
        assert_same(
            lifetime_by_community_size(tiny_stream, membership, buckets),
            oracles.lifetime_by_community_size_reference(tiny_stream, membership, buckets),
        )
        graph = DynamicGraph(tiny_stream).final()
        assert_same(
            in_degree_ratio_by_size(graph, membership, buckets),
            oracles.in_degree_ratio_by_size_reference(graph, membership, buckets),
        )

    def test_empty_membership(self, tiny_stream):
        membership = CommunityMembership(community_of={}, size_of={})
        assert_same(
            lifetime_by_community_size(tiny_stream, membership),
            oracles.lifetime_by_community_size_reference(tiny_stream, membership),
        )


class TestFigure8Parity:
    @pytest.mark.parametrize("quantile", [0.5, 0.99])
    def test_activity_threshold(self, traced, quantile):
        _, _, _, stream = traced
        assert_same(
            activity_threshold(stream, quantile),
            oracles.activity_threshold_reference(stream, quantile),
        )

    def test_classify_edges(self, traced):
        _, _, merge_day, stream = traced
        if merge_day is None:
            pytest.skip("single-network trace")
        for organic_after in (None, merge_day, 0.0):
            assert_same(
                classify_edges(stream, merge_day, organic_after),
                oracles.classify_edges_reference(stream, merge_day, organic_after),
            )

    def test_edges_per_day_by_type(self, traced):
        _, _, merge_day, stream = traced
        if merge_day is None:
            pytest.skip("single-network trace")
        assert_same(
            fields(edges_per_day_by_type(stream, merge_day)),
            fields(oracles.edges_per_day_by_type_reference(stream, merge_day)),
        )

    @pytest.mark.parametrize("origin", ["xiaonei", "fivq"])
    def test_active_users_over_time(self, traced, origin):
        _, _, merge_day, stream = traced
        if merge_day is None:
            pytest.skip("single-network trace")
        cap = max(1.0, (stream.end_time - merge_day) / 4.0)
        for threshold in (min(activity_threshold(stream), cap), cap / 3.0, 1.0, 2.5):
            want = oracles.active_users_over_time_reference(stream, merge_day, origin, threshold)
            got = active_users_over_time(stream, merge_day, origin, threshold)
            assert_same(fields(got), fields(want))


def hub_stream(hubs: list[tuple[float, list[float]]]) -> EventStream:
    """Hubs born at given times, each linking to fresh leaves at given times.

    Leaves are born at 0; every edge joins one hub to its own leaf.
    """
    edges, leaves = [], []
    leaf = len(hubs)
    for hub, (_, times) in enumerate(hubs):
        for time in times:
            edges.append((time, hub, leaf))
            leaves.append((0.0, leaf))
            leaf += 1
    edges.sort(key=lambda edge: edge[0])
    nodes = sorted([(born, hub) for hub, (born, _) in enumerate(hubs)] + leaves)
    stream = EventStream.from_records(nodes=nodes, edges=edges)
    stream.validate()
    return stream


class TestHistogramRule:
    """``np.histogram``'s uniform bins, at and around the bin edges."""

    def test_values_on_linspace_edges(self):
        # Born at 0, span 10: normalized times land on 0.1, 0.3, 0.7 and 1.0.
        on_edges = [1.0, 3.0, 7.0, 10.0]
        spans = [(0.0, on_edges), (2.0, [2.0 + t for t in on_edges]), (0.5, [3.5, 5.5, 7.5])]
        stream = hub_stream(spans + [(1.0, [1.0 + 0.1 * k * 7.3 for k in range(11)])])
        for bins in (10, 3, 7, 1):
            assert_same(
                edge_creation_over_lifetime(stream, bins, min_history_days=0.0, min_degree=1),
                oracles.edge_creation_over_lifetime_reference(
                    stream, bins, min_history_days=0.0, min_degree=1
                ),
            )

    @pytest.mark.parametrize("bins", [1, 3, 7, 10, 13, 100])
    def test_bin_index_matches_numpy(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, 2.0),
                np.nextafter(edges, -1.0),
                np.array([0.1, 0.3, 0.7, 0.9, 1.0, 0.0]),
                np.random.default_rng(bins).random(500),
            ]
        )
        values = np.clip(values, 0.0, 1.0)
        for value in values.tolist():
            want, _ = np.histogram([value], bins=bins, range=(0.0, 1.0))
            index = _uniform_bin_index(np.array([value]), bins)
            assert int(np.argmax(want)) == int(index[0]), float(value).hex()


class TestMeanRule:
    """Row means of 2-D gathers equal ``np.mean`` of each node's gaps.

    ``np.add`` sums under 8 items in order, 8 to 128 with eight
    accumulators, and above 128 by splitting the array in halves.
    """

    COUNTS = (1, 2, 5, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 130, 255, 256, 300, 517)

    def test_each_regime(self):
        rng = np.random.default_rng(3)
        hubs = [
            (0.0, np.cumsum(rng.exponential(rng.uniform(0.01, 5.0), n + 1), dtype=float).tolist())
            for n in self.COUNTS
            for _ in range(3)
        ]
        stream = hub_stream(hubs)
        got = _mean_gaps(stream)
        times = oracles.node_edge_times_reference(stream)
        want = [float(np.mean(np.diff(t))) for t in times.values() if len(t) >= 2]
        assert [float(m).hex() for m in got.tolist()] == [m.hex() for m in want]
        counts = {len(t) - 1 for t in times.values() if len(t) >= 2}
        assert set(self.COUNTS) <= counts
        for quantile in (0.5, 0.9, 0.99):
            assert_same(
                activity_threshold(stream, quantile),
                oracles.activity_threshold_reference(stream, quantile),
            )

    def test_no_user_with_two_edges_raises(self):
        stream = hub_stream([(0.0, [1.0])])
        with pytest.raises(ValueError, match="two or more edges"):
            activity_threshold(stream)
