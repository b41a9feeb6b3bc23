"""Tests for the component kernels in repro.kernels.traversal and the dict BFS oracles."""

import pytest

from repro.kernels.traversal import connected_components_csr, largest_component_csr
from tests.oracles import (
    GraphSnapshot,
    bfs_distance_to_set,
    bfs_distances,
    connected_components_reference,
    from_snapshot,
    largest_component_reference,
    snapshot_of,
)


@pytest.fixture()
def path_graph(path_graph):
    return snapshot_of(path_graph)


@pytest.fixture()
def disjoint_graph() -> GraphSnapshot:
    g = GraphSnapshot.from_edges([(0, 1), (1, 2), (10, 11)], nodes=[99])
    return g


class TestComponents:
    def test_finds_all(self, disjoint_graph):
        comps = connected_components_csr(from_snapshot(disjoint_graph))
        assert sorted(len(c) for c in comps) == [1, 2, 3]

    def test_largest_first(self, disjoint_graph):
        comps = connected_components_csr(from_snapshot(disjoint_graph))
        assert len(comps[0]) == 3

    def test_largest_component(self, disjoint_graph):
        assert set(largest_component_csr(from_snapshot(disjoint_graph)).tolist()) == {0, 1, 2}

    def test_empty_graph(self):
        assert connected_components_csr(from_snapshot(GraphSnapshot())) == []
        assert set(largest_component_csr(from_snapshot(GraphSnapshot())).tolist()) == set()

    @pytest.mark.parametrize(
        "largest",
        [
            pytest.param(largest_component_reference, id="python"),
            pytest.param(lambda g: set(largest_component_csr(from_snapshot(g)).tolist()), id="csr"),
        ],
    )
    def test_largest_component_tie_breaks_by_smallest_member(self, largest):
        # Two size-3 components; insertion order puts the higher-id one
        # first, so traversal order alone would pick {10, 11, 12}.
        g = GraphSnapshot.from_edges([(10, 11), (11, 12), (4, 5), (5, 6)])
        assert largest(g) == {4, 5, 6}

    @pytest.mark.parametrize(
        "components",
        [
            pytest.param(connected_components_reference, id="python"),
            pytest.param(lambda g: connected_components_csr(from_snapshot(g)), id="csr"),
        ],
    )
    def test_component_order_deterministic_under_ties(self, components):
        g = GraphSnapshot.from_edges([(10, 11), (4, 5), (8, 9), (0, 1)])
        comps = components(g)
        assert comps == [{0, 1}, {4, 5}, {8, 9}, {10, 11}]


class TestBfsDistances:
    def test_path_graph(self, path_graph):
        assert bfs_distances(path_graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_cutoff(self, path_graph):
        dist = bfs_distances(path_graph, 0, cutoff=2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_unknown_source(self, path_graph):
        with pytest.raises(KeyError):
            bfs_distances(path_graph, 999)

    def test_unreachable_excluded(self, disjoint_graph):
        assert 10 not in bfs_distances(disjoint_graph, 0)

    def test_matches_networkx(self, tiny_graph):
        nx = pytest.importorskip("networkx")
        G = nx.Graph()
        G.add_nodes_from(tiny_graph.nodes())
        G.add_edges_from(tiny_graph.edges())
        source = next(iter(set(largest_component_csr(from_snapshot(tiny_graph)).tolist())))
        expected = nx.single_source_shortest_path_length(G, source)
        assert bfs_distances(tiny_graph, source) == dict(expected)


class TestDistanceToSet:
    def test_direct_target(self, path_graph):
        assert bfs_distance_to_set(path_graph, 0, {0}) == 0

    def test_hop_distance(self, path_graph):
        assert bfs_distance_to_set(path_graph, 0, {3, 4}) == 3

    def test_unreachable_none(self, disjoint_graph):
        assert bfs_distance_to_set(disjoint_graph, 0, {10}) is None

    def test_forbidden_blocks_path(self, path_graph):
        # 0-1-2-3-4 with 2 forbidden: 4 unreachable from 0.
        assert bfs_distance_to_set(path_graph, 0, {4}, forbidden={2}) is None

    def test_forbidden_node_not_a_target(self, path_graph):
        assert bfs_distance_to_set(path_graph, 0, {2, 4}, forbidden={2}) is None

    def test_forbidden_source_none(self, path_graph):
        assert bfs_distance_to_set(path_graph, 0, {4}, forbidden={0}) is None
