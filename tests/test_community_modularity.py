"""Tests for partition inversion and the dict-of-sets modularity oracle."""

import pytest

from tests.oracles import GraphSnapshot, modularity, partition_communities, snapshot_of

nx = pytest.importorskip("networkx")


@pytest.fixture()
def two_clique_graph(two_clique_graph):
    return snapshot_of(two_clique_graph)


@pytest.fixture()
def path_graph(path_graph):
    return snapshot_of(path_graph)


class TestPartitionCommunities:
    def test_inversion(self):
        part = {0: 5, 1: 5, 2: 9}
        assert partition_communities(part) == {5: {0, 1}, 9: {2}}

    def test_empty(self):
        assert partition_communities({}) == {}


class TestModularity:
    def test_empty_graph_zero(self):
        assert modularity(GraphSnapshot(), {}) == 0.0

    def test_all_one_community_zero(self, two_clique_graph):
        part = {n: 0 for n in two_clique_graph.nodes()}
        assert modularity(two_clique_graph, part) == pytest.approx(0.0)

    def test_good_partition_positive(self, two_clique_graph):
        part = {n: (0 if n < 6 else 1) for n in two_clique_graph.nodes()}
        assert modularity(two_clique_graph, part) > 0.4

    def test_bad_partition_worse(self, two_clique_graph):
        good = {n: (0 if n < 6 else 1) for n in two_clique_graph.nodes()}
        bad = {n: n % 2 for n in two_clique_graph.nodes()}
        assert modularity(two_clique_graph, bad) < modularity(two_clique_graph, good)

    def test_matches_networkx(self, tiny_graph):
        part = {n: (n % 7) for n in tiny_graph.nodes()}
        G = nx.Graph()
        G.add_nodes_from(tiny_graph.nodes())
        G.add_edges_from(tiny_graph.edges())
        groups = {}
        for node, c in part.items():
            groups.setdefault(c, set()).add(node)
        expected = nx.community.modularity(G, groups.values())
        assert modularity(tiny_graph, part) == pytest.approx(expected)

    def test_missing_assignment_raises(self, path_graph):
        with pytest.raises(KeyError):
            modularity(path_graph, {0: 0})
