"""Tests for the dict-of-sets oracle graph, ``tests.oracles.GraphSnapshot``."""

import pytest

from tests.oracles import GraphSnapshot, snapshot_of


@pytest.fixture()
def star_graph(star_graph):
    return snapshot_of(star_graph)


@pytest.fixture()
def path_graph(path_graph):
    return snapshot_of(path_graph)


@pytest.fixture()
def two_clique_graph(two_clique_graph):
    return snapshot_of(two_clique_graph)


class TestConstruction:
    def test_from_edges(self):
        g = GraphSnapshot.from_edges([(0, 1), (1, 2)], nodes=[9])
        assert g.num_nodes == 4
        assert g.num_edges == 2
        assert 9 in g and g.degree(9) == 0

    def test_add_node_idempotent(self):
        g = GraphSnapshot()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_add_edge_duplicate_returns_false(self):
        g = GraphSnapshot.from_edges([(0, 1)])
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = GraphSnapshot.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_unknown_endpoint_raises(self):
        g = GraphSnapshot()
        g.add_node(0)
        with pytest.raises(KeyError):
            g.add_edge(0, 99)


class TestQueries:
    def test_degree_and_neighbors(self, star_graph):
        assert star_graph.degree(0) == 6
        assert star_graph.degree(3) == 1
        assert star_graph.neighbors(3) == {0}

    def test_edges_iterated_once(self, two_clique_graph):
        edges = list(two_clique_graph.edges())
        assert len(edges) == two_clique_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)
        assert not path_graph.has_edge(0, 99)

    def test_degrees_map(self, path_graph):
        assert path_graph.degrees() == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}

    def test_len_and_contains(self, path_graph):
        assert len(path_graph) == 5
        assert 4 in path_graph
        assert 5 not in path_graph

    def test_repr(self, path_graph):
        assert "nodes=5" in repr(path_graph)


class TestCopySubgraph:

    def test_subgraph_induced(self, two_clique_graph):
        sub = two_clique_graph.subgraph(range(6))
        assert sub.num_nodes == 6
        assert sub.num_edges == 15  # the full 6-clique

    def test_subgraph_ignores_unknown(self, path_graph):
        sub = path_graph.subgraph([0, 1, 999])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1

    def test_subgraph_cuts_boundary_edges(self, path_graph):
        sub = path_graph.subgraph([0, 1, 2])
        assert sub.num_edges == 2
