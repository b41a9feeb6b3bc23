"""Tests for repro.metrics degree/clustering/assortativity against networkx."""

import math

import pytest

from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering, local_clustering
from repro.metrics.degree import average_degree, degree_distribution
from tests.oracles import GraphSnapshot, from_snapshot

nx = pytest.importorskip("networkx")


def to_networkx(graph: GraphSnapshot):
    G = nx.Graph()
    G.add_nodes_from(graph.nodes())
    G.add_edges_from(graph.edges())
    return G


class TestAverageDegree:
    def test_empty(self):
        assert average_degree(from_snapshot(GraphSnapshot())) == 0.0

    def test_path(self, path_graph):
        assert average_degree(path_graph) == pytest.approx(8 / 5)

    def test_matches_networkx(self, tiny_graph):
        G = to_networkx(tiny_graph)
        expected = sum(dict(G.degree).values()) / G.number_of_nodes()
        assert average_degree(from_snapshot(tiny_graph)) == pytest.approx(expected)


class TestDegreeDistribution:
    def test_star(self, star_graph):
        assert degree_distribution(star_graph) == {1: 6, 6: 1}

    def test_total_nodes(self, tiny_csr):
        dist = degree_distribution(tiny_csr)
        assert sum(dist.values()) == tiny_csr.num_nodes


class TestClustering:
    def test_triangle(self):
        g = GraphSnapshot.from_edges([(0, 1), (1, 2), (0, 2)])
        assert local_clustering(from_snapshot(g), 0) == 1.0
        assert average_clustering(from_snapshot(g)) == 1.0

    def test_path_zero(self, path_graph):
        assert average_clustering(path_graph) == 0.0

    def test_degree_one_zero(self, star_graph):
        assert local_clustering(star_graph, 1) == 0.0

    def test_empty_nan(self):
        assert math.isnan(average_clustering(from_snapshot(GraphSnapshot())))

    def test_matches_networkx(self, tiny_graph):
        expected = nx.average_clustering(to_networkx(tiny_graph))
        assert average_clustering(from_snapshot(tiny_graph)) == pytest.approx(expected)

    def test_sampled_close_to_exact(self, tiny_graph):
        exact = average_clustering(from_snapshot(tiny_graph))
        sampled = average_clustering(from_snapshot(tiny_graph), sample_size=400, rng=0)
        assert sampled == pytest.approx(exact, abs=0.08)


class TestAssortativity:
    def test_star_negative(self, star_graph):
        # Star is degree-anticorrelated but degenerate per-side variance is
        # fine here: hub degree 6 vs leaves degree 1.
        value = degree_assortativity(star_graph)
        assert value == -1.0 or math.isnan(value)

    def test_matches_networkx(self, tiny_graph):
        expected = nx.degree_assortativity_coefficient(to_networkx(tiny_graph))
        value = degree_assortativity(from_snapshot(tiny_graph))
        assert value == pytest.approx(expected, abs=1e-6)

    def test_regular_graph_nan(self):
        g = GraphSnapshot.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle
        assert math.isnan(degree_assortativity(from_snapshot(g)))
