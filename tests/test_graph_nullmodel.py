"""Tests for repro.graph.nullmodel."""

import pytest

from repro.graph.nullmodel import degree_preserving_rewire
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.metrics.clustering import average_clustering


class TestDegreePreservingRewire:
    def test_degrees_preserved(self, tiny_graph):
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=1.0, seed=0)
        assert rewired.degrees() == tiny_graph.degrees()

    def test_edge_count_preserved(self, tiny_graph):
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=1.0, seed=0)
        assert rewired.num_edges == tiny_graph.num_edges

    def test_no_self_loops_or_duplicates(self, tiny_graph):
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=2.0, seed=1)
        seen = set()
        for u, v in rewired.edges():
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    def test_actually_rewires(self, tiny_graph):
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=2.0, seed=2)
        original = set(tiny_graph.edges())
        changed = set(rewired.edges()) ^ original
        assert len(changed) > 0.2 * len(original)

    def test_original_untouched(self, tiny_graph):
        edges_before = set(tiny_graph.edges())
        degree_preserving_rewire(tiny_graph, swaps_per_edge=2.0, seed=3)
        assert set(tiny_graph.edges()) == edges_before

    def test_destroys_clustering(self, tiny_graph):
        """The headline use: observed clustering >> degree-sequence null."""
        observed = average_clustering(CSRGraph.from_snapshot(tiny_graph), 400, rng=0)
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=3.0, seed=4)
        null = average_clustering(CSRGraph.from_snapshot(rewired), 400, rng=0)
        assert observed > 2.0 * null

    def test_zero_swaps_identity(self, tiny_graph):
        rewired = degree_preserving_rewire(tiny_graph, swaps_per_edge=0.0, seed=0)
        assert set(rewired.edges()) == set(tiny_graph.edges())

    def test_tiny_graph_copy(self):
        g = GraphSnapshot.from_edges([(0, 1)])
        rewired = degree_preserving_rewire(g, seed=0)
        assert set(rewired.edges()) == {(0, 1)}

    def test_negative_swaps_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            degree_preserving_rewire(tiny_graph, swaps_per_edge=-1.0)

    def test_deterministic(self, tiny_graph):
        a = degree_preserving_rewire(tiny_graph, swaps_per_edge=1.0, seed=7)
        b = degree_preserving_rewire(tiny_graph, swaps_per_edge=1.0, seed=7)
        assert set(a.edges()) == set(b.edges())
