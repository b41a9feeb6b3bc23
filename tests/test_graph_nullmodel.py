"""Tests for repro.graph.nullmodel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.nullmodel import degree_preserving_rewire
from repro.kernels.csr import CSRGraph
from repro.metrics.clustering import average_clustering
from tests.oracles import (
    GraphSnapshot,
    assert_same_csr,
    csr_of,
    degree_preserving_rewire_reference,
    from_snapshot,
)


def edges(csr: CSRGraph) -> list[tuple[int, int]]:
    """Each edge once as ``(u, v)`` ids with ``u < v``; a self-loop shows as ``(u, u)``."""
    rows = np.repeat(np.arange(csr.num_nodes), csr.degrees)
    u, v = csr.node_ids[rows], csr.node_ids[csr.indices]
    once = u <= v
    return list(zip(u[once].tolist(), v[once].tolist(), strict=True))


class TestDegreePreservingRewire:
    def test_degrees_preserved(self, tiny_csr):
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=1.0, seed=0)
        assert np.array_equal(rewired.node_ids, tiny_csr.node_ids)
        assert np.array_equal(rewired.degrees, tiny_csr.degrees)

    def test_edge_count_preserved(self, tiny_csr):
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=1.0, seed=0)
        assert rewired.num_edges == tiny_csr.num_edges

    def test_no_self_loops_or_duplicates(self, tiny_csr):
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=2.0, seed=1)
        seen = set()
        for u, v in edges(rewired):
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))
        assert len(seen) == rewired.num_edges

    def test_actually_rewires(self, tiny_csr):
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=2.0, seed=2)
        original = set(edges(tiny_csr))
        changed = set(edges(rewired)) ^ original
        assert len(changed) > 0.2 * len(original)

    def test_original_untouched(self, tiny_csr):
        edges_before = set(edges(tiny_csr))
        degree_preserving_rewire(tiny_csr, swaps_per_edge=2.0, seed=3)
        assert set(edges(tiny_csr)) == edges_before

    def test_destroys_clustering(self, tiny_csr):
        """The headline use: observed clustering >> degree-sequence null."""
        observed = average_clustering(tiny_csr, 400, rng=0)
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=3.0, seed=4)
        null = average_clustering(rewired, 400, rng=0)
        assert observed > 2.0 * null

    def test_zero_swaps_identity(self, tiny_csr):
        rewired = degree_preserving_rewire(tiny_csr, swaps_per_edge=0.0, seed=0)
        assert set(edges(rewired)) == set(edges(tiny_csr))

    def test_tiny_graph_copy(self):
        g = csr_of([(0, 1)])
        rewired = degree_preserving_rewire(g, seed=0)
        assert set(edges(rewired)) == {(0, 1)}

    def test_negative_swaps_rejected(self, tiny_csr):
        with pytest.raises(ValueError):
            degree_preserving_rewire(tiny_csr, swaps_per_edge=-1.0)

    def test_deterministic(self, tiny_csr):
        a = degree_preserving_rewire(tiny_csr, swaps_per_edge=1.0, seed=7)
        b = degree_preserving_rewire(tiny_csr, swaps_per_edge=1.0, seed=7)
        assert_same_csr(a, b)


# -- parity with the adjacency-set reference ----------------------------------

# Sparse ids in edge order: positions follow first appearance, not id order,
# so the initial edge list's per-row id sort is exercised.
_edge_lists = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 400)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=80,
)


def _rewire_pair(g: GraphSnapshot, swaps_per_edge: float, seed: int) -> None:
    got = degree_preserving_rewire(from_snapshot(g), swaps_per_edge=swaps_per_edge, seed=seed)
    want = degree_preserving_rewire_reference(g, swaps_per_edge=swaps_per_edge, seed=seed)
    assert_same_csr(got, from_snapshot(want))


@settings(max_examples=60, deadline=None)
@given(
    _edge_lists,
    st.lists(st.integers(401, 420), max_size=3),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.integers(0, 5),
)
def test_rewire_matches_reference(edge_list, isolates, swaps_per_edge, seed):
    _rewire_pair(GraphSnapshot.from_edges(edge_list, nodes=isolates), swaps_per_edge, seed)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_rewire_matches_reference_on_trace(tiny_graph, seed):
    _rewire_pair(tiny_graph, 1.0, seed)


@pytest.mark.parametrize(
    "edge_list",
    [[], [(5, 2)], [(5, 2), (2, 9), (9, 5)]],
    ids=["no-edges", "one-edge", "triangle"],
)
def test_rewire_zero_swaps_and_tiny_graphs_match_reference(edge_list):
    g = GraphSnapshot.from_edges(edge_list, nodes=[40])
    _rewire_pair(g, 0.0, 3)
    _rewire_pair(g, 3.0, 3)
