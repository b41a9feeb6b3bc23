"""Tests for the CSRGraph structure and the metric-spec fingerprint."""

import numpy as np
import pytest

from repro.graph.checkpoint import CSRAdjacency
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph, gather_neighbors
from repro.runtime.spec import MetricSpec


@pytest.fixture()
def graph() -> GraphSnapshot:
    # Node ids deliberately non-contiguous and out of order.
    return GraphSnapshot.from_edges([(7, 3), (3, 11), (7, 11), (2, 7)], nodes=[40])


class TestCSRGraph:
    def test_shape_and_counts(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        assert csr.num_nodes == 5
        assert csr.num_edges == 4
        assert csr.indices.size == 2 * csr.num_edges
        assert csr.indptr[0] == 0
        assert csr.indptr[-1] == csr.indices.size

    def test_node_ids_preserve_insertion_order(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        assert csr.node_ids.tolist() == list(graph.nodes())

    def test_rows_sorted_and_correct(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        for pos, node in enumerate(csr.node_ids.tolist()):
            row = csr.indices[csr.indptr[pos] : csr.indptr[pos + 1]]
            assert row.tolist() == sorted(row.tolist())
            neighbors = {int(csr.node_ids[r]) for r in row}
            assert neighbors == graph.adjacency[node]

    def test_degrees(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        for pos, node in enumerate(csr.node_ids.tolist()):
            assert csr.degrees[pos] == len(graph.adjacency[node])

    def test_positions_of(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        ids = csr.node_ids
        positions = csr.positions_of(np.array([11, 7, 40]))
        assert [int(ids[p]) for p in positions.tolist()] == [11, 7, 40]

    def test_from_adjacency_matches_from_snapshot(self, graph):
        direct = CSRGraph.from_snapshot(graph)
        via_checkpoint = CSRGraph.from_adjacency(CSRAdjacency.from_snapshot(graph))
        assert direct.node_ids.tolist() == via_checkpoint.node_ids.tolist()
        assert direct.indptr.tolist() == via_checkpoint.indptr.tolist()
        assert direct.indices.tolist() == via_checkpoint.indices.tolist()
        assert direct.num_edges == via_checkpoint.num_edges

    def test_empty_graph(self):
        csr = CSRGraph.from_snapshot(GraphSnapshot())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0
        assert csr.indptr.tolist() == [0]
        assert csr.indices.size == 0


class TestGatherNeighbors:
    def test_matches_manual_concatenation(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        frontier = np.array([0, 2, 3], dtype=np.int64)
        expected = np.concatenate(
            [csr.indices[csr.indptr[u] : csr.indptr[u + 1]] for u in frontier]
        )
        got = gather_neighbors(csr.indptr, csr.indices, frontier)
        assert got.tolist() == expected.tolist()

    def test_empty_frontier(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        out = gather_neighbors(csr.indptr, csr.indices, np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_isolated_nodes_contribute_nothing(self, graph):
        csr = CSRGraph.from_snapshot(graph)
        isolated = int(np.flatnonzero(csr.degrees == 0)[0])
        out = gather_neighbors(csr.indptr, csr.indices, np.array([isolated]))
        assert out.size == 0


class TestSpecBackend:
    def test_fingerprint_pinned(self):
        # Cache keys written before the spec lost its backend field must
        # still hit: the default spec's digest is pinned.
        assert MetricSpec().fingerprint() == (
            "d4b5e9fe2f630d90c03935a5dfb240f5e794d639efc169b4d23c372597d02ace"
        )

    def test_other_fields_still_fingerprint(self):
        assert MetricSpec(seed=0).fingerprint() != MetricSpec(seed=1).fingerprint()
