"""Tests for repro.metrics.diameter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dynamic import DynamicGraph
from repro.kernels.csr import CSRGraph
from repro.metrics.diameter import effective_diameter_sampled
from tests.oracles import (
    GraphSnapshot,
    csr_of,
    dict_replay,
    effective_diameter_reference,
    from_snapshot,
)


def test_clique_diameter():
    # All pairwise distances are 1; the smoothed 90th-percentile diameter
    # interpolates to 0.9 (the SNAP-style convention).
    g = csr_of([(i, j) for i in range(8) for j in range(i + 1, 8)])
    assert effective_diameter_sampled(g, sample_size=8, rng=0) == pytest.approx(0.9, abs=0.01)


def test_path_graph_below_max(path_graph):
    # Path of 5 nodes: max distance 4; the 90th percentile sits below it.
    value = effective_diameter_sampled(path_graph, sample_size=5, rng=0)
    assert 2.0 < value <= 4.0


def test_quantile_monotone(tiny_csr):
    d50 = effective_diameter_sampled(tiny_csr, quantile=0.5, sample_size=100, rng=0)
    d90 = effective_diameter_sampled(tiny_csr, quantile=0.9, sample_size=100, rng=0)
    assert d50 <= d90


def test_largest_component_used():
    g = csr_of([(0, 1), (1, 2), (2, 3), (10, 11)])
    value = effective_diameter_sampled(g, sample_size=10, rng=0)
    assert value <= 3.0


def test_trivial_graph_nan():
    assert math.isnan(effective_diameter_sampled(csr_of([], nodes=[0])))


def test_invalid_quantile(path_graph):
    with pytest.raises(ValueError):
        effective_diameter_sampled(path_graph, quantile=0.0)


def test_deterministic(tiny_csr):
    a = effective_diameter_sampled(tiny_csr, sample_size=50, rng=3)
    b = effective_diameter_sampled(tiny_csr, sample_size=50, rng=3)
    assert a == b


def test_densification_shrinks_diameter(tiny_stream):
    """[Leskovec 2005]'s shrinking-diameter context for Figure 1(d)."""
    replay = DynamicGraph(tiny_stream)
    mid = replay.advance_to(tiny_stream.end_time / 2).graph
    final = replay.advance_to(tiny_stream.end_time).graph
    d_mid = effective_diameter_sampled(mid, sample_size=150, rng=0)
    d_final = effective_diameter_sampled(final, sample_size=150, rng=0)
    # Densification keeps the diameter from growing with N.
    assert d_final <= d_mid + 1.5


def _relabel(csr: CSRGraph, ids: np.ndarray) -> CSRGraph:
    """``csr`` with node id ``i`` renamed ``ids[i]`` (same positions and rows)."""
    return CSRGraph(
        node_ids=ids[csr.node_ids], indptr=csr.indptr, indices=csr.indices, num_edges=csr.num_edges
    )


def test_sparse_ids_sample_the_sorted_pool():
    """Sources come from the sorted component, not from a set's hash layout.

    Renaming nodes by an order-preserving map keeps the sorted pool's ranks,
    so the same draws pick the same nodes and the value cannot change.  A
    set of these sparse ids does not iterate in sorted order.
    """
    sparse = np.sort(np.random.default_rng(3).choice(10**6, 300, replace=False))
    assert list(set(sparse.tolist())) != sparse.tolist()
    order = np.random.default_rng(4).permutation(300)
    path = csr_of(list(zip(order[:-1].tolist(), order[1:].tolist(), strict=True)))
    compact = effective_diameter_sampled(path, sample_size=20, rng=0)
    assert effective_diameter_sampled(_relabel(path, sparse), sample_size=20, rng=0) == compact


# -- parity with the dict-BFS reference ---------------------------------------


def _connected(n: int, extra: list[tuple[int, int]], seed: int) -> GraphSnapshot:
    """A random tree over ids ``0..n-1`` plus ``extra`` chords, in a shuffled insertion order."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n).tolist()
    edges = [(labels[i], labels[int(rng.integers(0, i))]) for i in range(1, n)]
    edges += [(u % n, v % n) for u, v in extra if u % n != v % n]
    return GraphSnapshot.from_edges(edges)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 120),
    st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=60),
    st.integers(0, 3),
    st.sampled_from([0.5, 0.9, 1.0]),
    st.integers(1, 150),
)
def test_matches_reference_on_contiguous_ids(n, extra, seed, quantile, sample_size):
    g = _connected(n, extra, seed)
    got = effective_diameter_sampled(
        from_snapshot(g), quantile=quantile, sample_size=sample_size, rng=seed
    )
    want = effective_diameter_reference(g, quantile=quantile, sample_size=sample_size, rng=seed)
    assert got == want


@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_matches_reference_on_trace(tiny_stream, fraction):
    time = tiny_stream.end_time * fraction
    g = dict_replay(tiny_stream, time)
    csr = DynamicGraph(tiny_stream).advance_to(time).graph
    for rng in (0, 5):
        got = effective_diameter_sampled(csr, sample_size=120, rng=rng)
        assert got == effective_diameter_reference(g, sample_size=120, rng=rng)
