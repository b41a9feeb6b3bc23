"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.louvain import louvain
from repro.community.tracking import jaccard
from repro.kernels.traversal import connected_components_csr
from repro.util.binning import cdf_points, empirical_cdf, log_binned_pdf
from repro.util.stats import linear_fit_loglog, pearson_correlation
from tests.oracles import GraphSnapshot, bfs_distances, from_snapshot, modularity


# -- strategies -------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=120,
)

float_lists = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)

node_sets = st.sets(st.integers(0, 50), max_size=30)


def graph_from(edges) -> GraphSnapshot:
    return GraphSnapshot.from_edges(edges)


# -- graph invariants ---------------------------------------------------------


@given(edge_lists)
def test_snapshot_edge_count_matches_iteration(edges):
    g = graph_from(edges)
    assert g.num_edges == sum(1 for _ in g.edges())


@given(edge_lists)
def test_snapshot_degree_sum_is_twice_edges(edges):
    g = graph_from(edges)
    assert sum(g.degrees().values()) == 2 * g.num_edges


@given(edge_lists)
def test_snapshot_adjacency_symmetric(edges):
    g = graph_from(edges)
    for u, nbrs in g.adjacency.items():
        for v in nbrs:
            assert u in g.adjacency[v]


@given(edge_lists)
def test_components_partition_nodes(edges):
    g = graph_from(edges)
    comps = connected_components_csr(from_snapshot(g))
    union = set().union(*comps) if comps else set()
    assert union == set(g.nodes())
    assert sum(len(c) for c in comps) == g.num_nodes


@given(edge_lists)
def test_bfs_triangle_inequality_to_neighbors(edges):
    g = graph_from(edges)
    if g.num_nodes == 0:
        return
    source = next(iter(g.nodes()))
    dist = bfs_distances(g, source)
    for node, d in dist.items():
        for nbr in g.adjacency[node]:
            assert dist.get(nbr, math.inf) <= d + 1


# -- jaccard ------------------------------------------------------------------


@given(node_sets, node_sets)
def test_jaccard_symmetric_and_bounded(a, b):
    value = jaccard(a, b)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(b, a)


@given(node_sets)
def test_jaccard_identity(a):
    assert jaccard(a, a) == (1.0 if a else 0.0)


@given(node_sets, node_sets, node_sets)
def test_jaccard_distance_triangle_inequality(a, b, c):
    # 1 - jaccard is a metric.
    dab = 1 - jaccard(a, b)
    dbc = 1 - jaccard(b, c)
    dac = 1 - jaccard(a, c)
    assert dac <= dab + dbc + 1e-12


# -- louvain / modularity -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(edge_lists)
def test_louvain_assigns_every_node(edges):
    g = graph_from(edges)
    result = louvain(from_snapshot(g), delta=0.001, seed=0)
    assert set(result.partition) == set(g.nodes())


@settings(max_examples=30, deadline=None)
@given(edge_lists)
def test_louvain_no_worse_than_singletons(edges):
    g = graph_from(edges)
    result = louvain(from_snapshot(g), delta=0.001, seed=0)
    singleton_q = modularity(g, {n: n for n in g.nodes()})
    assert result.modularity >= singleton_q - 1e-9


@settings(max_examples=30, deadline=None)
@given(edge_lists)
def test_modularity_bounded(edges):
    g = graph_from(edges)
    result = louvain(from_snapshot(g), delta=0.001, seed=0)
    assert -1.0 <= result.modularity <= 1.0


# -- distributions --------------------------------------------------------------


@given(float_lists)
def test_empirical_cdf_properties(samples):
    xs, ys = empirical_cdf(samples)
    assert xs.size == len(samples)
    if xs.size:
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ys) >= 0)
        assert ys[-1] == pytest.approx(1.0)


@given(float_lists, float_lists)
def test_cdf_points_monotone(samples, thresholds):
    if not thresholds:
        return
    at = sorted(thresholds)
    values = cdf_points(samples, at)
    assert np.all(np.diff(values) >= 0)
    assert np.all((0 <= values) & (values <= 1))


@given(float_lists)
def test_log_binned_pdf_nonnegative(samples):
    centers, density = log_binned_pdf(samples)
    assert np.all(density >= 0)
    assert centers.size == density.size


# -- fits -------------------------------------------------------------------------


@given(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
def test_loglog_fit_recovers_exact_relationship(alpha, c):
    x = np.array([1.0, 2.0, 5.0, 10.0, 50.0])
    y = c * x**alpha
    fitted_alpha, fitted_c = linear_fit_loglog(x, y)
    assert fitted_alpha == pytest.approx(alpha, abs=1e-6)
    assert fitted_c == pytest.approx(c, rel=1e-6)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
def test_pearson_bounded(xs):
    ys = [2.0 * v + 1.0 for v in xs]
    value = pearson_correlation(xs, ys)
    if not math.isnan(value):
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
