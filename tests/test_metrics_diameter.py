"""Tests for repro.metrics.diameter."""

import math

import pytest

from repro.graph.snapshot import GraphSnapshot
from repro.metrics.diameter import effective_diameter_sampled
from tests.oracles import dict_replay


def test_clique_diameter():
    # All pairwise distances are 1; the smoothed 90th-percentile diameter
    # interpolates to 0.9 (the SNAP-style convention).
    g = GraphSnapshot.from_edges([(i, j) for i in range(8) for j in range(i + 1, 8)])
    assert effective_diameter_sampled(g, sample_size=8, rng=0) == pytest.approx(0.9, abs=0.01)


def test_path_graph_below_max(path_graph):
    # Path of 5 nodes: max distance 4; the 90th percentile sits below it.
    value = effective_diameter_sampled(path_graph, sample_size=5, rng=0)
    assert 2.0 < value <= 4.0


def test_quantile_monotone(tiny_graph):
    d50 = effective_diameter_sampled(tiny_graph, quantile=0.5, sample_size=100, rng=0)
    d90 = effective_diameter_sampled(tiny_graph, quantile=0.9, sample_size=100, rng=0)
    assert d50 <= d90


def test_largest_component_used():
    g = GraphSnapshot.from_edges([(0, 1), (1, 2), (2, 3), (10, 11)])
    value = effective_diameter_sampled(g, sample_size=10, rng=0)
    assert value <= 3.0


def test_trivial_graph_nan():
    g = GraphSnapshot()
    g.add_node(0)
    assert math.isnan(effective_diameter_sampled(g))


def test_invalid_quantile(path_graph):
    with pytest.raises(ValueError):
        effective_diameter_sampled(path_graph, quantile=0.0)


def test_deterministic(tiny_graph):
    a = effective_diameter_sampled(tiny_graph, sample_size=50, rng=3)
    b = effective_diameter_sampled(tiny_graph, sample_size=50, rng=3)
    assert a == b


def test_densification_shrinks_diameter(tiny_stream):
    """[Leskovec 2005]'s shrinking-diameter context for Figure 1(d)."""
    mid = dict_replay(tiny_stream, tiny_stream.end_time / 2)
    final = dict_replay(tiny_stream, tiny_stream.end_time)
    d_mid = effective_diameter_sampled(mid, sample_size=150, rng=0)
    d_final = effective_diameter_sampled(final, sample_size=150, rng=0)
    # Densification keeps the diameter from growing with N.
    assert d_final <= d_mid + 1.5
