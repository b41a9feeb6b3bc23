"""Tests for repro.metrics.paths."""

import math

import pytest

from repro.metrics.paths import average_path_length_sampled
from tests.oracles import GraphSnapshot, from_snapshot

nx = pytest.importorskip("networkx")


def test_exact_on_full_sample(path_graph):
    G = nx.path_graph(5)
    expected = nx.average_shortest_path_length(G)
    measured = average_path_length_sampled(path_graph, sample_size=5, rng=0)
    assert measured == pytest.approx(expected)


def test_uses_largest_component():
    g = GraphSnapshot.from_edges([(0, 1), (1, 2), (10, 11)])
    # Largest component is the path 0-1-2; isolated pair ignored as sources.
    value = average_path_length_sampled(from_snapshot(g), sample_size=3, rng=0)
    assert value == pytest.approx((1 + 1 + 2 + 1 + 1 + 2) / 6)


def test_single_node_nan():
    g = GraphSnapshot()
    g.add_node(0)
    assert math.isnan(average_path_length_sampled(from_snapshot(g)))


def test_empty_nan():
    assert math.isnan(average_path_length_sampled(from_snapshot(GraphSnapshot())))


def test_sampled_close_to_exact(tiny_csr):
    exact = average_path_length_sampled(tiny_csr, sample_size=10**9, rng=0)
    sampled = average_path_length_sampled(tiny_csr, sample_size=100, rng=1)
    assert sampled == pytest.approx(exact, rel=0.1)


def test_deterministic_for_seed(tiny_graph):
    a = average_path_length_sampled(from_snapshot(tiny_graph), sample_size=50, rng=7)
    b = average_path_length_sampled(from_snapshot(tiny_graph), sample_size=50, rng=7)
    assert a == b
