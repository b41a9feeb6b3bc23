"""Tests for repro.gen.baselines."""

import numpy as np
import pytest

from repro.gen.baselines import (
    barabasi_albert_stream,
    forest_fire_stream,
    uniform_attachment_stream,
)
from repro.graph.dynamic import DynamicGraph
from repro.metrics.clustering import average_clustering
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule


class TestBarabasiAlbert:
    def test_stream_valid(self):
        barabasi_albert_stream(300, m=3, seed=0).validate()

    def test_edge_count(self):
        n, m = 300, 3
        stream = barabasi_albert_stream(n, m=m, seed=0)
        seed_edges = (m + 1) * m // 2
        assert stream.num_edges == seed_edges + (n - m - 1) * m

    def test_heavy_tail(self):
        stream = barabasi_albert_stream(2000, m=3, seed=1)
        degrees = sorted(DynamicGraph(stream).final().degrees.tolist(), reverse=True)
        assert degrees[0] > 10 * np.median(degrees)

    def test_alpha_near_one(self):
        stream = barabasi_albert_stream(3000, m=4, seed=1)
        series = alpha_series(stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=3000)
        assert np.nanmean(series.alphas[1:]) == pytest.approx(1.0, abs=0.25)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            barabasi_albert_stream(3, m=4)
        with pytest.raises(ValueError):
            barabasi_albert_stream(10, m=0)

    def test_deterministic(self):
        a = barabasi_albert_stream(200, seed=5)
        b = barabasi_albert_stream(200, seed=5)
        assert a.edges == b.edges


class TestUniformAttachment:
    def test_stream_valid(self):
        uniform_attachment_stream(300, m=3, seed=0).validate()

    def test_alpha_near_zero(self):
        # The higher-degree rule identifies the true (old-node) destination
        # here: uniform arrivals attach with m=4, so the old endpoint always
        # has the higher degree.  The random rule would credit the brand-new
        # endpoint half the time and distort pe(d) at tiny degrees.
        stream = uniform_attachment_stream(3000, m=4, seed=1)
        series = alpha_series(stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=3000)
        assert abs(np.nanmean(series.alphas[1:])) < 0.4

    def test_degrees_light_tailed_vs_ba(self):
        ba = barabasi_albert_stream(2000, m=3, seed=2)
        un = uniform_attachment_stream(2000, m=3, seed=2)
        max_ba = DynamicGraph(ba).final().degrees.max()
        max_un = DynamicGraph(un).final().degrees.max()
        assert max_ba > 1.5 * max_un


class TestForestFire:
    def test_stream_valid(self):
        forest_fire_stream(300, seed=0).validate()

    def test_high_clustering_vs_ba(self):
        ff = DynamicGraph(forest_fire_stream(1200, forward_probability=0.35, seed=3)).final()
        ba = DynamicGraph(barabasi_albert_stream(1200, m=2, seed=3)).final()
        assert average_clustering(ff, 400, rng=0) > average_clustering(ba, 400, rng=0)

    def test_forward_probability_drives_density(self):
        sparse = forest_fire_stream(800, forward_probability=0.1, seed=4)
        dense = forest_fire_stream(800, forward_probability=0.45, seed=4)
        assert dense.num_edges > sparse.num_edges

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            forest_fire_stream(100, forward_probability=1.0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            forest_fire_stream(1)
