"""Tests for degree CCDF and tail fitting (repro.metrics.degree extensions)."""

import numpy as np
import pytest

from repro.gen.baselines import barabasi_albert_stream
from repro.graph.snapshot import GraphSnapshot
from repro.metrics.degree import degree_ccdf, fit_degree_tail
from tests.oracles import dict_replay


class TestDegreeCcdf:
    def test_starts_at_one(self, star_graph):
        degrees, ccdf = degree_ccdf(star_graph)
        assert ccdf[0] == pytest.approx(1.0)

    def test_monotone_decreasing(self, tiny_graph):
        _, ccdf = degree_ccdf(tiny_graph)
        assert np.all(np.diff(ccdf) <= 1e-12)

    def test_star_values(self, star_graph):
        degrees, ccdf = degree_ccdf(star_graph)
        assert degrees.tolist() == [1, 6]
        assert ccdf.tolist() == pytest.approx([1.0, 1 / 7])

    def test_empty(self):
        degrees, ccdf = degree_ccdf(GraphSnapshot())
        assert degrees.size == 0


class TestDegreeTailFit:
    def test_ba_exponent_near_three(self):
        # BA's degree exponent is 3 in the large-n limit.
        stream = barabasi_albert_stream(8000, m=4, seed=1)
        fit = fit_degree_tail(dict_replay(stream))
        assert 2.2 < fit.exponent < 4.0

    def test_generated_trace_heavy_tailed(self, tiny_graph):
        fit = fit_degree_tail(tiny_graph)
        assert 1.5 < fit.exponent < 5.0

    def test_too_small_rejected(self, star_graph):
        with pytest.raises(ValueError):
            fit_degree_tail(star_graph)
