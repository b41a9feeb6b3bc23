"""Tests for degree CCDF and tail fitting (repro.metrics.degree extensions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.baselines import barabasi_albert_stream
from repro.graph.dynamic import DynamicGraph
from repro.kernels.csr import CSRGraph
from repro.metrics.degree import degree_ccdf, degree_distribution, fit_degree_tail
from tests.oracles import (
    GraphSnapshot,
    degree_ccdf_reference,
    degree_distribution_reference,
    fit_degree_tail_reference,
    from_snapshot,
)


class TestDegreeCcdf:
    def test_starts_at_one(self, star_graph):
        degrees, ccdf = degree_ccdf(star_graph)
        assert ccdf[0] == pytest.approx(1.0)

    def test_monotone_decreasing(self, tiny_csr):
        _, ccdf = degree_ccdf(tiny_csr)
        assert np.all(np.diff(ccdf) <= 1e-12)

    def test_star_values(self, star_graph):
        degrees, ccdf = degree_ccdf(star_graph)
        assert degrees.tolist() == [1, 6]
        assert ccdf.tolist() == pytest.approx([1.0, 1 / 7])

    def test_empty(self):
        degrees, ccdf = degree_ccdf(CSRGraph.empty())
        assert degrees.size == 0


class TestDegreeTailFit:
    def test_ba_exponent_near_three(self):
        # BA's degree exponent is 3 in the large-n limit.
        stream = barabasi_albert_stream(8000, m=4, seed=1)
        fit = fit_degree_tail(DynamicGraph(stream).final())
        assert 2.2 < fit.exponent < 4.0

    def test_generated_trace_heavy_tailed(self, tiny_csr):
        fit = fit_degree_tail(tiny_csr)
        assert 1.5 < fit.exponent < 5.0

    def test_too_small_rejected(self, star_graph):
        with pytest.raises(ValueError):
            fit_degree_tail(star_graph)


# -- parity with the dict references ------------------------------------------


def _outcome(fit, *args, **kwargs):
    """The fit, or the message of the ValueError it raises."""
    try:
        return fit(*args, **kwargs)
    except ValueError as error:
        return str(error)


def _assert_same_degrees(g: GraphSnapshot) -> None:
    csr = from_snapshot(g)
    dist = degree_distribution(csr)
    assert list(dist.items()) == list(degree_distribution_reference(g).items())
    degrees, ccdf = degree_ccdf(csr)
    want_degrees, want_ccdf = degree_ccdf_reference(g)
    assert np.array_equal(degrees, want_degrees)
    assert np.array_equal(ccdf, want_ccdf)
    for xmin in (None, 2.0):
        got = _outcome(fit_degree_tail, csr, xmin=xmin)
        assert got == _outcome(fit_degree_tail_reference, g, xmin=xmin)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 60)).filter(lambda e: e[0] != e[1]),
        max_size=150,
    ),
    st.lists(st.integers(61, 70), max_size=4),
)
def test_matches_reference(edge_list, isolates):
    _assert_same_degrees(GraphSnapshot.from_edges(edge_list, nodes=isolates))


def test_matches_reference_on_trace(tiny_graph):
    _assert_same_degrees(tiny_graph)
