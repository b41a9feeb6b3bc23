"""Tests for repro.edges.lifetime."""

import numpy as np
import pytest

from repro.edges.lifetime import edge_creation_over_lifetime, node_lifetimes
from repro.graph.events import EventStream


def simple_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(0.0, 0), (1.0, 1), (2.0, 2)],
        edges=[(2.0, 0, 1), (5.0, 0, 2)],
    )


class TestNodeLifetimes:
    def test_values(self):
        records = node_lifetimes(simple_stream())
        assert records[0].joined == 0.0
        assert records[0].last_edge == 5.0
        assert records[0].lifetime == 5.0
        assert records[1].lifetime == 1.0
        assert records[0].degree == 2

    def test_edgeless_nodes_absent(self):
        stream = EventStream.from_records(
            nodes=[(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 9)],
            edges=[(2.0, 0, 1), (5.0, 0, 2)],
        )
        assert 9 not in node_lifetimes(stream)


class TestEdgeCreationOverLifetime:
    def test_fractions_sum_to_one(self, tiny_stream):
        _, fractions, n = edge_creation_over_lifetime(
            tiny_stream, bins=10, min_history_days=10, min_degree=5
        )
        assert n > 0
        assert fractions.sum() == pytest.approx(1.0)

    def test_front_loaded_on_generated_trace(self, tiny_stream):
        """Fig 2(b)'s shape: the first bins dominate the last bins."""
        _, fractions, _ = edge_creation_over_lifetime(
            tiny_stream, bins=10, min_history_days=10, min_degree=5
        )
        assert fractions[0] > fractions[-1]

    def test_filters_apply(self):
        _, fractions, n = edge_creation_over_lifetime(
            simple_stream(), bins=5, min_history_days=1000.0, min_degree=1
        )
        assert n == 0
        assert np.all(fractions == 0)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            edge_creation_over_lifetime(simple_stream(), bins=0)

    def test_centers_in_unit_interval(self, tiny_stream):
        centers, _, _ = edge_creation_over_lifetime(tiny_stream, bins=4)
        assert np.all((centers > 0) & (centers < 1))
