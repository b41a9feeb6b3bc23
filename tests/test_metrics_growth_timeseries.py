"""Tests for repro.metrics.growth and repro.metrics.timeseries."""

import numpy as np
import pytest

from repro.graph.events import EventStream
from repro.metrics.growth import daily_growth
from repro.runtime import MetricSpec, compute_timeseries


def small_stream() -> EventStream:
    return EventStream.from_records(
        nodes=[(0.1, 0), (0.2, 1), (1.5, 2), (2.5, 3)],
        edges=[
            (0.5, 0, 1),
            (1.7, 1, 2),
            (2.6, 2, 3),
            (2.9, 0, 3),
        ],
    )


class TestDailyGrowth:
    def test_counts_per_day(self):
        g = daily_growth(small_stream())
        assert g.new_nodes.tolist() == [2, 1, 1]
        assert g.new_edges.tolist() == [1, 1, 2]

    def test_cumulative(self):
        g = daily_growth(small_stream())
        assert g.cumulative_nodes.tolist() == [2, 3, 4]
        assert g.cumulative_edges.tolist() == [1, 2, 4]

    def test_relative_growth(self):
        g = daily_growth(small_stream())
        assert np.isnan(g.node_growth_pct[0])  # no previous day
        assert g.node_growth_pct[1] == pytest.approx(50.0)
        assert g.edge_growth_pct[2] == pytest.approx(100.0)

    def test_totals_match_stream(self, tiny_stream):
        g = daily_growth(tiny_stream)
        assert g.cumulative_nodes[-1] == tiny_stream.num_nodes
        assert g.cumulative_edges[-1] == tiny_stream.num_edges

    def test_merge_day_jump(self, merge_stream, merge_day):
        g = daily_growth(merge_stream)
        day = int(merge_day)
        assert g.new_nodes[day] > 3 * np.median(g.new_nodes[day - 7 : day])


class TestMetricTimeseries:
    def test_names_and_lengths(self, tiny_stream):
        spec = MetricSpec(path_sample=30, clustering_sample=100, seed=0)
        ts = compute_timeseries(tiny_stream, spec, interval=15.0)
        times, values = ts.as_arrays()
        assert set(values) == {
            "average_degree",
            "average_path_length",
            "average_clustering",
            "assortativity",
        }
        for series in values.values():
            assert series.size == times.size

    def test_times_increasing(self, tiny_stream):
        spec = MetricSpec(names=("average_degree",))
        ts = compute_timeseries(tiny_stream, spec, interval=10.0)
        assert ts.times == sorted(ts.times)
