"""Tests for repro.edges.interarrival."""

import numpy as np
import pytest

from repro.edges.interarrival import (
    AGE_BUCKETS_PAPER,
    collect_interarrivals_by_age,
    interarrival_pdf_by_bucket,
    node_edge_times,
    node_interarrival_times,
    scaled_age_buckets,
)
from repro.graph.events import EventStream


def stream_with_known_gaps() -> EventStream:
    # Node 0 creates edges at t=1, 3, 8 → gaps 2 and 5.
    return EventStream.from_records(
        nodes=[(0.0, 0), (0.0, 1), (0.0, 2), (0.0, 3)],
        edges=[(1.0, 0, 1), (3.0, 0, 2), (8.0, 0, 3)],
    )


class TestNodeEdgeTimes:
    def test_both_endpoints_credited(self):
        times = node_edge_times(stream_with_known_gaps())
        assert times[0] == [1.0, 3.0, 8.0]
        assert times[1] == [1.0]

    def test_sorted(self, tiny_stream):
        times = node_edge_times(tiny_stream)
        for series in times.values():
            assert series == sorted(series)


class TestInterarrival:
    def test_gaps(self):
        assert node_interarrival_times([1.0, 3.0, 8.0]).tolist() == [2.0, 5.0]

    def test_single_event_empty(self):
        assert node_interarrival_times([1.0]).size == 0

    def test_collect_by_age_buckets(self):
        buckets = (("young", 0.0, 5.0), ("old", 5.0, float("inf")))
        collected = collect_interarrivals_by_age(stream_with_known_gaps(), buckets)
        # Gap 2 lands at age 3 (young); gap 5 lands at age 8 (old).
        assert collected["young"].tolist() == [2.0]
        assert collected["old"].tolist() == [5.0]

    def test_collect_default_buckets(self, tiny_stream):
        collected = collect_interarrivals_by_age(tiny_stream)
        assert set(collected) == {label for label, _, _ in AGE_BUCKETS_PAPER}

    def test_total_gap_count(self, tiny_stream):
        collected = collect_interarrivals_by_age(tiny_stream)
        total = sum(v.size for v in collected.values())
        expected = sum(
            max(0, len(t) - 1)
            for t in node_edge_times(tiny_stream).values()
        )
        # Zero-length gaps are dropped; allow a small deficit.
        assert total <= expected
        assert total > 0.8 * expected


class TestPdfAndBuckets:
    def test_pdf_positive(self, tiny_stream):
        pdfs = interarrival_pdf_by_bucket(tiny_stream, scaled_age_buckets(60.0))
        assert pdfs
        for x, y in pdfs.values():
            assert np.all(x > 0)
            assert np.all(y > 0)

    def test_scaled_buckets_cover_all_ages(self):
        buckets = scaled_age_buckets(100.0, count=4)
        assert buckets[0][1] == 0.0
        assert buckets[-1][2] == float("inf")
        for (_, _lo1, hi1), (_, lo2, _) in zip(buckets, buckets[1:], strict=False):
            assert hi1 == lo2

    def test_scaled_buckets_bad_count(self):
        with pytest.raises(ValueError):
            scaled_age_buckets(100.0, count=1)

    def test_power_law_shape_in_generated_trace(self, tiny_stream):
        """The headline Fig 2(a) check: tail exponent within the paper band."""
        from repro.edges.powerlaw import fit_power_law_mle

        collected = collect_interarrivals_by_age(tiny_stream, scaled_age_buckets(60.0))
        pooled = np.concatenate([v for v in collected.values() if v.size])
        pooled = pooled[pooled > 0]
        fit = fit_power_law_mle(pooled, xmin=float(np.quantile(pooled, 0.5)))
        assert 1.4 < fit.exponent < 3.0
