"""Tests for repro.osnmerge.activity."""

import numpy as np
import pytest

from repro.graph.events import ORIGIN_5Q, ORIGIN_XIAONEI
from repro.osnmerge.activity import (
    active_users_over_time,
    activity_threshold,
    duplicate_account_estimate,
)


@pytest.fixture(scope="module")
def threshold(merge_stream):
    return min(activity_threshold(merge_stream), 12.0)


class TestActivityThreshold:
    def test_positive(self, merge_stream):
        assert activity_threshold(merge_stream) > 0

    def test_quantile_monotone(self, merge_stream):
        assert activity_threshold(merge_stream, 0.5) <= activity_threshold(merge_stream, 0.99)

    def test_invalid_quantile(self, merge_stream):
        with pytest.raises(ValueError):
            activity_threshold(merge_stream, 1.5)


class TestActiveUsers:
    def test_series_shape(self, merge_stream, merge_day, threshold):
        series = active_users_over_time(merge_stream, merge_day, ORIGIN_XIAONEI, threshold)
        assert set(series.percent_active) == {"all", "new", "internal", "external"}
        for values in series.percent_active.values():
            assert values.size == series.days.size
            assert np.all((0 <= values) & (values <= 100))

    def test_series_reports_the_threshold_it_used(self, merge_stream, merge_day, threshold):
        series = active_users_over_time(merge_stream, merge_day, ORIGIN_XIAONEI, threshold)
        assert series.threshold == threshold

    def test_all_bounds_component_kinds(self, merge_stream, merge_day, threshold):
        series = active_users_over_time(merge_stream, merge_day, ORIGIN_XIAONEI, threshold)
        for kind in ("new", "internal", "external"):
            assert np.all(series.percent_active[kind] <= series.percent_active["all"] + 1e-9)

    def test_activity_declines(self, merge_stream, merge_day, threshold):
        """Fig 8(a)/(b): overall user activity declines over time."""
        for origin in (ORIGIN_XIAONEI, ORIGIN_5Q):
            series = active_users_over_time(merge_stream, merge_day, origin, threshold)
            overall = series.percent_active["all"]
            assert overall[-1] <= overall[0]

    def test_5q_loses_more_users(self, merge_stream, merge_day, threshold):
        """Duplicates preferred Xiaonei: 5Q shows more immediate inactives."""
        xi = active_users_over_time(merge_stream, merge_day, ORIGIN_XIAONEI, threshold)
        fq = active_users_over_time(merge_stream, merge_day, ORIGIN_5Q, threshold)
        assert duplicate_account_estimate(fq) > duplicate_account_estimate(xi)

    def test_duplicate_estimates_in_range(self, merge_stream, merge_day, threshold):
        for origin, low, high in ((ORIGIN_XIAONEI, 0.0, 0.35), (ORIGIN_5Q, 0.1, 0.65)):
            series = active_users_over_time(merge_stream, merge_day, origin, threshold)
            assert low <= duplicate_account_estimate(series) <= high

    def test_unknown_origin_raises(self, merge_stream, merge_day):
        with pytest.raises(ValueError):
            active_users_over_time(merge_stream, merge_day, "nonexistent", 5.0)

    def test_threshold_too_long_raises(self, merge_stream, merge_day):
        with pytest.raises(ValueError):
            active_users_over_time(merge_stream, merge_day, ORIGIN_XIAONEI, 10_000.0)
