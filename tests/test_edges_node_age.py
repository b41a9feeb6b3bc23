"""Tests for repro.edges.node_age."""

import numpy as np
import pytest

from repro.edges.node_age import PAPER_AGE_THRESHOLDS, minimal_age_fractions
from repro.graph.events import EventStream


def test_paper_thresholds():
    assert PAPER_AGE_THRESHOLDS == (1.0, 10.0, 30.0)


def test_minimal_age_uses_younger_endpoint():
    stream = EventStream.from_records(
        nodes=[(0.0, 0), (9.5, 1)],
        edges=[(10.0, 0, 1)],  # ages 10 and 0.5 → minimal 0.5
    )
    days, fractions = minimal_age_fractions(stream, thresholds=(1.0, 5.0))
    assert fractions[1.0][10] == 1.0


def test_day_without_edges_is_nan():
    stream = EventStream.from_records(
        nodes=[(0.0, 0), (0.0, 1)],
        edges=[(2.0, 0, 1)],
    )
    _, fractions = minimal_age_fractions(stream, thresholds=(1.0,))
    assert np.isnan(fractions[1.0][1])
    assert fractions[1.0][2] == 0.0  # both endpoints 2 days old


def test_thresholds_must_ascend():
    stream = EventStream.from_records(nodes=[(0.0, 0)])
    with pytest.raises(ValueError):
        minimal_age_fractions(stream, thresholds=(5.0, 1.0))


def test_stacked_fractions_monotone(tiny_stream):
    _, fractions = minimal_age_fractions(tiny_stream, thresholds=(1.0, 5.0, 20.0))
    a, b, c = fractions[1.0], fractions[5.0], fractions[20.0]
    valid = np.isfinite(a)
    assert np.all(a[valid] <= b[valid] + 1e-12)
    assert np.all(b[valid] <= c[valid] + 1e-12)


def test_declining_young_share(tiny_stream):
    """Fig 2(c)'s direction: early share of young-node edges exceeds late.

    The 3-day threshold is used instead of 1 day because the tiny fixture
    is only 60 days long and the 1-day share is noise-dominated there.
    """
    days, fractions = minimal_age_fractions(tiny_stream, thresholds=(3.0,))
    series = fractions[3.0]
    valid = np.isfinite(series)
    quarter = max(1, valid.sum() // 4)
    early = np.nanmean(series[valid][:quarter])
    late = np.nanmean(series[valid][-quarter:])
    assert early > late
