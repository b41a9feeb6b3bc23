"""Tests for the activity model: budgets, power-law gaps, initiation schedules."""

import numpy as np
import pytest

from repro.gen.config import GeneratorConfig
from repro.gen.fast import draw_budgets, power_law_gaps, schedule_initiations
from repro.util.rng import make_rng


def schedule(arrival, budget, cfg, seed):
    """Initiation times of one user arriving at ``arrival`` with ``budget``."""
    times, owners = schedule_initiations(
        np.array([arrival]), np.array([budget]), cfg, make_rng(seed)
    )
    assert (owners == 0).all()
    return times


class TestDrawBudget:
    def test_bounds(self):
        cfg = GeneratorConfig(budget_cap=50)
        budgets = draw_budgets(cfg, 500, make_rng(0))
        assert budgets.min() >= 1
        assert budgets.max() <= 50

    def test_mean_close_to_config(self):
        cfg = GeneratorConfig(mean_budget=10.0, budget_cap=10_000)
        budgets = draw_budgets(cfg, 20_000, make_rng(1))
        assert np.mean(budgets) == pytest.approx(10.0, rel=0.25)

    def test_heavy_tail_exists(self):
        cfg = GeneratorConfig(mean_budget=10.0, budget_cap=10_000)
        budgets = draw_budgets(cfg, 5_000, make_rng(2))
        assert budgets.max() > 10 * np.median(budgets)

    def test_rejects_shape_below_one(self):
        cfg = GeneratorConfig(budget_shape=1.9)
        object.__setattr__(cfg, "budget_shape", 0.9)
        with pytest.raises(ValueError):
            draw_budgets(cfg, 1, make_rng(0))


class TestPowerLawGaps:
    def test_minimum_respected(self):
        gaps = power_law_gaps(1000, 2.5, 0.25, make_rng(0))
        assert gaps.min() >= 0.25

    def test_cap_respected(self):
        gaps = power_law_gaps(1000, 1.1, 0.25, make_rng(0), max_gap=50.0)
        assert gaps.max() <= 50.0

    def test_exponent_recovered_by_mle(self):
        gaps = power_law_gaps(50_000, 2.2, 1.0, make_rng(3), max_gap=1e9)
        alpha = 1.0 + gaps.size / np.log(gaps / 1.0).sum()
        assert alpha == pytest.approx(2.2, abs=0.05)

    def test_rejects_exponent_at_one(self):
        with pytest.raises(ValueError):
            power_law_gaps(10, 1.0, 0.25, make_rng(0))

    def test_zero_count_returns_empty(self):
        gaps = power_law_gaps(0, 2.2, 0.25, make_rng(0))
        assert gaps.shape == (0,)
        assert gaps.dtype == np.float64

    def test_min_gap_above_cap_clamps_to_cap(self):
        gaps = power_law_gaps(100, 2.5, 10.0, make_rng(1), max_gap=5.0)
        assert (gaps == 5.0).all()


class TestScheduleActivity:
    def test_sorted_and_sized(self):
        # One entry per budgeted initiation, attributed to its user; the
        # simulator time-orders them when it buckets them by day.
        cfg = GeneratorConfig()
        times, owners = schedule_initiations(
            np.array([10.0, 40.0]), np.array([20, 5]), cfg, make_rng(0)
        )
        assert len(times) == 25
        assert np.bincount(owners).tolist() == [20, 5]
        assert (times[owners == 1] >= 40.0).all()

    def test_no_event_before_arrival(self):
        cfg = GeneratorConfig()
        times = schedule(10.0, 30, cfg, 1)
        assert times.min() >= 10.0

    def test_burst_lands_on_arrival_day(self):
        cfg = GeneratorConfig(burst_mean=3.0)
        times = schedule(5.0, 10, cfg, 2)
        assert ((times >= 5.0) & (times < 6.0)).any()

    def test_budget_one(self):
        cfg = GeneratorConfig()
        times = schedule(0.0, 1, cfg, 3)
        assert len(times) == 1
        assert 0.0 <= times[0] < 1.0

    def test_budget_zero_yields_no_events(self):
        cfg = GeneratorConfig()
        assert len(schedule(3.0, 0, cfg, 5)) == 0

    def test_arrival_at_trace_end_keeps_events_past_horizon(self):
        # A user arriving on the last day still schedules its whole budget;
        # the simulator drops the out-of-range tail, not the scheduler.
        cfg = GeneratorConfig(days=30.0)
        times = schedule(29.5, 10, cfg, 6)
        assert len(times) == 10
        assert times.min() >= 29.5

    def test_long_term_fraction_spreads_events(self):
        cfg = GeneratorConfig(long_term_fraction=1.0, burst_mean=0.0, days=200.0)
        times = schedule(0.0, 200, cfg, 4)
        # With everything background-scheduled, events should span the trace.
        assert times.max() > 100.0

    def test_activity_rate_declines_with_age(self):
        # Gap-driven initiations are front-loaded (paper Fig 2b): users
        # create far more edges in their first ten days than in ten days
        # taken later in life, although their budgets are far from spent.
        cfg = GeneratorConfig(long_term_fraction=0.0, burst_mean=0.0, days=100.0)
        times, _ = schedule_initiations(
            np.zeros(200), np.full(200, 400), cfg, make_rng(7)
        )
        early = ((times >= 1.0) & (times < 11.0)).sum()
        late = ((times >= 51.0) & (times < 61.0)).sum()
        assert early > 2 * late > 0
