"""Tests for repro.pa.edge_probability."""

import numpy as np
import pytest

from repro.graph.events import EventStream
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker


def star_stream(leaves: int = 40) -> EventStream:
    """All nodes at t=0; hub 0 gains edges sequentially (pure PA target)."""
    nodes = [(0.0, n) for n in range(leaves + 1)]
    edges = [(1.0 + i, 0, i + 1) for i in range(leaves)]
    return EventStream.from_records(nodes=nodes, edges=edges)


class TestTrackerMechanics:
    def test_checkpoint_cadence(self, tiny_stream):
        tracker = EdgeProbabilityTracker(seed=0)
        checkpoints = tracker.process(tiny_stream, checkpoint_every=500)
        assert len(checkpoints) == tiny_stream.num_edges // 500
        assert [c.edge_count for c in checkpoints] == [
            500 * (i + 1) for i in range(len(checkpoints))
        ]

    def test_min_edges_suppresses_early(self, tiny_stream):
        tracker = EdgeProbabilityTracker(seed=0)
        checkpoints = tracker.process(tiny_stream, checkpoint_every=500, min_edges=1500)
        assert checkpoints[0].edge_count >= 1500

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            EdgeProbabilityTracker(mode="weird")

    def test_invalid_cadence(self, tiny_stream):
        with pytest.raises(ValueError):
            EdgeProbabilityTracker().process(tiny_stream, checkpoint_every=0)

    def test_pe_values_are_probabilities(self, tiny_stream):
        tracker = EdgeProbabilityTracker(seed=0)
        for cp in tracker.process(tiny_stream, checkpoint_every=1000):
            assert np.all(cp.pe > 0)
            assert np.all(cp.pe <= 1.0)
            assert np.all(cp.degrees >= 1)


class TestDestinationRules:
    def test_higher_degree_on_star(self):
        tracker = EdgeProbabilityTracker(
            rule=DestinationRule.HIGHER_DEGREE, mode="cumulative", min_support=1
        )
        checkpoints = tracker.process(star_stream(), checkpoint_every=40)
        cp = checkpoints[-1]
        # Destination is always the hub, whose degree grows 1..39: pe should
        # increase with degree (alpha > 0 and large).
        assert cp.alpha > 0.5

    def test_random_rule_deterministic_for_seed(self, tiny_stream):
        a = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=3).process(
            tiny_stream, checkpoint_every=1000
        )
        b = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=3).process(
            tiny_stream, checkpoint_every=1000
        )
        assert [c.alpha for c in a] == [c.alpha for c in b]

    def test_higher_rule_bounds_random_rule(self, tiny_stream):
        hi = EdgeProbabilityTracker(rule=DestinationRule.HIGHER_DEGREE, seed=0).process(
            tiny_stream, checkpoint_every=1000
        )
        rd = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=0).process(
            tiny_stream, checkpoint_every=1000
        )
        mean_hi = np.nanmean([c.alpha for c in hi])
        mean_rd = np.nanmean([c.alpha for c in rd])
        assert mean_hi > mean_rd


class TestFitQuality:
    def test_low_mse_on_generated_trace(self, tiny_stream):
        """Paper: the pe(d) ∝ d^alpha fit is tight (tiny MSE)."""
        tracker = EdgeProbabilityTracker(mode="cumulative", seed=0)
        cp = tracker.process(tiny_stream, checkpoint_every=2000)[-1]
        assert cp.mse < 1e-3
        assert np.isfinite(cp.alpha)
