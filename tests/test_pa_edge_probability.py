"""Tests for repro.pa.edge_probability."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.events import EventStream
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker
from tests.oracles import pe_checkpoints_reference


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


def assert_same_checkpoints(got, want):
    """Bit-identical checkpoints, NaN fits included."""
    assert len(got) == len(want)
    for a, b in zip(got, want, strict=True):
        assert a.edge_count == b.edge_count
        assert a.time == b.time and type(a.time) is type(b.time)
        assert a.node_count == b.node_count and type(a.node_count) is type(b.node_count)
        for name in ("degrees", "pe", "support"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        for name in ("alpha", "coefficient", "mse"):
            x, y = getattr(a, name), getattr(b, name)
            assert x == y or (np.isnan(x) and np.isnan(y)), name


def assert_matches_reference(stream, checkpoint_every, min_edges=0, **tracker_args):
    tracker = EdgeProbabilityTracker(**tracker_args)
    reference = EdgeProbabilityTracker(**tracker_args)
    got = tracker.process(stream, checkpoint_every=checkpoint_every, min_edges=min_edges)
    want = pe_checkpoints_reference(reference, stream, checkpoint_every, min_edges)
    assert_same_checkpoints(got, want)
    assert tracker._rng.bit_generator.state == reference._rng.bit_generator.state
    return got


@st.composite
def valid_streams(draw) -> EventStream:
    """Unsorted, non-contiguous ids; ties, late and isolated nodes; duplicate edges."""
    ids = draw(st.lists(st.integers(0, 500), min_size=2, max_size=14, unique=True))
    born = sorted(draw(st.lists(st.integers(0, 12), min_size=len(ids), max_size=len(ids))))
    pair = st.tuples(st.sampled_from(range(len(ids))), st.sampled_from(range(len(ids))))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=40))
    waits = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges = sorted(
        ((max(born[i], born[j]) + wait, ids[i], ids[j]) for (i, j), wait in zip(pairs, waits)),
        key=lambda edge: edge[0],
    )
    return EventStream.from_records(
        nodes=[(float(t), node) for t, node in zip(born, ids)],
        edges=[(float(t), u, v) for t, u, v in edges],
    )


class TestReferenceParity:
    @settings(max_examples=200, deadline=None)
    @given(
        stream=valid_streams(),
        data=st.data(),
        rule=st.sampled_from(list(DestinationRule)),
        mode=st.sampled_from(["window", "cumulative"]),
        max_degree=st.sampled_from([2, 3, 5, 4096]),
        min_support=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_edge_replay(
        self, stream, data, rule, mode, max_degree, min_support, seed
    ):
        edges = stream.num_edges
        every = data.draw(st.integers(1, edges + 1), label="checkpoint_every")
        min_edges = data.draw(st.integers(0, edges + 1), label="min_edges")
        assert_matches_reference(
            stream, every, min_edges,
            rule=rule, mode=mode, max_degree=max_degree, min_support=min_support, seed=seed,
        )

    @pytest.mark.parametrize(
        "rule,mode,min_edges",
        list(itertools.product(DestinationRule, ("window", "cumulative"), (0, 7000))),
    )
    def test_tiny_merge(self, merge_stream, rule, mode, min_edges):
        every = max(1000, merge_stream.num_edges // 20)
        got = assert_matches_reference(merge_stream, every, min_edges, rule=rule, mode=mode, seed=1)
        assert got

    @pytest.mark.parametrize(
        "rule,mode,min_edges",
        list(itertools.product(DestinationRule, ("window", "cumulative"), (0, 7000))),
    )
    def test_perfbench_trace(self, figures_stream, rule, mode, min_edges):
        every = max(1000, figures_stream.num_edges // 20)
        got = assert_matches_reference(
            figures_stream, every, min_edges, rule=rule, mode=mode, seed=1
        )
        assert len(got) >= 10

    def test_consecutive_random_calls_share_the_generator(self, tiny_stream):
        tracker = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=5)
        reference = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=5)
        for _ in range(2):
            got = tracker.process(tiny_stream, checkpoint_every=700)
            want = pe_checkpoints_reference(reference, tiny_stream, 700, 0)
            assert_same_checkpoints(got, want)
        first = EdgeProbabilityTracker(rule=DestinationRule.RANDOM, seed=5)
        first_alphas = [c.alpha for c in first.process(tiny_stream, checkpoint_every=700)]
        assert [c.alpha for c in got] != first_alphas

    @pytest.mark.parametrize("rule", list(DestinationRule))
    def test_empty_edge_set(self, rule):
        stream = EventStream.from_records(nodes=[(0.0, 4), (1.0, 2)])
        tracker = EdgeProbabilityTracker(rule=rule, seed=0)
        state = tracker._rng.bit_generator.state
        assert tracker.process(stream, checkpoint_every=1) == []
        assert tracker._rng.bit_generator.state == state
        assert EdgeProbabilityTracker(rule=rule).process(EventStream(), checkpoint_every=3) == []


class TestInvalidStreams:
    def test_unknown_endpoint_raises_key_error(self):
        stream = EventStream.from_records(
            nodes=[(0.0, 1), (0.0, 2)], edges=[(1.0, 1, 2), (2.0, 2, 9)]
        )
        with pytest.raises(KeyError, match="9"):
            EdgeProbabilityTracker().process(stream, checkpoint_every=1)
        with pytest.raises(KeyError, match="9"):
            pe_checkpoints_reference(EdgeProbabilityTracker(), stream, 1, 0)

    def test_no_nodes_raises_key_error(self):
        stream = EventStream.from_records(edges=[(1.0, 3, 4)])
        with pytest.raises(KeyError, match="3"):
            EdgeProbabilityTracker().process(stream, checkpoint_every=1)

    @pytest.mark.parametrize("rule", list(DestinationRule))
    def test_self_loop_raises(self, rule):
        stream = EventStream.from_records(
            nodes=[(0.0, 1), (0.0, 2)], edges=[(1.0, 1, 2), (2.0, 2, 2)]
        )
        with pytest.raises(ValueError, match="self-loop"):
            EdgeProbabilityTracker(rule=rule).process(stream, checkpoint_every=1)

    @pytest.mark.parametrize("rule", list(DestinationRule))
    def test_endpoint_born_after_edge_raises(self, rule):
        stream = EventStream.from_records(
            nodes=[(0.0, 1), (0.0, 2), (2.5, 3)], edges=[(1.0, 1, 2), (2.0, 1, 3)]
        )
        with pytest.raises(ValueError, match=r"at time 2\.0 predates node 3 \(born 2\.5\)"):
            EdgeProbabilityTracker(rule=rule).process(stream, checkpoint_every=1)


@pytest.fixture(scope="module")
def figures_stream() -> EventStream:
    """The trace perfbench's ``figures`` workload measures."""
    return generate_trace(presets.small(target_nodes=2500), seed=1)
