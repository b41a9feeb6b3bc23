"""Tests for destination choice: the attachment mixture, its weights, the §3.3 ablation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gen.config import GeneratorConfig, pa_weight, presets, spotlight_weight
from repro.gen.fast import FastGenerator, generate_trace
from repro.metrics.clustering import average_clustering
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule
from tests.oracles import csr_of


class TestWeights:
    def test_pa_weight_decays(self):
        cfg = GeneratorConfig(pa_start=1.0, pa_end=0.0, pa_halflife_edges=1000)
        assert pa_weight(0, cfg) == pytest.approx(1.0)
        assert pa_weight(1000, cfg) == pytest.approx(0.5)
        assert pa_weight(100_000, cfg) < 0.02

    def test_pa_weight_floor(self):
        cfg = GeneratorConfig(pa_start=0.9, pa_end=0.2)
        assert pa_weight(10**9, cfg) == pytest.approx(0.2, abs=1e-3)

    def test_spotlight_decays(self):
        cfg = GeneratorConfig(spotlight_start=0.8, pa_halflife_edges=1000)
        assert spotlight_weight(0, cfg) == pytest.approx(0.8)
        assert spotlight_weight(1000, cfg) == pytest.approx(0.4)

    def test_pa_weight_is_a_true_half_life(self):
        # Each half-life halves the remaining excess over pa_end, so PA dies
        # out instead of keeping a halflife / E share forever.
        cfg = GeneratorConfig(pa_start=1.0, pa_end=0.1, pa_halflife_edges=1000)
        assert pa_weight(2000, cfg) == pytest.approx(0.1 + 0.9 / 4)
        assert pa_weight(10_000, cfg) == pytest.approx(0.1, abs=1e-3)


class TestChooseDestination:
    """Destination choice, observed through whole generated traces."""

    def test_no_candidates_returns_none(self):
        # A lone user has nobody to befriend: its initiations find no
        # destination and the trace simply has no edges.
        cfg = GeneratorConfig(days=5, target_nodes=1, seed_nodes=1)
        stream = generate_trace(cfg, seed=0)
        assert stream.num_nodes == 1
        assert stream.num_edges == 0

    def test_valid_destination(self):
        # Every destination is a user who has already arrived.
        cfg = GeneratorConfig(days=10, target_nodes=40, seed_nodes=4)
        stream = generate_trace(cfg, seed=1)
        born = stream.node_arrival_times()
        edges = stream.edges
        assert stream.num_edges > 6
        assert all(born[v] <= t for t, v in zip(edges.time.tolist(), edges.v.tolist()))

    def test_never_returns_existing_neighbor_or_self(self):
        # Thirty users with budgets far above the population saturate their
        # neighborhoods, so most proposals hit self or an existing friend;
        # none may become an edge.
        cfg = GeneratorConfig(days=20, target_nodes=30, seed_nodes=8, mean_budget=60.0)
        stream = generate_trace(cfg, seed=2)
        stream.validate()  # no self-loops, no duplicate pairs
        assert stream.num_edges > 200

    def test_respects_friend_cap(self):
        # Several initiators of one round may pick the same destination;
        # the round admits only as many as the cap leaves room for.
        gen = FastGenerator(GeneratorConfig(), seed=0)
        gen.degree[:5] = [0, 3, 1, 4, 0]
        us = np.array([0, 2, 4, 0, 2], dtype=np.int64)
        vs = np.array([1, 1, 1, 3, 3], dtype=np.int64)
        # Under a cap of 5, node 1 has room for 2 more edges and node 3 for
        # 1 more: the earliest proposals win.
        assert gen._within_cap(us, vs, cap=5).tolist() == [True, True, False, True, False]
        assert gen._within_cap(us, vs, cap=50).all()

    def test_accept_bias_zero_blocks(self):
        # Silenced duplicate accounts have acceptance probability zero.
        gen = FastGenerator(presets.tiny_merge(), seed=13)
        gen.generate()
        silenced = np.flatnonzero(gen.inactive)
        assert len(silenced) > 0
        initiators = np.zeros_like(silenced)  # node 0: a pre-merge seed user
        assert not gen.inactive[0]
        assert (gen._bias_of(initiators, silenced) == 0.0).all()

    def test_preferential_attachment_prefers_hubs(self):
        # Degree-proportional destinations concentrate edges on hubs.
        base = presets.tiny(days=50, target_nodes=900)
        pure = {"triadic_probability": 0.0, "spotlight_start": 0.0,
                "local_probability": 0.0, "local_decay": 0.0}

        def top_share(pa):
            stream = generate_trace(replace(base, pa_start=pa, pa_end=pa, **pure), seed=1)
            graph = csr_of(zip(stream.edges.u.tolist(), stream.edges.v.tolist(), strict=True))
            degrees = np.sort(graph.degrees)[::-1]
            return degrees[:10].sum() / degrees.sum()

        assert top_share(1.0) > 1.5 * top_share(0.0)

    def test_triadic_closure_hits_friends_of_friends(self):
        # Friend-of-friend destinations close triangles.
        base = presets.tiny()

        def clustering(triadic):
            stream = generate_trace(replace(base, triadic_probability=triadic), seed=4)
            graph = csr_of(zip(stream.edges.u.tolist(), stream.edges.v.tolist(), strict=True))
            return average_clustering(graph, sample_size=400, rng=0)

        assert clustering(0.9) > 2 * clustering(0.0)

    def test_local_probability_override(self):
        # Full locality keeps destinations inside the initiator's home
        # community; without it, many edges cross communities.
        base = replace(presets.tiny(), triadic_probability=0.0, loner_fraction=0.0,
                       local_decay=0.0)

        def cross_share(local):
            gen = FastGenerator(replace(base, local_probability=local), seed=5)
            stream = gen.generate()
            us, vs = stream.edges.u, stream.edges.v
            return float(np.mean(gen.community[us] != gen.community[vs]))

        assert cross_share(1.0) < 0.05
        assert cross_share(0.0) > 0.25


def _mean_alpha(config, seed=3):
    stream = generate_trace(config, seed=seed)
    series = alpha_series(
        stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=max(500, stream.num_edges // 8)
    )
    return float(np.nanmean(series.alphas))


def test_attachment_ablation_orders_alpha():
    """Pure PA > decaying mixture > pure random attachment in measured α.

    The tier-1 twin of ``benchmarks/test_ablation.py``: same preset, seed
    and bounds.  Uniform destinations must stay uniform enough that pure
    random attachment measures well below linear PA.
    """
    base = presets.tiny(days=50, target_nodes=900)
    pure = {"triadic_probability": 0.0, "spotlight_start": 0.0,
            "local_probability": 0.0, "local_decay": 0.0}
    pure_pa = _mean_alpha(replace(base, pa_start=1.0, pa_end=1.0, **pure))
    pure_random = _mean_alpha(replace(base, pa_start=0.0, pa_end=0.0, **pure))
    mixture = _mean_alpha(base)
    assert pure_pa > mixture > pure_random
    assert pure_pa > 0.8
    assert pure_random < 0.6
