"""Whole-trace tests of the generator on single-network configs."""

import numpy as np
import pytest

from repro.gen.config import GeneratorConfig, presets
from repro.gen.fast import _ORIGIN_LABELS, FastGenerator, generate_trace
from repro.graph.events import ORIGIN_XIAONEI


class TestBasicGeneration:
    def test_stream_is_valid(self, tiny_stream):
        tiny_stream.validate()  # raises on violation

    def test_deterministic_for_seed(self):
        cfg = presets.tiny(days=30, target_nodes=200)
        a = generate_trace(cfg, seed=5)
        b = generate_trace(cfg, seed=5)
        assert a.nodes == b.nodes
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        cfg = presets.tiny(days=30, target_nodes=200)
        a = generate_trace(cfg, seed=5)
        b = generate_trace(cfg, seed=6)
        assert a.edges != b.edges

    def test_node_count_near_target(self, tiny_stream):
        target = presets.tiny().target_nodes
        assert tiny_stream.num_nodes == pytest.approx(target, rel=0.15)

    def test_all_origins_xiaonei_without_merge(self, tiny_stream):
        assert set(tiny_stream.nodes.origin_labels()) == {ORIGIN_XIAONEI}

    def test_events_within_trace(self, tiny_stream):
        assert tiny_stream.end_time <= presets.tiny().days + 1.0

    def test_seed_cliques_disconnected_at_start(self):
        cfg = GeneratorConfig(days=30, target_nodes=100, seed_nodes=8)
        stream = generate_trace(cfg, seed=1)
        # The 8 seeds form two disjoint 4-cliques: 12 seed edges at t~0.
        assert int((stream.edges.time < 0.02).sum()) == 12

    def test_exponential_growth_shape(self, tiny_stream):
        days = tiny_stream.nodes.time.astype(np.int64)
        first_half = (days < 30).sum()
        second_half = (days >= 30).sum()
        assert second_half > 2 * first_half


class TestActivityShape:
    def test_average_degree_reasonable(self, tiny_stream):
        avg = 2 * tiny_stream.num_edges / tiny_stream.num_nodes
        assert 4 < avg < 40

    def test_no_isolated_majority(self, tiny_stream):
        touched = set()
        touched.update(tiny_stream.edges.u.tolist())
        touched.update(tiny_stream.edges.v.tolist())
        assert len(touched) > 0.8 * tiny_stream.num_nodes

    def test_friend_cap_respected(self):
        cfg = GeneratorConfig(days=40, target_nodes=300, friend_cap=10, mean_budget=30)
        stream = generate_trace(cfg, seed=2)
        from collections import Counter

        degree = Counter()
        degree.update(stream.edges.u.tolist())
        degree.update(stream.edges.v.tolist())
        assert max(degree.values()) <= 11  # cap + the one edge that reaches it

    def test_seasonal_dip_suppresses_arrivals(self):
        from repro.gen.config import SeasonalDip

        dip = SeasonalDip(start_day=20, length_days=10, factor=0.1)
        cfg = GeneratorConfig(days=60, target_nodes=2000, growth_rate=0.0, seasonal_dips=(dip,))
        stream = generate_trace(cfg, seed=3)
        days = stream.nodes.time.astype(np.int64)
        in_dip = ((days >= 20) & (days < 30)).sum()
        before = ((days >= 5) & (days < 15)).sum()
        assert in_dip < before * 0.5


class TestGeneratorObject:
    def test_origin_map_populated(self):
        gen = FastGenerator(presets.tiny_merge(days=40, target_nodes=300), seed=0)
        stream = gen.generate()
        ids = stream.nodes.node
        # The generator's per-node origin record covers every emitted node
        # and agrees with the label the stream carries.
        assert len(set(ids.tolist())) == stream.num_nodes
        recorded = [_ORIGIN_LABELS[code] for code in gen.origin_code[ids]]
        assert recorded == stream.nodes.origin_labels()

    def test_generate_trace_wrapper(self):
        cfg = presets.tiny(days=20, target_nodes=100)
        assert generate_trace(cfg, seed=4).num_nodes > 0
