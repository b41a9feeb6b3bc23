"""End-to-end integration tests across the library's layers."""

import numpy as np
import pytest

from repro.community.tracking import track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream_io import read_event_stream, write_event_stream
from repro.metrics.degree import average_degree
from repro.metrics.growth import daily_growth
from repro.pa.alpha import alpha_series


class TestGenerateAnalyzeRoundtrip:
    def test_trace_to_disk_to_analysis(self, tmp_path, tiny_stream):
        """A trace written to disk yields identical analysis results."""
        path = tmp_path / "trace.tsv"
        write_event_stream(tiny_stream, path)
        loaded = read_event_stream(path)
        g_orig = daily_growth(tiny_stream)
        g_load = daily_growth(loaded)
        assert np.array_equal(g_orig.new_edges, g_load.new_edges)
        a_orig = alpha_series(tiny_stream, checkpoint_every=1000, seed=0)
        a_load = alpha_series(loaded, checkpoint_every=1000, seed=0)
        assert np.allclose(a_orig.alphas, a_load.alphas, equal_nan=True)

    def test_snapshot_replay_matches_totals(self, tiny_stream):
        final = DynamicGraph(tiny_stream).final()
        assert final.num_nodes == tiny_stream.num_nodes
        assert average_degree(final) == pytest.approx(
            2 * tiny_stream.num_edges / tiny_stream.num_nodes
        )


class TestPaperHeadlines:
    """The paper's three summary observations (§3.3) on a generated trace."""

    def test_edge_creation_front_loaded(self, tiny_stream):
        from repro.edges.lifetime import edge_creation_over_lifetime

        _, fractions, n = edge_creation_over_lifetime(
            tiny_stream, bins=5, min_history_days=10, min_degree=5
        )
        assert n > 50
        assert fractions[0] == max(fractions)

    def test_new_node_share_declines(self, tiny_stream):
        from repro.edges.node_age import minimal_age_fractions

        _, fractions = minimal_age_fractions(tiny_stream, thresholds=(3.0,))
        series = fractions[3.0]
        valid = series[np.isfinite(series)]
        third = max(1, valid.size // 3)
        assert np.mean(valid[:third]) > np.mean(valid[-third:])

    def test_pa_strength_degrades(self, tiny_stream):
        series = alpha_series(tiny_stream, checkpoint_every=600, seed=0)
        assert np.nanmax(series.alphas) - series.alphas[-1] > 0.0


class TestCommunityPipeline:
    def test_tracking_to_prediction_pipeline(self, merge_stream):
        from repro.community.features import build_merge_dataset

        tracker = track_stream(merge_stream, interval=4.0, delta=0.04, seed=0)
        samples = build_merge_dataset(tracker)
        assert samples
        # Feature matrix is well-formed for the classifier.
        X = np.stack([s.features for s in samples])
        assert np.all(np.isfinite(X))

    def test_snapshot_modularity_strong(self, merge_stream):
        tracker = track_stream(merge_stream, interval=8.0, delta=0.04, seed=0)
        late = [s.modularity for s in tracker.snapshots[-3:]]
        # The attachment fallback completes previously-dropped high-skew
        # initiations; those rescued edges skew cross-community, which costs
        # a few hundredths of late-trace modularity (seed sweep: 0.28-0.35).
        assert min(late) > 0.28


class TestMergePipeline:
    def test_full_merge_analysis(self, merge_stream, merge_day):
        from repro.osnmerge.activity import active_users_over_time, duplicate_account_estimate
        from repro.osnmerge.distance import cross_network_distance
        from repro.osnmerge.edge_rates import edges_per_day_by_type

        series = active_users_over_time(merge_stream, merge_day, "xiaonei", threshold=10.0)
        assert 0 <= duplicate_account_estimate(series) <= 0.5
        rates = edges_per_day_by_type(merge_stream, merge_day)
        assert rates.new_total.sum() > 0
        distances = cross_network_distance(
            merge_stream, merge_day, sample_size=40, interval=10.0, seed=0
        )
        assert np.isfinite(distances.xiaonei_to_5q).any()


class TestScaleKnobs:
    def test_larger_target_scales_output(self):
        small = generate_trace(presets.tiny(days=30, target_nodes=150), seed=0)
        large = generate_trace(presets.tiny(days=30, target_nodes=600), seed=0)
        assert large.num_nodes > 2 * small.num_nodes
        assert large.num_edges > 2 * small.num_edges
