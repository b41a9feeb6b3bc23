"""Tests for repro.community.features."""

import numpy as np

from repro.community.features import FEATURE_NAMES, build_merge_dataset
from repro.community.tracking import CommunityTracker
from tests.oracles import csr_of


def clique(base: int, size: int) -> list[tuple[int, int]]:
    return [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]


def tracked_sequence() -> CommunityTracker:
    tracker = CommunityTracker(min_size=10, seed=0)
    for t, size_a in ((1.0, 12), (2.0, 14), (3.0, 18)):
        g = csr_of(clique(0, size_a) + clique(100, 12))
        tracker.step(t, g)
    return tracker


class TestFeatureNames:
    def test_count(self):
        # 3 base metrics × 4 derived + age.
        assert len(FEATURE_NAMES) == 13

    def test_age_last(self):
        assert FEATURE_NAMES[-1] == "age_days"


class TestBuildDataset:
    def test_sample_shape(self):
        samples = build_merge_dataset(tracked_sequence())
        assert samples
        for s in samples:
            assert s.features.shape == (len(FEATURE_NAMES),)
            assert np.all(np.isfinite(s.features))

    def test_final_snapshot_excluded(self):
        tracker = tracked_sequence()
        samples = build_merge_dataset(tracker)
        last_time = tracker.snapshots[-1].time
        assert all(s.time < last_time for s in samples)

    def test_growth_indicator_positive(self):
        tracker = tracked_sequence()
        samples = build_merge_dataset(tracker)
        # The growing community's delta1(size) at t=2 should be +1.
        growing = [s for s in samples if s.time == 2.0 and s.features[0] >= 14]
        assert growing
        idx = FEATURE_NAMES.index("size_delta1")
        assert growing[0].features[idx] == 1.0

    def test_labels_negative_without_merges(self):
        samples = build_merge_dataset(tracked_sequence())
        assert all(not s.merges_next for s in samples)

    def test_exclude_times(self):
        tracker = tracked_sequence()
        all_samples = build_merge_dataset(tracker)
        filtered = build_merge_dataset(tracker, exclude_times=(1.0,))
        # All lineages were born at t=1; everything is excluded.
        assert all_samples and not filtered

    def test_short_run_empty(self):
        tracker = CommunityTracker(min_size=10, seed=0)
        tracker.step(1.0, csr_of(clique(0, 12)))
        assert build_merge_dataset(tracker) == []

    def test_merge_label_positive_on_trace(self, tiny_tracker):
        samples = build_merge_dataset(tiny_tracker)
        merges = {(e.subject, e.time) for e in tiny_tracker.events if e.kind == "merge"}
        if merges:
            assert any(s.merges_next for s in samples)
