"""Tests for repro.ml.evaluation and repro.ml.prediction."""

import numpy as np
import pytest

from repro.community.tracking import track_stream
from repro.ml.evaluation import class_accuracies, train_test_split
from repro.ml.prediction import predict_merges


class TestClassAccuracies:
    def test_perfect(self):
        y = np.array([1, 1, -1, -1])
        acc = class_accuracies(y, y)
        assert acc.merge_accuracy == 1.0
        assert acc.no_merge_accuracy == 1.0
        assert acc.n_merge == 2 and acc.n_no_merge == 2

    def test_partial(self):
        y_true = np.array([1, 1, -1, -1])
        y_pred = np.array([1, -1, -1, 1])
        acc = class_accuracies(y_true, y_pred)
        assert acc.merge_accuracy == pytest.approx(0.5)
        assert acc.no_merge_accuracy == pytest.approx(0.5)

    def test_missing_class_nan(self):
        acc = class_accuracies(np.array([-1, -1]), np.array([-1, 1]))
        assert np.isnan(acc.merge_accuracy)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            class_accuracies(np.array([1]), np.array([1, -1]))


class TestTrainTestSplit:
    def test_partition(self):
        train, test = train_test_split(100, 0.3, seed=0)
        assert len(train) + len(test) == 100
        assert set(train.tolist()) | set(test.tolist()) == set(range(100))
        assert not set(train.tolist()) & set(test.tolist())

    def test_fraction(self):
        train, test = train_test_split(100, 0.25, seed=0)
        assert len(test) == 25

    def test_deterministic(self):
        a = train_test_split(50, 0.3, seed=4)
        b = train_test_split(50, 0.3, seed=4)
        assert np.array_equal(a[0], b[0])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(10, 1.5)


@pytest.fixture(scope="module")
def merge_tracker(merge_stream):
    """Community tracking over the merge trace, with community merges in it.

    A 3-day interval is fine enough to catch community merges on this seed;
    the tests below need them and fail (rather than skip) without them.
    """
    tracker = track_stream(merge_stream, interval=3.0, delta=0.04, seed=0)
    assert any(e.kind == "merge" for e in tracker.events)
    return tracker


class TestPredictMerges:
    def test_runs_on_trace_with_merges(self, merge_tracker):
        result = predict_merges(merge_tracker, seed=0)
        assert 0.0 <= result.overall.no_merge_accuracy <= 1.0
        assert result.n_train + result.n_test > 0
        assert 0 < result.positive_rate < 1

    def test_rejects_tiny_dataset(self, tiny_tracker):
        import repro.community.features as features

        samples = features.build_merge_dataset(tiny_tracker)
        if len(samples) >= 10 and len({s.merges_next for s in samples}) == 2:
            result = predict_merges(tiny_tracker, seed=0)
            assert result.n_test > 0
        else:
            with pytest.raises(ValueError):
                predict_merges(tiny_tracker, seed=0)


class TestCrossValidation:
    def test_folds_cover_every_sample(self, merge_tracker):
        result = predict_merges(merge_tracker, folds=4, seed=0)
        # Pooled CV scores every sample exactly once.
        assert result.n_test == result.overall.n_merge + result.overall.n_no_merge
        assert result.overall.n_merge >= 1

    def test_invalid_folds(self, merge_tracker):
        with pytest.raises(ValueError):
            predict_merges(merge_tracker, folds=1, seed=0)

    def test_cv_more_stable_than_split(self, merge_tracker):
        """CV evaluates all positives; a single split may see none."""
        cv = predict_merges(merge_tracker, folds=4, seed=0)
        assert np.isfinite(cv.overall.merge_accuracy)
