"""Tests for repro.runtime: spec seeding, parallel determinism, result cache."""

import multiprocessing

import numpy as np
import pytest

from repro.graph.dynamic import DynamicGraph
from repro.runtime import (
    MetricSpec,
    ResultCache,
    compute_timeseries,
    evaluate_timeseries,
    snapshot_times,
    stream_digest,
)
from repro.runtime.cache import decode_series, encode_series, series_key
from repro.store.convert import write_store
from repro.store.reader import EventStore
from tests.oracles import assert_same_csr

# Small sampling knobs keep each evaluation fast; the suite runs several.
SPEC = MetricSpec(path_sample=20, clustering_sample=60, seed=3)
INTERVAL = 15.0


def assert_series_identical(a, b):
    """Element-for-element equality, treating NaN == NaN as equal."""
    assert a.times == b.times
    assert set(a.values) == set(b.values)
    for name in a.values:
        xs = np.asarray(a.values[name])
        ys = np.asarray(b.values[name])
        assert xs.shape == ys.shape
        np.testing.assert_array_equal(xs, ys)


class TestMetricSpec:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            MetricSpec(names=("average_degree", "nope"))

    def test_build_is_deterministic_per_index(self, tiny_csr):
        for index in (0, 7):
            a = SPEC.build(index)
            b = SPEC.build(index)
            for name in SPEC.names:
                va, vb = a[name](tiny_csr), b[name](tiny_csr)
                assert va == vb or (np.isnan(va) and np.isnan(vb))

    def test_names_coerced_to_tuple(self):
        spec = MetricSpec(names=["average_degree"])
        assert spec.names == ("average_degree",)

    def test_fingerprint_distinguishes_params(self):
        assert SPEC.fingerprint() != MetricSpec(path_sample=21, seed=3).fingerprint()
        assert SPEC.fingerprint() != MetricSpec(path_sample=20, seed=4).fingerprint()
        twin = MetricSpec(path_sample=20, clustering_sample=60, seed=3)
        assert SPEC.fingerprint() == twin.fingerprint()


class TestSnapshotTimes:
    def test_matches_serial_snapshot_iterator(self, tiny_stream):
        grid = snapshot_times(tiny_stream.end_time, 7.0)
        serial = [v.time for v in DynamicGraph(tiny_stream).snapshots(interval=7.0)]
        assert grid == serial

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            snapshot_times(10.0, 0.0)


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_equals_serial(self, tiny_stream, workers):
        serial = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=1)
        parallel = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=workers)
        assert_series_identical(serial, parallel)

    def test_more_workers_than_snapshots(self, tiny_stream):
        serial = evaluate_timeseries(tiny_stream, SPEC, interval=25.0, workers=1)
        parallel = evaluate_timeseries(tiny_stream, SPEC, interval=25.0, workers=16)
        assert_series_identical(serial, parallel)

    def test_invalid_workers(self, tiny_stream):
        with pytest.raises(ValueError):
            evaluate_timeseries(tiny_stream, SPEC, workers=0)

    def test_timeseries_facade_accepts_spec(self, tiny_stream):
        direct = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=1)
        via_runtime = compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=2)
        assert_series_identical(direct, via_runtime)


class TestStartMethodContract:
    """The fork-preferred/spawn-fallback contract (docs/runtime.md)."""

    def test_fork_preferred_when_available(self):
        from repro.runtime import parallel

        methods = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in methods else "spawn"
        assert parallel.mp_context().get_start_method() == expected

    def test_spawn_fallback_when_fork_unavailable(self, monkeypatch):
        # On platforms without fork (Windows, macOS defaults) the runtime
        # must quietly fall back to spawn rather than raise.
        from repro.runtime import parallel

        monkeypatch.setattr(
            parallel.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert parallel.mp_context().get_start_method() == "spawn"

    def test_spawn_pool_matches_serial(self, tiny_stream, monkeypatch):
        # Under spawn everything crosses the boundary by pickle (the
        # WORKER_MANIFEST payloads) instead of fork's copy-on-write pages;
        # results must stay bit-identical to the serial path.
        from repro.runtime import parallel

        monkeypatch.setattr(
            parallel, "mp_context", lambda: multiprocessing.get_context("spawn")
        )
        serial = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=1)
        spawned = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL, workers=2)
        assert_series_identical(serial, spawned)


class TestPrefixWindows:
    """Each window replays the stream prefix up to its last snapshot (docs/runtime.md)."""

    @pytest.fixture
    def store_path(self, tiny_stream, tmp_path):
        write_store(tiny_stream, tmp_path / "t.store")
        return tmp_path / "t.store"

    @pytest.mark.parametrize("backing", ["stream", "store"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_window_snapshots_match_the_serial_replay(
        self, tiny_stream, store_path, backing, workers, monkeypatch
    ):
        # Every field of every snapshot, arrival included, and the windows
        # tile the grid and the event columns without gaps.
        from repro.runtime import parallel

        for name in ("_WORKER_STREAM", "_WORKER_STORE", "_WORKER_SPEC"):
            monkeypatch.setattr(parallel, name, None)
        if backing == "store":
            parallel._init_store_worker(str(store_path), SPEC)
        else:
            parallel._init_worker(tiny_stream, SPEC)
        indexed = list(enumerate(snapshot_times(tiny_stream.end_time, INTERVAL)))
        windows = parallel._windows(tiny_stream, indexed, workers)
        assert len(windows) == workers
        assert [pair for *_, times in windows for pair in times] == indexed
        serial = DynamicGraph(tiny_stream)
        cursor = (0, 0)
        for (node_lo, node_hi), (edge_lo, edge_hi) in (w[1:3] for w in windows):
            assert (node_lo, edge_lo) == cursor
            cursor = (node_hi, edge_hi)
        for _, (_, node_hi), (_, edge_hi), times in windows:
            replay = DynamicGraph(parallel._prefix(node_hi, edge_hi))
            for _, time in times:
                want, got = serial.advance_to(time).graph, replay.advance_to(time).graph
                assert (got.arrival is None) == (want.arrival is None)
                assert_same_csr(got, want)
            assert (replay.node_cursor, replay.edge_cursor) == (node_hi, edge_hi)
            assert (serial.node_cursor, serial.edge_cursor) == (node_hi, edge_hi)
        assert cursor == (len(tiny_stream.nodes), len(tiny_stream.edges))

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("backing", ["stream", "store"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_parallel_repr_equals_serial(
        self, tiny_stream, store_path, method, backing, workers, monkeypatch
    ):
        from repro.runtime import parallel

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(parallel, "mp_context", lambda: multiprocessing.get_context(method))
        store = EventStore(store_path) if backing == "store" else None
        serial = evaluate_timeseries(tiny_stream, SPEC, interval=INTERVAL)
        parallel_run = evaluate_timeseries(
            tiny_stream, SPEC, interval=INTERVAL, workers=workers, store=store
        )
        assert repr((parallel_run.times, parallel_run.values)) == repr(
            (serial.times, serial.values)
        )


class TestResultCache:
    def test_second_run_served_from_cache_with_identical_arrays(self, tiny_stream, tmp_path):
        cold = compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.npz"))
        assert len(entries) == 1
        # Poison the evaluator: a cache hit must not replay at all.
        warm = compute_timeseries(
            tiny_stream.__class__(nodes=tiny_stream.nodes, edges=tiny_stream.edges),
            SPEC,
            interval=INTERVAL,
            cache_dir=tmp_path,
        )
        assert_series_identical(cold, warm)
        assert list(tmp_path.glob("*.npz")) == entries

    def test_cache_hit_skips_evaluation(self, tiny_stream, tmp_path, monkeypatch):
        compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit should not re-evaluate")

        monkeypatch.setattr("repro.runtime.api.evaluate_timeseries", boom)
        warm = compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, cache_dir=tmp_path)
        assert len(warm.times) > 0

    def test_key_changes_with_inputs(self, tiny_stream):
        digest = stream_digest(tiny_stream)
        base = series_key(digest, SPEC, INTERVAL, None)
        assert base == series_key(digest, SPEC, INTERVAL, None)
        assert base != series_key(digest, SPEC, INTERVAL + 1.0, None)
        assert base != series_key(digest, SPEC, INTERVAL, 2.0)
        reseeded = MetricSpec(path_sample=20, clustering_sample=60, seed=4)
        assert base != series_key(digest, reseeded, INTERVAL, None)
        assert base != series_key("0" * 64, SPEC, INTERVAL, None)

    def test_stream_digest_sensitive_to_content(self, tiny_stream):
        import dataclasses

        from repro.graph.events import EventStream

        base = stream_digest(tiny_stream)
        assert base == stream_digest(tiny_stream)
        nodes = tiny_stream.nodes
        relabeled = nodes.node.copy()
        relabeled[-1] = 10**9
        tweaked = EventStream(
            nodes=dataclasses.replace(nodes, node=relabeled), edges=tiny_stream.edges
        )
        assert base != stream_digest(tweaked)

    def test_store_load_roundtrip_with_nans(self, tmp_path):
        from repro.metrics.timeseries import MetricTimeseries

        cache = ResultCache(tmp_path)
        series = MetricTimeseries(
            times=[1.0, 2.0], values={"m": [float("nan"), 0.25], "k": [1.5, -3.0]}
        )
        cache.store("k" * 64, encode_series(series))
        loaded = cache.load("k" * 64, decode_series)
        assert loaded is not None
        assert_series_identical(series, loaded)

    def test_load_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).load("f" * 64, decode_series) is None

    def test_corrupt_entry_treated_as_miss(self, tiny_stream, tmp_path):
        cold = compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_text("not an npz file")
        assert ResultCache(tmp_path).load(entry.stem, decode_series) is None
        recovered = compute_timeseries(tiny_stream, SPEC, interval=INTERVAL, cache_dir=tmp_path)
        assert_series_identical(cold, recovered)


class TestAnalysisContextWiring:
    def test_context_metrics_identical_across_worker_counts(self, tmp_path):
        from repro.analysis import AnalysisContext
        from repro.gen.config import presets

        serial = AnalysisContext(presets.tiny(), seed=11)
        parallel = AnalysisContext(presets.tiny(), seed=11, workers=2, cache_dir=tmp_path)
        assert_series_identical(serial.metrics, parallel.metrics)
        # A fresh context with the same inputs is now served from cache.
        cached = AnalysisContext(presets.tiny(), seed=11, workers=1, cache_dir=tmp_path)
        assert_series_identical(serial.metrics, cached.metrics)
