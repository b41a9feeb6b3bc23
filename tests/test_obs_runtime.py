"""Integration tests: tracing wired through runtime, store, cache, and CLI.

The contract under test is the ISSUE-5 acceptance bar: tracing must be
strictly observational (identical metric values with tracing on or off,
serial or parallel), the merged trace must cover every hot layer with
stable per-window lanes, and the CLI round trip (``--trace`` then
``repro obs summarize|export``) must work on the produced file.
"""

import json

import pytest

from repro.cli import main
from repro.graph.stream_io import write_event_stream
from repro.obs import (
    NULL_RECORDER,
    TraceRecorder,
    aggregate,
    get_recorder,
    lane_summary,
    span_tree,
    use_recorder,
)
from repro.runtime import MetricSpec, compute_timeseries

SPEC = MetricSpec(path_sample=30, clustering_sample=50, seed=0)


def traced_run(stream, workers=1, cache_dir=None, store=None):
    """Compute the timeseries under a fresh recorder; returns (series, payload)."""
    recorder = TraceRecorder(lane=0, label="main")
    with use_recorder(recorder):
        series = compute_timeseries(
            store if store is not None else stream,
            SPEC,
            interval=15.0,
            workers=workers,
            cache_dir=cache_dir,
        )
    assert get_recorder() is NULL_RECORDER
    return series, recorder.to_payload()


class TestTracingIsObservational:
    def test_traced_and_untraced_values_identical(self, tiny_stream):
        plain = compute_timeseries(tiny_stream, SPEC, interval=15.0)
        traced, _ = traced_run(tiny_stream)
        assert traced.times == plain.times
        assert traced.values == plain.values

    def test_serial_and_parallel_traced_values_identical(self, tiny_stream):
        serial, _ = traced_run(tiny_stream, workers=1)
        parallel, _ = traced_run(tiny_stream, workers=3)
        assert parallel.times == serial.times
        assert parallel.values == serial.values

    def test_parallel_span_tree_is_deterministic(self, tiny_stream):
        # Same inputs -> same windows -> same per-lane span paths and
        # counts, no matter how the OS scheduled the worker processes.
        _, first = traced_run(tiny_stream, workers=3)
        _, second = traced_run(tiny_stream, workers=3)
        assert span_tree(first) == span_tree(second)


class TestTraceCoverage:
    def test_serial_trace_covers_replay_and_kernels(self, tiny_stream):
        _, payload = traced_run(tiny_stream)
        paths = set(span_tree(payload)[0])
        names = {path.rsplit("/", 1)[-1] for path in paths}
        assert "replay.advance" in names
        # Every kernel family of the csr backend appears.
        for kernel in (
            "kernels.path_length",
            "kernels.components",
            "kernels.clustering",
            "kernels.assortativity",
        ):
            assert kernel in names, f"{kernel} missing from {sorted(names)}"
        counters = payload["lanes"][0]["counters"]
        assert counters["runtime.snapshots"] > 0
        assert counters["replay.events"] > 0
        assert counters["kernels.bfs_sources"] > 0

    def test_parallel_trace_has_one_stable_lane_per_window(self, tiny_stream):
        _, payload = traced_run(tiny_stream, workers=3)
        lanes = {lane["lane"]: lane["label"] for lane in payload["lanes"]}
        assert lanes == {0: "main", 1: "worker-1", 2: "worker-2", 3: "worker-3"}
        for lane in payload["lanes"]:
            if lane["lane"] == 0:
                continue
            names = {span["name"] for span in lane["spans"]}
            assert "replay.advance" in names
            assert lane["gauges"]["worker.peak_rss_bytes"] > 0

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_window_replay_events_sum_to_the_serial_count(self, tiny_stream, tmp_path, workers):
        # A window replays its whole prefix but counts only its own events.
        from repro.store.convert import write_store
        from repro.store.reader import EventStore

        write_store(tiny_stream, tmp_path / "t.store")
        store = EventStore(tmp_path / "t.store")
        _, serial = traced_run(tiny_stream)
        want = serial["lanes"][0]["counters"]["replay.events"]
        assert want == len(tiny_stream.nodes) + len(tiny_stream.edges)
        for backing in (None, store):
            _, payload = traced_run(tiny_stream, workers=workers, store=backing)
            lanes = [lane for lane in payload["lanes"] if lane["lane"] > 0]
            assert len(lanes) == workers
            assert sum(lane["counters"]["replay.events"] for lane in lanes) == want

    def test_store_and_cache_spans_recorded(self, tiny_stream, tmp_path):
        from repro.store.convert import write_store
        from repro.store.reader import EventStore

        write_store(tiny_stream, tmp_path / "t.store")
        store = EventStore(tmp_path / "t.store")
        cache_dir = tmp_path / "cache"
        _, cold = traced_run(tiny_stream, workers=2, cache_dir=cache_dir, store=store)
        tree = span_tree(cold)
        parent_names = {path.rsplit("/", 1)[-1] for path in tree[0]}
        assert "store.decode" in parent_names
        assert "cache.lookup" in parent_names
        assert "cache.store" in parent_names
        worker_names = {
            path.rsplit("/", 1)[-1] for lane, paths in tree.items() if lane > 0
            for path in paths
        }
        assert "store.slice" in worker_names
        counters = cold["lanes"][0]["counters"]
        assert counters["cache.misses"] == 1
        # Second run: pure cache hit, still traced.
        _, warm = traced_run(tiny_stream, cache_dir=cache_dir, store=store)
        assert warm["lanes"][0]["counters"]["cache.hits"] == 1

    def test_tracing_off_records_nothing(self, tiny_stream):
        assert get_recorder() is NULL_RECORDER
        compute_timeseries(tiny_stream, SPEC, interval=15.0, workers=2)
        assert get_recorder() is NULL_RECORDER


class TestWorkerDetailProfile:
    """Per-worker attribution, read from the trace's lanes and counters."""

    def test_serial_profile_attributes_all_snapshots_to_main(self, tiny_stream):
        series, payload = traced_run(tiny_stream)
        assert [lane["lane"] for lane in payload["lanes"]] == [0]
        assert payload["lanes"][0]["label"] == "main"
        assert payload["lanes"][0]["counters"]["runtime.snapshots"] == len(series.times)

    def test_parallel_profile_has_one_row_per_worker(self, tiny_stream):
        series, payload = traced_run(tiny_stream, workers=3)
        assert [lane["lane"] for lane in payload["lanes"]] == [0, 1, 2, 3]
        snapshots = [lane["counters"].get("runtime.snapshots", 0) for lane in payload["lanes"]]
        assert snapshots[0] == 0
        assert sum(snapshots) == len(series.times)
        assert [row["lane"] for row in lane_summary(payload)] == [0, 1, 2, 3]

    def test_cache_traffic_lands_on_main_row(self, tiny_stream, tmp_path):
        cache_dir = tmp_path / "cache"
        cold, _ = traced_run(tiny_stream, workers=2, cache_dir=cache_dir)
        assert not cold.cached
        series, payload = traced_run(tiny_stream, workers=2, cache_dir=cache_dir)
        assert series.cached
        assert [lane["lane"] for lane in payload["lanes"]] == [0]
        counters = payload["lanes"][0]["counters"]
        assert counters["cache.hits"] == 1
        assert "cache.misses" not in counters
        # A pure cache hit evaluated nothing.
        assert "runtime.snapshots" not in counters

    @pytest.mark.parametrize("workers", [1, 2])
    def test_self_times_sum_to_root_spans(self, tiny_stream, workers):
        _, payload = traced_run(tiny_stream, workers=workers)
        busy = sum(row["busy_s"] for row in lane_summary(payload))
        self_total = sum(row["self_s"] for row in aggregate(payload)["spans"].values())
        assert busy > 0.0
        assert self_total == pytest.approx(busy, rel=1e-9)


@pytest.fixture()
def trace_path(tmp_path, tiny_stream):
    path = tmp_path / "trace.tsv"
    write_event_stream(tiny_stream, path)
    return str(path)


class TestCLITraceRoundTrip:
    def test_metrics_trace_then_summarize(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.trace.jsonl"
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--trace", str(out),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "trace: wrote jsonl trace" in captured.err
        assert "trace:" not in captured.out
        assert out.exists()
        assert main(["obs", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "replay.advance" in summary
        assert "main" in summary

    def test_trace_export_produces_chrome_json(self, trace_path, tmp_path, capsys):
        src = tmp_path / "run.trace.jsonl"
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--trace", str(src),
        ]
        assert main(args) == 0
        capsys.readouterr()
        dst = tmp_path / "run.json"
        assert main(["obs", "export", str(src), str(dst)]) == 0
        assert "chrome" in capsys.readouterr().out
        doc = json.loads(dst.read_text(encoding="utf-8"))
        assert {event["ph"] for event in doc["traceEvents"]} <= {"M", "X", "C"}

    def test_direct_chrome_trace_from_json_suffix(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.json"
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--trace", str(out),
        ]
        assert main(args) == 0
        assert "chrome trace" in capsys.readouterr().err
        assert "traceEvents" in json.loads(out.read_text(encoding="utf-8"))

    def test_traced_json_stdout_stays_machine_readable(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.trace.jsonl"
        args = [
            "metrics", trace_path, "--interval", "30", "--path-sample", "30",
            "--json", "--profile", "--trace", str(out),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # would fail if a table hit stdout
        assert set(payload) == {"times", "values"}
        assert "replay.advance" in captured.err

    def test_traced_values_match_untraced_cli_run(self, trace_path, tmp_path, capsys):
        base = ["metrics", trace_path, "--interval", "30", "--path-sample", "30"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        assert main(base + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out == untraced

    def test_summarize_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-trace.jsonl"
        bogus.write_text("hello\n", encoding="utf-8")
        assert main(["obs", "summarize", str(bogus)]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""
