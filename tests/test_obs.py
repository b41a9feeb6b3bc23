"""Tests for the repro.obs recorder, merge, export, and summary layers."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    SpanRecord,
    TraceRecorder,
    aggregate,
    get_recorder,
    lane_summary,
    read_jsonl,
    render_trace,
    set_recorder,
    span_tree,
    to_chrome,
    use_recorder,
    write_jsonl,
    write_trace,
)


def make_recorder(lane=0, label="main"):
    """A TraceRecorder with a deterministic little span/counter history."""
    rec = TraceRecorder(lane=lane, label=label)
    with rec.span("replay.advance", snapshot=0):
        with rec.span("kernels.csr_build"):
            pass
        with rec.span("metric.average_degree", snapshot=0):
            rec.count("kernels.bfs_sources", 5)
    rec.count("kernels.bfs_sources", 3)
    rec.gauge("worker.peak_rss_bytes", 1024.0)
    rec.gauge("worker.peak_rss_bytes", 512.0)  # below peak: ignored
    return rec


class TestNullRecorder:
    def test_default_recorder_is_the_null_singleton(self):
        assert get_recorder() is NULL_RECORDER
        assert isinstance(get_recorder(), NullRecorder)
        assert get_recorder().enabled is False

    def test_span_reuses_one_context_manager(self):
        # The disabled path must not allocate per call.
        a = NULL_RECORDER.span("x", key=1)
        b = NULL_RECORDER.span("y")
        assert a is b
        with a:
            pass

    def test_count_and_gauge_are_noops(self):
        assert NULL_RECORDER.count("c", 3) is None
        assert NULL_RECORDER.gauge("g", 7.0) is None

    def test_use_recorder_restores_previous(self):
        rec = TraceRecorder()
        with use_recorder(rec) as installed:
            assert installed is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_recorder(TraceRecorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        rec = TraceRecorder()
        assert set_recorder(rec) is NULL_RECORDER
        assert set_recorder(NULL_RECORDER) is rec


class TestTraceRecorder:
    def test_span_nesting_records_parent_paths(self):
        rec = make_recorder()
        by_name = {span.name: span for span in rec.spans}
        assert by_name["replay.advance"].parent == ""
        assert by_name["replay.advance"].depth == 0
        assert by_name["kernels.csr_build"].parent == "replay.advance"
        assert by_name["kernels.csr_build"].depth == 1
        assert by_name["kernels.csr_build"].path == "replay.advance/kernels.csr_build"
        # Children complete (and are recorded) before their parent.
        names = [span.name for span in rec.spans]
        assert names.index("kernels.csr_build") < names.index("replay.advance")

    def test_span_records_attrs_sorted(self):
        rec = TraceRecorder()
        with rec.span("s", zeta=1, alpha=2):
            pass
        assert rec.spans[0].attrs == (("alpha", 2), ("zeta", 1))

    def test_counters_accumulate(self):
        rec = make_recorder()
        assert rec.counters["kernels.bfs_sources"] == 8

    def test_gauges_keep_peak(self):
        rec = make_recorder()
        assert rec.gauges["worker.peak_rss_bytes"] == 1024.0

    def test_durations_are_nonnegative_and_nested(self):
        rec = make_recorder()
        by_name = {span.name: span for span in rec.spans}
        assert all(span.duration >= 0.0 for span in rec.spans)
        assert by_name["kernels.csr_build"].duration <= by_name["replay.advance"].duration

    def test_span_record_dict_round_trip(self):
        rec = make_recorder()
        for span in rec.spans:
            assert SpanRecord.from_dict(span.as_dict()) == span


class TestMerge:
    def test_payload_is_independent_of_attach_order(self):
        shards = [make_recorder(lane=i, label=f"worker-{i}").shard() for i in (1, 2, 3)]
        first = TraceRecorder(lane=0, label="main")
        for shard in shards:
            first.attach_shard(shard)
        second = TraceRecorder(lane=0, label="main")
        for shard in reversed(shards):
            second.attach_shard(shard)
        lanes_a = [lane["lane"] for lane in first.to_payload()["lanes"]]
        lanes_b = [lane["lane"] for lane in second.to_payload()["lanes"]]
        assert lanes_a == lanes_b == [0, 1, 2, 3]
        assert span_tree(first.to_payload()) == span_tree(second.to_payload())

    def test_span_tree_counts_paths_per_lane(self):
        rec = make_recorder()
        tree = span_tree(rec.to_payload())
        assert tree == {
            0: {
                "replay.advance": 1,
                "replay.advance/kernels.csr_build": 1,
                "replay.advance/metric.average_degree": 1,
            }
        }

    def test_aggregate_sums_counters_across_lanes(self):
        rec = make_recorder(lane=0)
        rec.attach_shard(make_recorder(lane=1, label="worker-1").shard())
        rollup = aggregate(rec.to_payload())
        assert rollup["counters"]["kernels.bfs_sources"] == 16
        assert rollup["spans"]["replay.advance"]["count"] == 2
        assert rollup["gauges"]["worker.peak_rss_bytes"] == {0: 1024.0, 1: 1024.0}


class TestExport:
    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        rec = make_recorder()
        rec.attach_shard(make_recorder(lane=1, label="worker-1").shard())
        payload = rec.to_payload()
        path = tmp_path / "run.trace.jsonl"
        write_jsonl(payload, path)
        assert read_jsonl(path) == payload

    def test_read_jsonl_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"foo": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a repro JSONL trace"):
            read_jsonl(path)

    def test_read_jsonl_requires_meta_record(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no meta record"):
            read_jsonl(path)

    def test_chrome_export_schema(self):
        payload = make_recorder().to_payload()
        doc = to_chrome(payload)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases <= {"M", "X", "C"}
        for event in doc["traceEvents"]:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
        # The whole document must be plain JSON.
        json.loads(json.dumps(doc))

    def test_chrome_lanes_become_named_threads(self):
        rec = make_recorder()
        rec.attach_shard(make_recorder(lane=2, label="worker-2").shard())
        names = [
            event["args"]["name"]
            for event in to_chrome(rec.to_payload())["traceEvents"]
            if event["name"] == "thread_name"
        ]
        assert any(name.startswith("main") for name in names)
        assert any(name.startswith("worker-2") for name in names)

    def test_write_trace_picks_format_by_suffix(self, tmp_path):
        payload = make_recorder().to_payload()
        assert write_trace(payload, tmp_path / "a.json") == "chrome"
        assert write_trace(payload, tmp_path / "a.jsonl") == "jsonl"
        chrome = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))
        assert "traceEvents" in chrome
        assert read_jsonl(tmp_path / "a.jsonl") == payload


class TestSummary:
    def test_render_trace_lists_spans_counters_lanes(self):
        text = render_trace(make_recorder().to_payload())
        assert "replay.advance" in text
        assert "kernels.bfs_sources" in text
        assert "main" in text
        assert "peak MB" in text


def nested_payload():
    """Two lanes of hand-timed spans: ``a`` ⊃ ``b`` ⊃ ``c`` and a second root ``d``."""

    def span(name, duration, parent=""):
        depth = len(parent.split("/")) if parent else 0
        return SpanRecord(name, 0.0, duration, depth, parent, ()).as_dict()

    lanes = []
    for lane in (0, 1):
        lanes.append({
            "lane": lane,
            "label": f"lane-{lane}",
            "pid": 1,
            "spans": [
                span("c", 0.125, "a/b"),
                span("b", 0.375, "a"),
                span("a", 1.0),
                span("d", 0.5),
            ],
            "counters": {},
            "gauges": {},
        })
    return {"version": 1, "lanes": lanes}


class TestSelfAndBusyTime:
    def test_lane_busy_seconds_sum_root_spans_only(self):
        rows = lane_summary(nested_payload())
        assert [row["busy_s"] for row in rows] == [1.5, 1.5]
        assert [row["spans"] for row in rows] == [4, 4]

    def test_self_time_subtracts_directly_nested_spans(self):
        spans = aggregate(nested_payload())["spans"]
        assert {name: row["self_s"] for name, row in spans.items()} == {
            "a": 2 * (1.0 - 0.375),
            "b": 2 * (0.375 - 0.125),
            "c": 2 * 0.125,
            "d": 2 * 0.5,
        }
        assert spans["a"]["total_s"] == 2.0

    def test_self_time_column_sums_to_root_span_total(self):
        payload = nested_payload()
        self_total = sum(row["self_s"] for row in aggregate(payload)["spans"].values())
        busy_total = sum(row["busy_s"] for row in lane_summary(payload))
        assert self_total == busy_total == 3.0

    def test_rendered_tables_carry_self_and_busy_seconds(self):
        lines = render_trace(nested_payload()).splitlines()
        assert lines[1].split() == ["a", "2", "2.000", "1.250", "1000.00"]
        lane_rows = [line.split() for line in lines if line.strip().startswith(("0 ", "1 "))]
        assert [row[4] for row in lane_rows] == ["1.500", "1.500"]
