"""Deterministic merging and inspection of multi-lane trace payloads.

A traced parallel run produces one *shard* per timeline window (see
:meth:`repro.obs.recorder.TraceRecorder.shard`); the parent attaches the
shards as they arrive and sorting happens once, at payload time — so the
merged document is a pure function of the recorded data, independent of
worker scheduling, completion order, or OS pids.

:func:`span_tree` and :func:`aggregate` are the analysis helpers the
summary renderer and the tests share: both consume the payload dict (not
live recorder objects), so they work identically on an in-process trace
and on one read back from disk.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import merge_histogram_dicts, quantile_summary
from repro.obs.recorder import Recorder, SpanRecord, TraceRecorder

__all__ = ["aggregate", "attach_shards", "lane_summary", "span_tree"]


def attach_shards(recorder: Recorder, shards: list[dict[str, Any]]) -> None:
    """Attach worker ``shards`` to ``recorder`` if it collects anything.

    The runtime calls this unconditionally after a parallel run; with
    tracing disabled the shards are all ``None``-filtered upstream and the
    recorder is the no-op singleton, so this degrades to a pass.
    """
    if not isinstance(recorder, TraceRecorder):
        return
    for shard in shards:
        recorder.attach_shard(shard)


def span_tree(payload: dict[str, Any]) -> dict[int, dict[str, int]]:
    """``{lane: {span_path: count}}`` for a trace payload.

    The *tree* is encoded in the paths (``parent/child`` joins), so two
    runs that executed the same work produce equal trees regardless of
    wall-clock timings — this is what the determinism tests compare.
    """
    tree: dict[int, dict[str, int]] = {}
    for lane in payload["lanes"]:
        counts: dict[str, int] = {}
        for span in lane["spans"]:
            path = SpanRecord.from_dict(span).path
            counts[path] = counts.get(path, 0) + 1
        tree[int(lane["lane"])] = counts
    return tree


def aggregate(payload: dict[str, Any]) -> dict[str, Any]:
    """Cross-lane rollup: per-span-name timing stats and summed counters.

    Returns ``{"spans": {name: {count, total_s, self_s, mean_ms}},
    "counters": {name: value}, "gauges": {name: {lane: value}},
    "histograms": {name: summary}}`` with every mapping sorted by key so
    rendering (and test comparison) is stable.  A name's ``self_s`` is its
    ``total_s`` minus the durations of the spans directly nested in it
    (those whose parent path ends in that name), so the ``self_s`` column
    sums to the total of the depth-0 spans.  Same-named histograms from
    different lanes are merged bucket-wise before summarizing, so
    cross-shard quantiles carry the same relative-error bound as a single
    shard's.
    """
    spans: dict[str, dict[str, float]] = {}
    nested_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, dict[int, float]] = {}
    for lane in payload["lanes"]:
        lane_id = int(lane["lane"])
        for span in lane["spans"]:
            name = str(span["name"])
            duration = float(span["duration"])
            row = spans.setdefault(name, {"count": 0, "total_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            if span["parent"]:
                owner = str(span["parent"]).rsplit("/", 1)[-1]
                nested_s[owner] = nested_s.get(owner, 0.0) + duration
        for name, value in lane["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in lane["gauges"].items():
            gauges.setdefault(name, {})[lane_id] = value
    for name, row in spans.items():
        row["self_s"] = row["total_s"] - nested_s.get(name, 0.0)
        row["mean_ms"] = 1000.0 * row["total_s"] / row["count"] if row["count"] else 0.0
    merged = merge_histogram_dicts(
        [lane.get("histograms", {}) for lane in payload["lanes"]]
    )
    return {
        "spans": {name: spans[name] for name in sorted(spans)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: dict(sorted(gauges[name].items())) for name in sorted(gauges)},
        "histograms": {
            name: quantile_summary(merged[name]) for name in sorted(merged)
        },
    }


def lane_summary(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per lane: id, label, pid, span count, busy seconds, peak RSS.

    A lane's ``busy_s`` sums its depth-0 spans only: nested spans lie
    inside their parents' time and would count it twice.
    """
    rows = []
    for lane in payload["lanes"]:
        rows.append(
            {
                "lane": int(lane["lane"]),
                "label": str(lane["label"]),
                "pid": int(lane["pid"]),
                "spans": len(lane["spans"]),
                "busy_s": float(sum(s["duration"] for s in lane["spans"] if s["depth"] == 0)),
                "peak_rss_bytes": float(lane["gauges"].get("worker.peak_rss_bytes", 0.0)),
            }
        )
    return rows
