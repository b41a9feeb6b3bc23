"""Windowed, process-parallel metric evaluation.

The snapshot timeline is split into ``workers`` contiguous windows.  A
window is its event bounds and its snapshot times: each worker replays the
stream prefix up to its last snapshot and evaluates the metric suite with
per-snapshot RNGs (:meth:`~repro.runtime.spec.MetricSpec.build`).  A
snapshot is a pure function of the stream prefix, so every worker's graph
equals the serial replay's bit for bit, and stitching the per-window rows
back in grid order yields output bit-identical to a serial run.  Every
metric reads the :class:`~repro.kernels.csr.CSRGraph` the replay yields
per snapshot.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import (
    TraceRecorder,
    attach_shards,
    get_recorder,
    peak_rss_bytes,
    perf_counter,
    use_recorder,
)
from repro.runtime.spec import MetricSpec, snapshot_times
from repro.store.reader import EventStore

__all__ = ["evaluate_timeseries", "mp_context"]

# One row per non-empty snapshot: (grid index, time, values in spec.names order).
Row = tuple[int, float, list[float]]

# What one window sends back: its rows plus, when tracing, the worker's
# recorder shard (a plain dict — no recorder object crosses the process
# boundary).
WindowResult = tuple[list[Row], dict[str, Any] | None]

# Worker-process globals, installed once per process by the pool
# initializer.  Under fork the initializer's arguments reach the child as
# the forked process's own arguments, so the event stream is never
# pickled; under spawn it is pickled once per process, not once per window.
_WORKER_STREAM: EventStream | None = None
_WORKER_SPEC: MetricSpec | None = None
_WORKER_STORE: EventStore | None = None
_WORKER_TRACING: bool = False


def _init_worker(stream: EventStream, spec: MetricSpec, tracing: bool = False) -> None:
    global _WORKER_STREAM, _WORKER_SPEC, _WORKER_TRACING
    _WORKER_STREAM = stream
    _WORKER_SPEC = spec
    _WORKER_TRACING = tracing


def _init_store_worker(store_path: str, spec: MetricSpec, tracing: bool = False) -> None:
    """Install the store-backed worker state: a memmap handle, not a stream.

    Opening a store is O(chunks) stat calls; the event payload itself
    stays on disk and each window decodes only its own stream prefix.
    """
    global _WORKER_STORE, _WORKER_SPEC, _WORKER_TRACING
    _WORKER_STORE = EventStore(store_path)
    _WORKER_SPEC = spec
    _WORKER_TRACING = tracing


def _evaluate_rows(
    replay: DynamicGraph,
    spec: MetricSpec,
    indexed_times: list[tuple[int, float]],
    cursor: tuple[int, int] = (0, 0),
) -> list[Row]:
    """Advance ``replay`` through ``indexed_times`` and evaluate the suite.

    Empty snapshots are skipped (matching the serial driver); the RNG for
    each snapshot is keyed by its *grid* index, so skipping never shifts
    downstream randomness.  ``cursor`` is where the previous window's
    replay stopped, so ``replay.events`` counts only this window's events.
    """
    rec = get_recorder()
    rows: list[Row] = []
    node_before, edge_before = cursor
    for index, time in indexed_times:
        stage_began = perf_counter()
        with rec.span("replay.advance", snapshot=index):
            view = replay.advance_to(time)
        if rec.enabled:
            rec.count(
                "replay.events",
                (replay.node_cursor - node_before) + (replay.edge_cursor - edge_before),
            )
            rec.observe("replay.advance_seconds", perf_counter() - stage_began)
        node_before, edge_before = replay.node_cursor, replay.edge_cursor
        if view.graph.num_nodes == 0:
            continue
        fns = spec.build(index)
        values: list[float] = []
        for name in spec.names:
            with rec.span(f"metric.{name}", snapshot=index):
                began = perf_counter()
                values.append(fns[name](view.graph))
            if rec.enabled:
                rec.observe(f"metric.{name}.seconds", perf_counter() - began)
        rows.append((index, time, values))
        if rec.enabled:
            rec.count("runtime.snapshots", 1)
    return rows


def _traced_rows(lane: int, evaluate: Callable[[], list[Row]]) -> WindowResult:
    """Run one window's evaluation, collecting a trace shard when enabled.

    Tracing installs a fresh per-process :class:`TraceRecorder` whose lane
    is the *window index* (1-based; lane 0 is the parent) — a stable
    identity independent of which OS process picked the window up — so the
    merged trace is deterministic under any scheduling.  The recorder is
    purely observational: it consumes no randomness, so the rows are
    bit-identical with tracing on or off.
    """
    if not _WORKER_TRACING:
        return evaluate(), None
    recorder = TraceRecorder(lane=lane, label=f"worker-{lane}")
    with use_recorder(recorder):
        rows = evaluate()
        recorder.gauge("worker.peak_rss_bytes", peak_rss_bytes())
    return rows, recorder.shard()


# Window payload: the lane, this window's half-open event-index ranges
# [node_lo, node_hi) / [edge_lo, edge_hi) and its snapshot times.
Window = tuple[int, tuple[int, int], tuple[int, int], list[tuple[int, float]]]


def _run_window(payload: Window) -> WindowResult:
    """Evaluate one window by replaying the stream prefix up to its end.

    The worker reads rows ``[0, node_hi)`` / ``[0, edge_hi)`` — from the
    stream its initializer installed, or from the store's chunks when
    store-backed — so every snapshot it builds is the serial replay's.
    """
    lane, (node_lo, node_hi), (edge_lo, edge_hi), indexed_times = payload
    assert _WORKER_SPEC is not None
    spec = _WORKER_SPEC

    def evaluate() -> list[Row]:
        replay = DynamicGraph(_prefix(node_hi, edge_hi))
        return _evaluate_rows(replay, spec, indexed_times, (node_lo, edge_lo))

    return _traced_rows(lane, evaluate)


def _prefix(node_hi: int, edge_hi: int) -> EventStream:
    """The worker's first ``node_hi`` node and ``edge_hi`` edge events."""
    if _WORKER_STORE is not None:
        return _WORKER_STORE.slice_events(0, node_hi, 0, edge_hi)
    assert _WORKER_STREAM is not None
    return EventStream(nodes=_WORKER_STREAM.nodes[:node_hi], edges=_WORKER_STREAM.edges[:edge_hi])


def _windows(
    stream: EventStream, indexed: list[tuple[int, float]], workers: int
) -> list[Window]:
    """Split the grid into weight-balanced windows with their event bounds.

    A window's events end at its last snapshot time, so its bounds are two
    ``searchsorted`` calls; no replay runs in the parent.
    """
    chunks = _partition(_window_weights(stream, [t for _, t in indexed]), workers)
    ends = [indexed[chunk[-1]][1] for chunk in chunks]
    node_at = [0, *np.searchsorted(stream.nodes.time, ends, side="right").tolist()]
    edge_at = [0, *np.searchsorted(stream.edges.time, ends, side="right").tolist()]
    return [
        (
            lane,
            (node_at[lane - 1], node_at[lane]),
            (edge_at[lane - 1], edge_at[lane]),
            [indexed[i] for i in chunk],
        )
        for lane, chunk in enumerate(chunks, start=1)
    ]


def _window_weights(stream: EventStream, times: list[float]) -> list[float]:
    """Predicted relative cost of evaluating the snapshot at each time.

    Metric cost is dominated by sampled BFS, which is linear in the edge
    count of the snapshot — so the edge count at each grid time (plus a
    constant floor) is a good balance weight.
    """
    counts = np.searchsorted(stream.edges.time, times, side="right")
    return [1.0 + n for n in counts.tolist()]


def _partition(weights: list[float], parts: int) -> list[list[int]]:
    """Split indices into at most ``parts`` contiguous, weight-balanced chunks.

    Snapshot cost grows with graph size, so equal-*count* windows would
    leave the final worker holding most of the work; cutting at cumulative
    weight quantiles keeps wall-clock close to ``total / parts``.
    """
    count = len(weights)
    parts = max(1, min(parts, count))
    chunks: list[list[int]] = []
    start = 0
    remaining = sum(weights)
    for part in range(parts, 1, -1):
        target = remaining / part
        limit = count - (part - 1)  # leave at least one snapshot per later chunk
        cut = start + 1
        acc = weights[start]
        # Take the next snapshot while its midpoint still fits the target,
        # so over- and under-shoot stay balanced.
        while cut < limit and acc + weights[cut] / 2.0 <= target:
            acc += weights[cut]
            cut += 1
        chunks.append(list(range(start, cut)))
        remaining -= acc
        start = cut
    chunks.append(list(range(start, count)))
    return chunks


def mp_context() -> multiprocessing.context.BaseContext:
    """The start-method policy every pool in the tree uses.

    fork shares the parent's pages (fast start, no re-import); spawn is
    the fallback where fork is unavailable.  Sibling subsystems that run
    their own pools (``repro.serve``'s shard workers) call this instead
    of re-deciding fork-vs-spawn.
    """
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def evaluate_timeseries(
    stream: EventStream,
    spec: MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    workers: int = 1,
    store: EventStore | None = None,
) -> MetricTimeseries:
    """Evaluate ``spec`` on snapshots of ``stream`` every ``interval`` days.

    ``workers=1`` runs in-process; ``workers>1`` fans contiguous timeline
    windows out to a process pool.  Both paths produce bit-identical
    results for the same ``(stream, spec, interval, start)``.

    ``store`` (when the stream came from a columnar store) changes only
    *how* parallel workers receive their events: instead of inheriting or
    pickling the whole stream, each worker memmaps the store and decodes
    just its own window's chunk rows.  It must hold the same events as
    ``stream``; :func:`repro.runtime.api.compute_timeseries` wires this up
    automatically for :class:`~repro.store.reader.EventStore` inputs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    times = snapshot_times(stream.end_time, interval, start)
    indexed = list(enumerate(times))
    if workers == 1 or len(indexed) < 2:
        rows = _evaluate_rows(DynamicGraph(stream), spec, indexed)
    else:
        rows = _evaluate_parallel(stream, spec, indexed, workers, store)
    series = MetricTimeseries(values={name: [] for name in spec.names})
    for _, time, values in sorted(rows):
        series.times.append(time)
        for name, value in zip(spec.names, values, strict=True):
            series.values[name].append(value)
    return series


def _evaluate_parallel(
    stream: EventStream,
    spec: MetricSpec,
    indexed: list[tuple[int, float]],
    workers: int,
    store: EventStore | None = None,
) -> list[Row]:
    rec = get_recorder()
    tracing = rec.enabled
    payloads = _windows(stream, indexed, workers)
    pool_kwargs: dict[str, Any]
    if store is not None:
        # The store path is tiny and the chunk pages are shared through the
        # page cache, so workers decode their prefix rather than receive it.
        pool_kwargs = {
            "initializer": _init_store_worker,
            "initargs": (str(store.path), spec, tracing),
        }
    else:
        pool_kwargs = {"initializer": _init_worker, "initargs": (stream, spec, tracing)}
    rows: list[Row] = []
    shards: list[dict[str, Any]] = []
    with rec.span("runtime.pool", windows=len(payloads)):
        with ProcessPoolExecutor(
            max_workers=len(payloads), mp_context=mp_context(), **pool_kwargs
        ) as pool:
            for window_rows, shard in pool.map(_run_window, payloads):
                rows.extend(window_rows)
                if shard is not None:
                    shards.append(shard)
    attach_shards(rec, shards)
    return rows
