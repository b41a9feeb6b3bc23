"""Windowed, checkpointed, process-parallel metric evaluation.

The snapshot timeline is split into ``workers`` contiguous windows.  A
single cheap structural replay (no metric evaluation) records a
:class:`~repro.graph.checkpoint.ReplayCheckpoint` at each window boundary;
each worker process then resumes from its checkpoint's graph, replays only
its slice of the stream, and evaluates the metric suite with per-snapshot RNGs
(:meth:`~repro.runtime.spec.MetricSpec.build`).  Stitching the per-window
rows back in grid order yields output bit-identical to a serial run.
Every metric reads the :class:`~repro.kernels.csr.CSRGraph` the replay
yields per snapshot.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from repro.graph.checkpoint import ReplayCheckpoint
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

# One row per non-empty snapshot: (grid index, time, values in spec.names
# order, per-metric wall-clock seconds in the same order).
Row = tuple[int, float, list[float], list[float]]

# What one window sends back: its rows plus, when tracing, the worker's
# recorder shard (a plain dict — no recorder object crosses the process
# boundary).
WindowResult = tuple[list[Row], dict[str, Any] | None]

# Worker-process globals.  Under fork they are set in the parent right
# before the pool starts and inherited copy-on-write — the multi-megabyte
# event stream is never pickled.  Under spawn they are installed per worker
# by _init_worker (pickled once per process, not once per window).
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
    stays on disk and each window materializes only its own chunk rows.
    """
    global _WORKER_STORE, _WORKER_SPEC, _WORKER_TRACING
    _WORKER_STORE = EventStore(store_path)
    _WORKER_SPEC = spec
    _WORKER_TRACING = tracing


def _evaluate_rows(
    replay: DynamicGraph,
    spec: MetricSpec,
    indexed_times: list[tuple[int, float]],
) -> list[Row]:
    """Advance ``replay`` through ``indexed_times`` and evaluate the suite.

    Empty snapshots are skipped (matching the serial driver); the RNG for
    each snapshot is keyed by its *grid* index, so skipping never shifts
    downstream randomness.
    """
    rec = get_recorder()
    rows: list[Row] = []
    for index, time in indexed_times:
        node_before, edge_before = replay.node_cursor, replay.edge_cursor
        stage_began = perf_counter()
        with rec.span("replay.advance", snapshot=index):
            view = replay.advance_to(time)
        if rec.enabled:
            rec.count(
                "replay.events",
                (replay.node_cursor - node_before) + (replay.edge_cursor - edge_before),
            )
            rec.observe("replay.advance_seconds", perf_counter() - stage_began)
        if view.graph.num_nodes == 0:
            continue
        fns = spec.build(index)
        values: list[float] = []
        seconds: list[float] = []
        # Profiling metadata only: the timings feed --profile and never
        # influence any computed metric value.
        for name in spec.names:
            with rec.span(f"metric.{name}", snapshot=index):
                began = perf_counter()
                values.append(fns[name](view.graph))
                seconds.append(perf_counter() - began)
            if rec.enabled:
                rec.observe(f"metric.{name}.seconds", seconds[-1])
        rows.append((index, time, values, seconds))
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


# Window payload: the lane, the checkpoint at window entry, this window's
# half-open event-index ranges [node_lo, node_hi) / [edge_lo, edge_hi) and
# its snapshot times.
Window = tuple[
    int,
    ReplayCheckpoint,
    tuple[int, int],
    tuple[int, int],
    list[tuple[int, float]],
]


def _run_window(payload: Window) -> WindowResult:
    """Evaluate one window from its entry checkpoint and its own event rows.

    The worker reads only the window's rows — from the inherited stream,
    or from its own chunks when store-backed — and replays them on top of
    the checkpoint's graph, with the cursors rebased to the window: the
    events it skips are exactly the events the checkpoint graph already
    contains, so every metric value is bit-identical to a serial run.
    """
    lane, checkpoint, (node_lo, node_hi), (edge_lo, edge_hi), indexed_times = payload
    assert _WORKER_SPEC is not None
    spec = _WORKER_SPEC

    def evaluate() -> list[Row]:
        if _WORKER_STORE is not None:
            rows = _WORKER_STORE.slice_events(node_lo, node_hi, edge_lo, edge_hi)
        else:
            assert _WORKER_STREAM is not None
            rows = EventStream(
                nodes=_WORKER_STREAM.nodes[node_lo:node_hi],
                edges=_WORKER_STREAM.edges[edge_lo:edge_hi],
            )
        entry = ReplayCheckpoint(
            time=checkpoint.time, node_index=0, edge_index=0, csr=checkpoint.csr
        )
        return _evaluate_rows(DynamicGraph.from_checkpoint(rows, entry), spec, indexed_times)

    return _traced_rows(lane, evaluate)


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


def _mp_context() -> multiprocessing.context.BaseContext:
    # fork shares the parent's pages (fast start, no re-import); fall back
    # to spawn where fork is unavailable.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def mp_context() -> multiprocessing.context.BaseContext:
    """The runtime's start-method policy, as a public seam.

    Sibling subsystems that run their own pools (``repro.serve``'s shard
    workers) call this instead of re-deciding fork-vs-spawn, so one
    policy governs every pool in the tree.
    """
    return _mp_context()


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
        detail = [_worker_stat(0, "main", rows)]
    else:
        rows, detail = _evaluate_parallel(stream, spec, indexed, workers, store)
    series = MetricTimeseries(values={name: [] for name in spec.names})
    metric_seconds: dict[str, list[float]] = {name: [] for name in spec.names}
    for _, time, values, seconds in sorted(rows):
        series.times.append(time)
        for name, value, spent in zip(spec.names, values, seconds, strict=True):
            series.values[name].append(value)
            metric_seconds[name].append(spent)
    series.profile = {
        "workers": workers,
        "metric_seconds": metric_seconds,
        "worker_detail": detail,
    }
    return series


def _worker_stat(lane: int, label: str, rows: list[Row]) -> dict[str, Any]:
    """One ``worker_detail`` profile row: who evaluated what, for how long."""
    return {
        "worker": lane,
        "label": label,
        "snapshots": len(rows),
        "seconds": sum(sum(seconds) for _, _, _, seconds in rows),
        "cache_hits": 0,
        "cache_misses": 0,
    }


def _evaluate_parallel(
    stream: EventStream,
    spec: MetricSpec,
    indexed: list[tuple[int, float]],
    workers: int,
    store: EventStore | None = None,
) -> tuple[list[Row], list[dict[str, Any]]]:
    rec = get_recorder()
    tracing = rec.enabled
    chunks = _partition(_window_weights(stream, [t for _, t in indexed]), workers)
    # One structural replay to place a checkpoint at each window boundary.
    # It builds one CSR per window and runs no metric, so it is cheap
    # relative to the metric evaluation it unlocks.  The replay also yields
    # each window's event-index range, which is all a worker needs to pull
    # its rows out of the stream or the store.
    payloads: list[Window] = []
    with rec.span("replay.checkpoints", windows=len(chunks)):
        replay = DynamicGraph(stream)
        for lane0, chunk in enumerate(chunks):
            lane = 1 + lane0
            checkpoint = replay.checkpoint()
            replay.advance_to(indexed[chunk[-1]][1])
            payloads.append(
                (
                    lane,
                    checkpoint,
                    (checkpoint.node_index, replay.node_cursor),
                    (checkpoint.edge_index, replay.edge_cursor),
                    [indexed[i] for i in chunk],
                )
            )
    context = _mp_context()
    pool_kwargs: dict[str, Any] = {}
    handoff: contextlib.AbstractContextManager[None] = contextlib.nullcontext()
    if store is not None:
        # The store path is tiny and the chunk pages are shared through the
        # page cache, so both fork and spawn use the same initializer.
        pool_kwargs = {
            "initializer": _init_store_worker,
            "initargs": (str(store.path), spec, tracing),
        }
    elif context.get_start_method() == "fork":
        handoff = _inherited_globals(stream, spec, tracing)
    else:
        pool_kwargs = {"initializer": _init_worker, "initargs": (stream, spec, tracing)}
    rows: list[Row] = []
    detail: list[dict[str, Any]] = []
    shards: list[dict[str, Any]] = []
    with rec.span("runtime.pool", windows=len(payloads)):
        with handoff:
            with ProcessPoolExecutor(
                max_workers=len(payloads), mp_context=context, **pool_kwargs
            ) as pool:
                for lane0, (window_rows, shard) in enumerate(pool.map(_run_window, payloads)):
                    rows.extend(window_rows)
                    detail.append(_worker_stat(1 + lane0, f"worker-{1 + lane0}", window_rows))
                    if shard is not None:
                        shards.append(shard)
    attach_shards(rec, shards)
    return rows, detail


@contextlib.contextmanager
def _inherited_globals(
    stream: EventStream, spec: MetricSpec, tracing: bool
) -> Iterator[None]:
    """Expose the stream/spec to fork-children via the parent's module state.

    Workers are forked lazily on first submit, inside this scope, so they
    inherit the globals; the parent restores its state on exit.
    """
    global _WORKER_STREAM, _WORKER_SPEC, _WORKER_TRACING
    previous = (_WORKER_STREAM, _WORKER_SPEC, _WORKER_TRACING)
    _WORKER_STREAM, _WORKER_SPEC, _WORKER_TRACING = stream, spec, tracing
    try:
        yield
    finally:
        _WORKER_STREAM, _WORKER_SPEC, _WORKER_TRACING = previous
