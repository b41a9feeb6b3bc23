"""Windowed, checkpointed, process-parallel metric evaluation.

The snapshot timeline is split into ``workers`` contiguous windows.  A
single cheap structural replay (no metric evaluation) records a
:class:`~repro.graph.checkpoint.ReplayCheckpoint` at each window boundary;
each worker process then restores its checkpoint, replays only its slice
of the stream, and evaluates the metric suite with per-snapshot RNGs
(:meth:`~repro.runtime.spec.MetricSpec.build`).  Stitching the per-window
rows back in grid order yields output bit-identical to a serial run.

Each replay runs on one of two bit-identical engines, chosen by
:func:`select_engine` from the replay's own shape: the csr kernels rebuild
a :class:`~repro.kernels.csr.CSRGraph` per snapshot, while the delta engine
(:mod:`repro.kernels.delta`) maintains the graph and its clustering,
degree and assortativity accumulators event by event.
"""

from __future__ import annotations

import bisect
import contextlib
import multiprocessing
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from repro.kernels.delta import DeltaEngineState, DeltaMetricEngine
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import (
    TraceRecorder,
    attach_shards,
    get_recorder,
    peak_rss_bytes,
    perf_counter,
    use_recorder,
)
from repro.runtime.spec import DELTA_METRIC_NAMES, MetricSpec, snapshot_times
from repro.store.reader import EventStore

__all__ = ["DELTA_MIN_SNAPSHOTS", "evaluate_timeseries", "mp_context", "select_engine"]

# The shortest replay, in snapshot-grid points, that runs on the delta
# engine when the suite includes clustering.  Delta pays an event-by-event
# replay up front and wins it back only on clustering (maintained triangle
# counts instead of per-snapshot neighborhood intersections).  For the full
# suite the two engines are within noise between 10 and 20 snapshots and
# delta wins from there on (measurements in docs/incremental.md).
DELTA_MIN_SNAPSHOTS = 20

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


def select_engine(spec: MetricSpec, snapshots: int) -> str:
    """``"delta"`` or ``"csr"`` for a replay of ``spec`` over ``snapshots`` grid points.

    Delta iff the suite asks for ``average_clustering`` and the grid has at
    least :data:`DELTA_MIN_SNAPSHOTS` points.  Both engines produce
    bit-identical series, so the choice only moves wall time.
    """
    if "average_clustering" in spec.names and snapshots >= DELTA_MIN_SNAPSHOTS:
        return "delta"
    return "csr"


def _evaluate_rows(
    replay: DynamicGraph,
    spec: MetricSpec,
    indexed_times: list[tuple[int, float]],
    engine: DeltaMetricEngine | None = None,
) -> list[Row]:
    """Advance ``replay`` through ``indexed_times`` and evaluate the suite.

    Empty snapshots are skipped (matching the serial driver); the RNG for
    each snapshot is keyed by its *grid* index, so skipping never shifts
    downstream randomness.

    Without an ``engine`` (the csr engine), the snapshot is converted to
    CSR once and the one :class:`~repro.kernels.csr.CSRGraph` is shared by
    every metric — the conversion cost amortizes across the suite.

    With an ``engine`` (positioned exactly at the replay's cursor — a fresh
    engine for a from-scratch replay, a checkpoint-restored one for a
    window), it consumes each window's events and serves the
    delta-maintained metrics; a frozen CSR is produced only when a
    non-delta metric (sampled BFS) needs one.
    """
    needs_csr = any(n not in DELTA_METRIC_NAMES for n in spec.names)
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
        if engine is not None:
            engine.apply_view(view.new_nodes, view.new_edges)
        if view.graph.num_nodes == 0:
            continue
        csr = None
        if engine is None:
            stage_began = perf_counter()
            with rec.span("kernels.csr_build", snapshot=index):
                csr = CSRGraph.from_snapshot(view.graph)
            if rec.enabled:
                rec.observe("kernels.csr_build_seconds", perf_counter() - stage_began)
        elif needs_csr:
            stage_began = perf_counter()
            with rec.span("delta.csr_merge", snapshot=index):
                csr = engine.to_csr()
            if rec.enabled:
                rec.observe("delta.csr_merge_seconds", perf_counter() - stage_began)
        if engine is not None:
            fns = spec.build_delta(index, engine)
        else:
            fns = spec.build(index)
        values: list[float] = []
        seconds: list[float] = []
        # Profiling metadata only: the timings feed --profile and never
        # influence any computed metric value.
        for name in spec.names:
            with rec.span(f"metric.{name}", snapshot=index):
                began = perf_counter()
                values.append(fns[name](view.graph, csr))
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


# Stream-window payload: the lane, the checkpoint, this window's snapshot
# times, and (delta engine only) the engine state frozen at the window's
# entry checkpoint, from which the worker resumes.
Window = tuple[
    int, ReplayCheckpoint, list[tuple[int, float]], DeltaEngineState | None
]


def _run_window(payload: Window) -> WindowResult:
    lane, checkpoint, indexed_times, estate = payload
    assert _WORKER_STREAM is not None and _WORKER_SPEC is not None
    stream, spec = _WORKER_STREAM, _WORKER_SPEC

    def evaluate() -> list[Row]:
        replay = DynamicGraph.from_checkpoint(stream, checkpoint)
        engine = None if estate is None else DeltaMetricEngine.from_state(estate)
        return _evaluate_rows(replay, spec, indexed_times, engine)

    return _traced_rows(lane, evaluate)


# Store-window payload: the lane, the checkpoint, this window's half-open
# event-index ranges [node_lo, node_hi) / [edge_lo, edge_hi), its snapshot
# times, and the optional delta engine state at window entry.
StoreWindow = tuple[
    int,
    ReplayCheckpoint,
    tuple[int, int],
    tuple[int, int],
    list[tuple[int, float]],
    DeltaEngineState | None,
]


def _run_store_window(payload: StoreWindow) -> WindowResult:
    """Evaluate one window reading only its own chunk rows from the store.

    The checkpoint's cursors are rebased to zero against the window-local
    sub-stream: the events it skips are exactly the events the checkpoint
    graph already contains, so replay — and therefore every metric value —
    is bit-identical to the full-stream path.
    """
    lane, checkpoint, (node_lo, node_hi), (edge_lo, edge_hi), indexed_times, estate = payload
    assert _WORKER_STORE is not None and _WORKER_SPEC is not None
    store, spec = _WORKER_STORE, _WORKER_SPEC

    def evaluate() -> list[Row]:
        substream = store.slice_events(node_lo, node_hi, edge_lo, edge_hi)
        rebased = ReplayCheckpoint(
            time=checkpoint.time, node_index=0, edge_index=0, csr=checkpoint.csr
        )
        replay = DynamicGraph.from_checkpoint(substream, rebased)
        engine = None if estate is None else DeltaMetricEngine.from_state(estate)
        return _evaluate_rows(replay, spec, indexed_times, engine)

    return _traced_rows(lane, evaluate)


def _window_weights(stream: EventStream, times: list[float]) -> list[float]:
    """Predicted relative cost of evaluating the snapshot at each time.

    Metric cost is dominated by sampled BFS, which is linear in the edge
    count of the snapshot — so the edge count at each grid time (plus a
    constant floor) is a good balance weight.
    """
    edge_times = [ev.time for ev in stream.edges]
    return [1.0 + bisect.bisect_right(edge_times, t) for t in times]


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
    results for the same ``(stream, spec, interval, start)``, on whichever
    engine :func:`select_engine` picks; ``profile["backend"]`` records it.

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
    backend = select_engine(spec, len(times))
    use_delta = backend == "delta"
    if workers == 1 or len(indexed) < 2:
        engine = DeltaMetricEngine() if use_delta else None
        rows = _evaluate_rows(DynamicGraph(stream), spec, indexed, engine)
        detail = [_worker_stat(0, "main", rows)]
    else:
        rows, detail = _evaluate_parallel(stream, spec, indexed, workers, use_delta, store)
    series = MetricTimeseries(values={name: [] for name in spec.names})
    metric_seconds: dict[str, list[float]] = {name: [] for name in spec.names}
    for _, time, values, seconds in sorted(rows):
        series.times.append(time)
        for name, value, spent in zip(spec.names, values, seconds, strict=True):
            series.values[name].append(value)
            metric_seconds[name].append(spent)
    series.profile = {
        "backend": backend,
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
    use_delta: bool,
    store: EventStore | None = None,
) -> tuple[list[Row], list[dict[str, Any]]]:
    rec = get_recorder()
    tracing = rec.enabled
    chunks = _partition(_window_weights(stream, [t for _, t in indexed]), workers)
    # One structural replay to place a checkpoint at each window boundary.
    # This is O(events) with no metric work, so it is cheap relative to the
    # metric evaluation it unlocks.  For store-backed runs the replay also
    # yields each window's event-index range, which is all a worker needs
    # to pull its slice out of the store.  On the delta engine the parent
    # additionally feeds a metric engine so each checkpoint carries the
    # accumulator state its window's worker resumes from; the
    # accumulators are pure functions of the edge set, so worker rows stay
    # bit-identical to a serial delta run.
    payloads: list[Any] = []
    parent_engine = DeltaMetricEngine() if use_delta else None
    with rec.span("replay.checkpoints", windows=len(chunks)):
        replay = DynamicGraph(stream)
        for lane0, chunk in enumerate(chunks):
            lane = 1 + lane0
            checkpoint = replay.checkpoint()
            estate = None if parent_engine is None else parent_engine.state()
            view = replay.advance_to(indexed[chunk[-1]][1])
            if parent_engine is not None:
                parent_engine.apply_view(view.new_nodes, view.new_edges)
            window_times = [indexed[i] for i in chunk]
            if store is not None:
                payloads.append(
                    (
                        lane,
                        checkpoint,
                        (checkpoint.node_index, replay.node_cursor),
                        (checkpoint.edge_index, replay.edge_cursor),
                        window_times,
                        estate,
                    )
                )
            else:
                payloads.append((lane, checkpoint, window_times, estate))
    context = _mp_context()
    pool_kwargs: dict[str, Any] = {}
    handoff: contextlib.AbstractContextManager[None] = contextlib.nullcontext()
    run: Callable[[Any], WindowResult]
    if store is not None:
        # The store path is tiny and the chunk pages are shared through the
        # page cache, so both fork and spawn use the same initializer.
        run = _run_store_window
        pool_kwargs = {
            "initializer": _init_store_worker,
            "initargs": (str(store.path), spec, tracing),
        }
    elif context.get_start_method() == "fork":
        run = _run_window
        handoff = _inherited_globals(stream, spec, tracing)
    else:
        run = _run_window
        pool_kwargs = {"initializer": _init_worker, "initargs": (stream, spec, tracing)}
    rows: list[Row] = []
    detail: list[dict[str, Any]] = []
    shards: list[dict[str, Any]] = []
    with rec.span("runtime.pool", windows=len(payloads)):
        with handoff:
            with ProcessPoolExecutor(
                max_workers=len(payloads), mp_context=context, **pool_kwargs
            ) as pool:
                for lane0, (window_rows, shard) in enumerate(pool.map(run, payloads)):
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
