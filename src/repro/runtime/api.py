"""The runtime front door: cache lookup around parallel evaluation.

:func:`compute_timeseries` is what the CLI, :class:`AnalysisContext`, and
:func:`repro.metrics.timeseries.compute_metric_timeseries` (when handed a
:class:`~repro.runtime.spec.MetricSpec`) all call.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.runtime.cache import ResultCache, stream_digest
from repro.runtime.parallel import evaluate_timeseries, select_engine
from repro.runtime.spec import MetricSpec, snapshot_times
from repro.store.reader import EventStore

__all__ = ["compute_timeseries"]


def compute_timeseries(
    stream: EventStream | EventStore,
    spec: MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> MetricTimeseries:
    """Evaluate ``spec`` over ``stream``, with optional caching.

    ``cache_dir=None`` disables the cache entirely.  With a directory, the
    result is keyed by stream content + spec + cadence (worker count does
    not participate: serial and parallel results are bit-identical), so a
    re-run with unchanged inputs is a pure read.

    ``stream`` may be an open :class:`~repro.store.reader.EventStore`.  The
    cache key comes straight from the store manifest's content digest, so a
    hit returns without decoding a single event; on a miss the store is
    decoded once in the parent and parallel workers read only their own
    window's chunks from disk instead of receiving the whole stream.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    key = None
    if cache is not None:
        key = cache.key(stream_digest(stream), spec, interval, start)
        hit = cache.load(key)
        if hit is not None:
            times = snapshot_times(stream.end_time, interval, start)
            hit.profile = _profile(
                {
                    "backend": select_engine(spec, len(times)),
                    "workers": workers,
                    "metric_seconds": {name: [] for name in spec.names},
                },
                cache,
            )
            return hit
    store = stream if isinstance(stream, EventStore) else None
    events = stream.to_stream() if isinstance(stream, EventStore) else stream
    series = evaluate_timeseries(
        events, spec, interval=interval, start=start, workers=workers, store=store
    )
    if cache is not None and key is not None:
        cache.store(key, series)
    assert series.profile is not None
    series.profile = _profile(series.profile, cache)
    return series


def _profile(profile: dict[str, Any], cache: ResultCache | None) -> dict[str, Any]:
    """Run metadata for :attr:`MetricTimeseries.profile`.

    A cache hit carries no timings (nothing was evaluated), so
    ``metric_seconds`` maps every metric to an empty list in that case and
    ``worker_detail`` holds a single idle main row.

    Cache traffic is attributed to worker 0 ("main") in ``worker_detail``:
    only the parent process ever touches the result cache, so per-worker
    cache columns are exact, not estimates.
    """
    profile["cache_hits"] = cache.hits if cache is not None else 0
    profile["cache_misses"] = cache.misses if cache is not None else 0
    detail: list[dict[str, Any]] = profile.setdefault("worker_detail", [])
    main = next((row for row in detail if row.get("worker") == 0), None)
    if main is None:
        main = {
            "worker": 0,
            "label": "main",
            "snapshots": 0,
            "seconds": 0.0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        detail.insert(0, main)
    main["cache_hits"] = profile["cache_hits"]
    main["cache_misses"] = profile["cache_misses"]
    return profile
