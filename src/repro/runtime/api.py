"""The runtime front door: cache lookup around parallel evaluation.

:func:`compute_timeseries` is what the CLI, :class:`AnalysisContext`
and serve all call.
"""

from __future__ import annotations

from pathlib import Path
from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.runtime.cache import (
    ResultCache,
    decode_series,
    encode_series,
    series_key,
    stream_digest,
)
from repro.runtime.parallel import evaluate_timeseries
from repro.runtime.spec import MetricSpec
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
        key = series_key(stream_digest(stream), spec, interval, start)
        hit = cache.load(key, decode_series)
        if hit is not None:
            return hit
    store = stream if isinstance(stream, EventStore) else None
    events = stream.to_stream() if isinstance(stream, EventStore) else stream
    series = evaluate_timeseries(
        events, spec, interval=interval, start=start, workers=workers, store=store
    )
    if cache is not None and key is not None:
        cache.store(key, encode_series(series))
    return series
