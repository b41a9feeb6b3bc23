"""The worker side of ``repro serve``: shard processes answering queries.

Each shard is a single-worker process pool whose initializer
(:func:`_init_serve_worker`) memory-maps the store once
(``verify="lazy"``, so startup costs a manifest parse and chunks are
checksummed on first touch) and installs the caches as module globals —
the RPL032 contract: workers read only initializer-installed state, so
fork and spawn behave identically.  Both worker callables and the
initializer are registered in ``repro.devtools.workers.WORKER_MANIFEST``
(RPL031) and every payload that crosses the process boundary is a plain
``str`` (JSON text), the cheapest entry in the pickle whitelist.

Single-worker shards are what make caching composable: the front routes
each canonical query to ``shard_for(key) % shards``, so all repeats of a
query serialize through one process.  The first computes (or reads the
on-disk caches); everyone queued behind it hits the in-process response
memo.  A thousand clients asking for the same cold report trigger
exactly one computation.

Answer paths, none of which replay on a warm cache:

* ``/info`` and ``/snapshot`` — manifest fields and ``searchsorted``
  event counts straight off the memory map;
* ``/metrics`` — :func:`repro.runtime.compute_timeseries`, whose result
  cache is keyed by store digest + spec + cadence;
* ``/communities`` and ``/merge-impact`` — replay-derived JSON reports
  persisted in a :class:`~repro.runtime.cache.ResultCache` under
  ``<cache_dir>/serve``, keyed by store digest + canonical parameters.
"""

from __future__ import annotations

import json
import multiprocessing.context
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.obs import TailSampler, TraceRecorder, get_recorder, perf_counter, set_recorder
from repro.runtime.cache import ResultCache
from repro.serve.protocol import QueryError, dumps, envelope, error_body, json_safe
from repro.store.reader import EventStore

__all__ = [
    "_drain_trace",
    "_init_serve_worker",
    "_serve_request",
    "_telemetry_snapshot",
    "make_shard_pool",
]

# Worker-process state, installed by _init_serve_worker (RPL032): the
# memory-mapped store, the cache handles, and the bounded response memo.
_STORE: EventStore | None = None
_CACHE_DIR: str | None = None
_SERVE_CACHE: ResultCache | None = None
_MEMO: dict[str, tuple[str, str]] = {}
_MEMO_LIMIT = 512

#: Span-buffer bound for the always-on (non ``--trace``) worker recorder:
#: with tail sampling this is weeks of serving, and it caps shard memory.
_METRICS_MAX_SPANS = 10_000

#: Tail-sampling policy for always-on workers: spans >= 50 ms are always
#: kept, the rest at 1%.  Deterministic per lane (RPL002: no global RNG).
_SAMPLE_THRESHOLD_S = 0.050
_SAMPLE_RATE = 0.01


def _init_serve_worker(
    store_path: str, cache_dir: str | None, shard: int, trace: bool
) -> None:
    """Pool initializer: memmap the store, wire caches, install telemetry.

    ``shard`` names this worker's deterministic hash-shard and becomes
    obs lane ``1 + shard`` (lane 0 is the front), so merged traces are
    stable however the OS schedules the processes.  A recorder is always
    installed — latency/stage histograms feed ``/telemetry`` — but
    without ``--trace`` it runs tail-biased span sampling plus a span
    cap, so long-serving workers hold bounded trace state.
    """
    global _STORE, _CACHE_DIR, _SERVE_CACHE, _MEMO
    _STORE = EventStore(store_path, verify="lazy")
    _CACHE_DIR = cache_dir
    _SERVE_CACHE = (
        ResultCache(Path(cache_dir) / "serve", suffix=".json")
        if cache_dir is not None
        else None
    )
    _MEMO = {}
    if trace:
        set_recorder(TraceRecorder(lane=1 + shard, label=f"shard-{shard}"))
    else:
        set_recorder(
            TraceRecorder(
                lane=1 + shard,
                label=f"shard-{shard}",
                sampler=TailSampler(
                    threshold=_SAMPLE_THRESHOLD_S,
                    rate=_SAMPLE_RATE,
                    lane=1 + shard,
                ),
                max_spans=_METRICS_MAX_SPANS,
            )
        )


def make_shard_pool(
    store_path: str,
    cache_dir: str | None,
    shard: int,
    trace: bool,
    context: multiprocessing.context.BaseContext,
) -> ProcessPoolExecutor:
    """One shard: a single-worker pool initialized for ``shard``.

    Lives here, next to the worker callables it submits, so the RPL031
    manifest check can statically resolve the initializer.  Single-worker
    pools are the point: the front routes each canonical query to one
    shard, so repeats serialize through one process and its memo.
    """
    pool_kwargs: dict[str, Any] = {
        "initializer": _init_serve_worker,
        "initargs": (store_path, cache_dir, shard, trace),
    }
    return ProcessPoolExecutor(max_workers=1, mp_context=context, **pool_kwargs)


def _store() -> EventStore:
    if _STORE is None:
        raise RuntimeError("serve worker used before _init_serve_worker ran")
    return _STORE


def _serve_request(payload: str) -> str:
    """Answer one canonical query; returns a JSON response envelope.

    ``payload`` is the canonical key from
    :func:`repro.serve.protocol.canonical_key`; the response is the
    :func:`~repro.serve.protocol.envelope` JSON string.  Failures become
    typed error envelopes — a worker never raises across the pool
    boundary for a malformed or unanswerable query.
    """
    began = perf_counter()
    rec = get_recorder()
    memo = _MEMO.get(payload)
    if memo is not None:
        endpoint, text = memo
        if rec.enabled:
            rec.count(f"serve.worker.{endpoint}.memo", 1)
            rec.observe(f"serve.latency.{endpoint}", perf_counter() - began)
        return text
    try:
        request = json.loads(payload)
        endpoint = request["endpoint"]
        params = request["params"]
        handler = _HANDLERS[endpoint]
    except (ValueError, KeyError, TypeError):
        return envelope(
            400, "none", error_body(400, "bad-request", "malformed worker payload")
        )
    try:
        with rec.span("serve.worker", endpoint=endpoint):
            body, cache_status = handler(params)
    except QueryError as exc:
        return envelope(
            exc.status, "none", error_body(exc.status, exc.code, exc.message)
        )
    except (ValueError, ZeroDivisionError) as exc:
        return envelope(400, "none", error_body(400, "bad-request", str(exc)))
    except Exception as exc:  # pragma: no cover - defensive
        message = f"{type(exc).__name__}: {exc}"
        return envelope(500, "none", error_body(500, "internal", message))
    elapsed = perf_counter() - began
    if rec.enabled:
        rec.count(f"serve.worker.{endpoint}.{cache_status}", 1)
        rec.observe(f"serve.latency.{endpoint}", elapsed)
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    # Memoized repeats report cache="memo"; the body bytes are identical.
    # (The memo envelope carries no ``seconds`` — its handling time is
    # the memo lookup, which the front rounds down to zero queue math.)
    _MEMO[payload] = (endpoint, envelope(200, "memo", body))
    return envelope(200, cache_status, body, seconds=elapsed)


def _drain_trace(flush: bool = True) -> str:
    """This worker's obs shard as JSON (``"null"`` when not tracing).

    The front submits this once per shard at shutdown and attaches the
    decoded shard to its own recorder, so ``repro serve --trace`` writes
    one merged trace with a lane per shard.
    """
    rec = get_recorder()
    if isinstance(rec, TraceRecorder):
        shard = rec.shard()
        if flush:
            rec.spans.clear()
            rec.counters.clear()
            rec.gauges.clear()
            rec.histograms.clear()
        return json.dumps(shard)
    return "null"


def _telemetry_snapshot() -> str:
    """This worker's live telemetry as JSON (non-destructive).

    The front submits this on every ``/stats`` / ``/telemetry`` request
    and merges the per-shard histograms bucket-wise; unlike
    :func:`_drain_trace` nothing is flushed, so the snapshot is a
    monotone read of the shard's whole uptime.
    """
    rec = get_recorder()
    if not isinstance(rec, TraceRecorder):  # pragma: no cover - defensive
        return "null"
    cache = {"hit": 0, "miss": 0, "memo": 0, "none": 0}
    for name, value in rec.counters.items():
        if name.startswith("serve.worker."):
            status = name.rsplit(".", 1)[-1]
            if status in cache:
                cache[status] += int(value)
    lookups = cache["hit"] + cache["miss"]
    snapshot = {
        "label": rec.label,
        "pid": rec.pid,
        "cache": cache,
        "cache_hit_ratio": cache["hit"] / lookups if lookups else None,
        "memo_entries": len(_MEMO),
        "spans_kept": len(rec.spans),
        "spans_dropped": int(rec.counters.get("obs.spans_dropped", 0)),
        "sampler": (
            None
            if rec.sampler is None
            else {"seen": rec.sampler.seen, "kept": rec.sampler.kept}
        ),
        "histograms": {
            name: rec.histograms[name].to_dict() for name in sorted(rec.histograms)
        },
    }
    return json.dumps(snapshot)


# -- endpoint handlers ------------------------------------------------------
# Each returns (body_json, cache_status) where cache_status is one of
# "hit", "miss", "none".


def _handle_info(params: dict[str, Any]) -> tuple[str, str]:
    store = _store()
    manifest = store.manifest
    body = dumps(
        {
            "digest": manifest.content_digest,
            "node_events": manifest.num_node_events,
            "edge_events": manifest.num_edge_events,
            "end_time": store.end_time,
            "origins": list(manifest.origins),
            "chunks": {
                "node": len(manifest.node_chunks),
                "edge": len(manifest.edge_chunks),
            },
        }
    )
    return body, "none"


def _handle_metrics(params: dict[str, Any]) -> tuple[str, str]:
    from repro.runtime import MetricSpec, compute_timeseries

    spec = MetricSpec(
        names=tuple(params["names"]),
        path_sample=params["path_sample"],
        clustering_sample=params["clustering_sample"],
        seed=params["seed"],
    )
    series = compute_timeseries(
        _store(),
        spec,
        interval=params["interval"],
        start=params["start"],
        workers=1,
        cache_dir=_CACHE_DIR,
    )
    status = "none"
    if _CACHE_DIR is not None:
        status = "hit" if series.cached else "miss"
    body = dumps(
        json_safe({"times": list(series.times), "values": dict(series.values)})
    )
    return body, status


def _handle_snapshot(params: dict[str, Any]) -> tuple[str, str]:
    store = _store()
    t = params["t"]
    if t < 0 or t > store.end_time:
        raise QueryError(
            404, "not-found", f"t={t:g} outside trace span [0, {store.end_time:g}]"
        )
    node_events, edge_events = store.index_at(t)
    body = dumps(
        {
            "time": t,
            "node_events": node_events,
            "edge_events": edge_events,
            "total_node_events": store.num_node_events,
            "total_edge_events": store.num_edge_events,
            "end_time": store.end_time,
        }
    )
    return body, "none"


def _json_text(data: bytes) -> str:
    """Decode a serve cache entry; :class:`ValueError` unless it is JSON."""
    text = data.decode("utf-8")
    json.loads(text)
    return text


def _cached_report(key: str, compute: Callable[[], Any]) -> tuple[str, str]:
    """``compute()``'s report as JSON text, through the serve cache."""
    if _SERVE_CACHE is not None:
        text = _SERVE_CACHE.load(key, _json_text)
        if text is not None:
            return text, "hit"
    text = dumps(json_safe(compute()))
    if _SERVE_CACHE is None:
        return text, "none"
    _SERVE_CACHE.store(key, text.encode("utf-8"))
    return text, "miss"


def _communities_report(params: dict[str, Any]) -> tuple[str, str]:
    """The full tracking report (with memberships), through the serve cache."""
    from repro.community.tracking import track_stream

    store = _store()
    cache_params = {k: v for k, v in params.items() if k != "at"}

    def compute() -> dict[str, Any]:
        tracker = track_stream(
            store.to_stream(),
            interval=params["interval"],
            delta=params["delta"],
            min_size=params["min_size"],
            seed=params["seed"],
        )
        return {
            "snapshots": [
                {
                    "time": snap.time,
                    "num_communities": snap.num_communities,
                    "modularity": snap.modularity,
                    "avg_similarity": snap.avg_similarity,
                    "members": {
                        str(lineage): sorted(state.members)
                        for lineage, state in snap.states.items()
                    },
                }
                for snap in tracker.snapshots
            ],
            "events": dict(sorted(Counter(e.kind for e in tracker.events).items())),
        }

    key = ResultCache.key("communities", store.content_digest, dumps(cache_params))
    return _cached_report(key, compute)


def _handle_communities(params: dict[str, Any]) -> tuple[str, str]:
    text, status = _communities_report(params)
    report = json.loads(text)
    at = params["at"]
    if at is None:
        # Summary view: per-snapshot quality measures, memberships elided.
        summary = {
            "snapshots": [
                {k: v for k, v in snap.items() if k != "members"}
                for snap in report["snapshots"]
            ],
            "events": report["events"],
        }
        return dumps(summary), status
    chosen = None
    for snap in report["snapshots"]:
        if snap["time"] <= at:
            chosen = snap
        else:
            break
    if chosen is None:
        raise QueryError(
            404, "not-found", f"no tracked snapshot at or before t={at:g}"
        )
    return dumps(chosen), status


def _handle_merge_impact(params: dict[str, Any]) -> tuple[str, str]:
    from repro.osnmerge.summary import summarize_merge

    store = _store()

    def compute() -> dict[str, Any]:
        report = summarize_merge(
            store.to_stream(),
            merge_day=params["merge_day"],
            distance_sample=params["distance_sample"],
            seed=params["seed"],
        )
        return asdict(report)

    key = ResultCache.key("merge-impact", store.content_digest, dumps(params))
    return _cached_report(key, compute)


_HANDLERS = {
    "/info": _handle_info,
    "/metrics": _handle_metrics,
    "/snapshot": _handle_snapshot,
    "/communities": _handle_communities,
    "/merge-impact": _handle_merge_impact,
}
