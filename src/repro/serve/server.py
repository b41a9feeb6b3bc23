"""The asyncio front process of ``repro serve``.

One event loop accepts HTTP/1.1 keep-alive connections, parses and
validates requests (:func:`repro.serve.protocol.parse_query`), and routes
each data query to a deterministic hash-shard: ``workers`` single-worker
process pools, each initialized by
:func:`repro.serve.workers._init_serve_worker` to memory-map the store
and own its slice of the caches.  Identical queries always land on the
same shard, so concurrent repeats of a cold query serialize through one
process and compute once.

Operational contract:

* **timeouts** — every worker round-trip is bounded by
  ``ServeConfig.timeout``; an overrun answers 504 with a typed error
  envelope (the worker finishes in the background and warms the caches
  for the next attempt);
* **graceful drain** — :meth:`ReproServer.stop` stops accepting, lets
  in-flight requests finish (bounded by ``drain_timeout``), collects
  worker trace shards, then shuts the pools down;
* **observability** — per-request spans and counters on the installed
  :mod:`repro.obs` recorder: ``serve.requests.<endpoint>``,
  ``serve.front.<endpoint>.<hit|miss|memo>``, a ``serve.queue_depth``
  peak gauge, and one obs lane per shard when tracing.  Independent of
  ``--trace``, the front keeps windowed per-endpoint latency and
  queue-wait histograms and every shard keeps its own always-on
  streaming histograms; ``/telemetry`` exposes both (Prometheus text or
  a JSON twin via ``?format=json``), with shard histograms merged
  bucket-wise on the same snapshot path ``/stats`` renders;
* **determinism** — response bodies contain no timestamps, worker
  identities, or counters, so a given store + query answers with the
  same bytes at any ``--workers`` setting (``/stats`` and
  ``/telemetry`` are the deliberate exceptions: they report this
  process's live counters and histograms).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.obs import (
    QUANTILES,
    LogHistogram,
    TraceRecorder,
    WindowedHistogram,
    get_recorder,
    merge_histogram_dicts,
    peak_rss_bytes,
    perf_counter,
    prometheus_escape,
    prometheus_lines,
    quantile_summary,
)
from repro.runtime import mp_context
from repro.serve.protocol import (
    Query,
    QueryError,
    canonical_key,
    dumps,
    error_body,
    http_response,
    parse_query,
    parse_request_head,
    shard_for,
)
from repro.serve.workers import (
    _drain_trace,
    _serve_request,
    _telemetry_snapshot,
    make_shard_pool,
)
from repro.store.reader import EventStore

__all__ = ["ReproServer", "ServeConfig", "run_server"]

#: ``--warm`` target -> the endpoint whose default query gets precomputed.
WARM_TARGETS = {"metrics": "/metrics", "communities": "/communities"}

#: ``/telemetry`` rollup windows: label -> seconds.
TELEMETRY_WINDOWS = (("1s", 1.0), ("10s", 10.0), ("60s", 60.0))

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json"


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs; validated at construction."""

    store_path: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    cache_dir: str | None = None
    timeout: float = 30.0
    warm: tuple[str, ...] = ()
    trace: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        unknown = sorted(set(self.warm) - set(WARM_TARGETS))
        if unknown:
            raise ValueError(
                f"unknown warm target(s) {unknown}; expected {sorted(WARM_TARGETS)}"
            )
        if not EventStore.is_store(self.store_path):
            raise ValueError(f"{self.store_path!r} is not an event store directory")


class ReproServer:
    """The serve front: owns the listener, the shard pools, the counters."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.host = config.host
        self.port = config.port
        self.warm_seconds = 0.0
        self.requests: Counter[str] = Counter()
        self.statuses: Counter[int] = Counter()
        self.cache_events: Counter[str] = Counter()
        self._pools: list[ProcessPoolExecutor] = []
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._shard_inflight: list[int] = [0] * config.workers
        self._latency: dict[str, WindowedHistogram] = {}
        self._queue_wait: dict[str, LogHistogram] = {}
        self._accepting = False
        self._epoch = perf_counter()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Spin up shard pools, warm caches, bind the listener.

        Returns the bound ``(host, port)`` — with ``port=0`` the kernel
        picks a free one, so tests and benchmarks never collide.
        """
        context = mp_context()
        for shard in range(self.config.workers):
            self._pools.append(
                make_shard_pool(
                    self.config.store_path,
                    self.config.cache_dir,
                    shard,
                    self.config.trace,
                    context,
                )
            )
        # Force every shard to spawn its worker process NOW, before the
        # listener opens: ProcessPoolExecutor forks lazily on first
        # submit, and a fork after accept() duplicates the live client
        # connection fd into the worker — which then holds it open for
        # its lifetime, so a server-initiated close never reaches that
        # client as EOF.  (_drain_trace is a no-op ping when not tracing.)
        await asyncio.gather(
            *(
                asyncio.wrap_future(pool.submit(_drain_trace, False))
                for pool in self._pools
            )
        )
        if self.config.warm:
            await self._warm()
        self._accepting = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, drain, collect, tear down."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = perf_counter() + drain_timeout
        while self._inflight and perf_counter() < deadline:
            await asyncio.sleep(0.02)
        # Close idle keep-alive connections so their handler tasks exit
        # through the normal EOF path instead of being cancelled at loop
        # teardown.
        for writer in list(self._connections):
            writer.close()
        while self._connections and perf_counter() < deadline + 1.0:
            await asyncio.sleep(0.02)
        self._collect_traces()
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pools.clear()

    async def _warm(self) -> None:
        """Precompute the default query per warm target through the shards.

        Warming routes each default query through its own shard exactly
        like a client request would, so the result cache
        (:func:`repro.runtime.compute_timeseries` under ``/metrics``) and
        the serve cache (``/communities``) are populated before the
        listener opens and the first real request is already a hit.
        """
        rec = get_recorder()
        began = perf_counter()
        targets = ",".join(self.config.warm)
        with rec.span("serve.warm", targets=targets):
            for target in self.config.warm:
                query = parse_query(WARM_TARGETS[target])
                status, _cache, body = await self._dispatch(query)
                if status != 200:
                    raise RuntimeError(f"warm {target!r} failed ({status}): {body}")
        self.warm_seconds = perf_counter() - began
        print(
            f"serve: warmed {targets} in {self.warm_seconds:.2f}s", file=sys.stderr
        )

    def _collect_traces(self) -> None:
        """Attach each shard's obs lane to the front recorder (if tracing)."""
        rec = get_recorder()
        if not (self.config.trace and isinstance(rec, TraceRecorder)):
            return
        for pool in self._pools:
            try:
                text = pool.submit(_drain_trace, True).result(timeout=5.0)
            except Exception:  # a dead shard loses only its trace lane
                continue
            shard = json.loads(text)
            if shard is not None:
                rec.attach_shard(shard)

    # -- request path --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        rec = get_recorder()
        self._connections.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    body = error_body(400, "bad-request", "request head too large")
                    writer.write(http_response(400, body, keep_alive=False))
                    await writer.drain()
                    break
                if not self._accepting:
                    body = error_body(503, "unavailable", "server is shutting down")
                    writer.write(http_response(503, body, keep_alive=False))
                    await writer.drain()
                    break
                self._inflight += 1
                if rec.enabled:
                    rec.gauge("serve.queue_depth", self._inflight)
                try:
                    status, body, close, content_type = await self._respond(head)
                finally:
                    self._inflight -= 1
                self.statuses[status] += 1
                writer.write(
                    http_response(
                        status, body, keep_alive=not close, content_type=content_type
                    )
                )
                await writer.drain()
                if close:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond(self, head: bytes) -> tuple[int, str, bool, str]:
        """``(status, body, close_connection, content_type)`` for one head."""
        rec = get_recorder()
        # Until the head parses we cannot trust the framing, so default
        # to closing; once headers are in hand, honor the client's
        # Connection preference on error responses too.
        close = True
        try:
            method, target, headers = parse_request_head(head)
            close = headers.get("connection", "").lower() == "close"
            if method != "GET":
                raise QueryError(
                    405, "bad-request", f"method {method!r} not allowed (GET only)"
                )
            query = parse_query(target)
        except QueryError as exc:
            self.requests["invalid"] += 1
            if rec.enabled:
                rec.count("serve.requests.invalid", 1)
            body = error_body(exc.status, exc.code, exc.message)
            return exc.status, body, close, JSON_CONTENT_TYPE
        endpoint = query.endpoint
        self.requests[endpoint] += 1
        if rec.enabled:
            rec.count(f"serve.requests.{endpoint}", 1)
        if endpoint == "/health":
            return 200, dumps({"status": "ok"}), close, JSON_CONTENT_TYPE
        if endpoint in ("/stats", "/telemetry"):
            # One snapshot path feeds both views, so they cannot disagree.
            snapshot = await self._snapshot()
            if endpoint == "/stats":
                return 200, self._stats_body(snapshot), close, JSON_CONTENT_TYPE
            if query.params["format"] == "json":
                return 200, dumps(snapshot["doc"]), close, JSON_CONTENT_TYPE
            return 200, self._telemetry_prom(snapshot), close, PROMETHEUS_CONTENT_TYPE
        with rec.span("serve.request", endpoint=endpoint):
            status, cache, body = await self._dispatch(query)
        self.cache_events[f"{endpoint}:{cache}"] += 1
        if rec.enabled and cache != "none":
            rec.count(f"serve.front.{endpoint}.{cache}", 1)
        return status, body, close, JSON_CONTENT_TYPE

    def _observe_request(
        self, endpoint: str, elapsed: float, worker_seconds: float | None
    ) -> None:
        """File one front-side round-trip into the telemetry histograms.

        ``worker_seconds`` is the worker's own handling time from the
        response envelope; the difference is queue wait — pool queueing,
        IPC, and event-loop scheduling.  Memoized responses omit the
        field and count as pure queue wait (their handling is a dict
        lookup); error paths pass ``None`` and skip the queue histogram.
        """
        now = perf_counter()
        hist = self._latency.get(endpoint)
        if hist is None:
            hist = WindowedHistogram()
            self._latency[endpoint] = hist
        hist.observe(elapsed, now)
        if worker_seconds is None:
            return
        wait = self._queue_wait.get(endpoint)
        if wait is None:
            wait = LogHistogram()
            self._queue_wait[endpoint] = wait
        wait.observe(max(0.0, elapsed - worker_seconds))

    async def _dispatch(self, query: Query) -> tuple[int, str, str]:
        """Route ``query`` to its shard; ``(status, cache, body)``.

        Worker failures never propagate: a timeout answers 504 and a
        broken pool answers 503, both as typed envelopes.
        """
        key = canonical_key(query)
        shard = shard_for(key, len(self._pools))
        pool = self._pools[shard]
        began = perf_counter()
        self._shard_inflight[shard] += 1
        try:
            future = pool.submit(_serve_request, key)
            try:
                text = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.config.timeout
                )
            except asyncio.TimeoutError:
                self._observe_request(query.endpoint, perf_counter() - began, None)
                message = f"query exceeded the {self.config.timeout:g}s budget"
                return 504, "none", error_body(504, "timeout", message)
            except Exception as exc:  # BrokenProcessPool and kin
                self._observe_request(query.endpoint, perf_counter() - began, None)
                message = f"{type(exc).__name__}: {exc}"
                return 503, "none", error_body(503, "unavailable", message)
        finally:
            self._shard_inflight[shard] -= 1
        response = json.loads(text)
        self._observe_request(
            query.endpoint,
            perf_counter() - began,
            float(response.get("seconds", 0.0)),
        )
        return int(response["status"]), str(response["cache"]), str(response["body"])

    # -- telemetry -----------------------------------------------------

    async def _snapshot(self) -> dict[str, Any]:
        """The one telemetry snapshot both ``/stats`` and ``/telemetry`` render.

        Pulls every shard's live histograms/counters over the existing
        pool path (non-destructive reads), merges same-named worker
        histograms bucket-wise, and rolls up the front's windowed
        latency.  Returns ``{"doc": json-ready snapshot, "front":
        {endpoint: LogHistogram}, "queue": {endpoint: LogHistogram},
        "worker": {name: LogHistogram}}`` — the raw histograms ride
        along for the Prometheus renderer.
        """
        now = perf_counter()
        shards: list[dict[str, Any]] = []
        for index, pool in enumerate(self._pools):
            entry: dict[str, Any] = {
                "shard": index,
                "inflight": self._shard_inflight[index],
            }
            try:
                text = await asyncio.wait_for(
                    asyncio.wrap_future(pool.submit(_telemetry_snapshot)), 5.0
                )
                data = json.loads(text)
            except Exception:  # a dead or wedged shard loses only telemetry
                data = None
            if data is None:
                entry["error"] = "unavailable"
            else:
                entry.update(data)
            shards.append(entry)
        worker_hists = merge_histogram_dicts(
            [entry.get("histograms", {}) for entry in shards]
        )
        endpoints: dict[str, Any] = {}
        front: dict[str, LogHistogram] = {}
        for endpoint in sorted(self._latency):
            windowed = self._latency[endpoint]
            wait = self._queue_wait.get(endpoint)
            windows = {}
            for label, seconds in TELEMETRY_WINDOWS:
                roll = windowed.rollup(seconds, now)
                windows[label] = {
                    "count": roll.count,
                    "rate_rps": roll.count / seconds,
                    "p99": roll.quantile(0.99),
                }
            endpoints[endpoint] = {
                "latency": quantile_summary(windowed.total),
                "queue_wait": None if wait is None else quantile_summary(wait),
                "windows": windows,
            }
            front[endpoint] = windowed.total
        doc = {
            "workers": self.config.workers,
            "inflight": self._inflight,
            "uptime_seconds": now - self._epoch,
            "warm_seconds": self.warm_seconds,
            "requests": dict(self.requests),
            "statuses": {str(k): v for k, v in self.statuses.items()},
            "cache": dict(self.cache_events),
            "shards": [
                {k: v for k, v in entry.items() if k != "histograms"}
                for entry in shards
            ],
            "endpoints": endpoints,
            "worker_histograms": {
                name: quantile_summary(worker_hists[name])
                for name in sorted(worker_hists)
            },
        }
        return {
            "doc": doc,
            "front": front,
            "queue": dict(self._queue_wait),
            "worker": worker_hists,
        }

    def _stats_body(self, snapshot: dict[str, Any]) -> str:
        """The ``/stats`` view: the historic keys plus per-shard rows."""
        doc = snapshot["doc"]
        keys = (
            "workers",
            "inflight",
            "uptime_seconds",
            "warm_seconds",
            "requests",
            "statuses",
            "cache",
            "shards",
        )
        return dumps({key: doc[key] for key in keys})

    def _telemetry_prom(self, snapshot: dict[str, Any]) -> str:
        """The snapshot in Prometheus text exposition format."""
        doc = snapshot["doc"]
        lines: list[str] = [
            "# TYPE repro_serve_uptime_seconds gauge",
            f"repro_serve_uptime_seconds {doc['uptime_seconds']:.3f}",
            "# TYPE repro_serve_inflight gauge",
            f"repro_serve_inflight {doc['inflight']}",
            "# TYPE repro_serve_shard_inflight gauge",
        ]
        for entry in doc["shards"]:
            lines.append(
                f'repro_serve_shard_inflight{{shard="{entry["shard"]}"}} '
                f"{entry['inflight']}"
            )
        for family, mapping, label in (
            ("repro_serve_requests_total", doc["requests"], "endpoint"),
            ("repro_serve_responses_total", doc["statuses"], "status"),
            ("repro_serve_cache_events_total", doc["cache"], "event"),
        ):
            lines.append(f"# TYPE {family} counter")
            for key in sorted(mapping):
                lines.append(
                    f'{family}{{{label}="{prometheus_escape(str(key))}"}} '
                    f"{mapping[key]}"
                )
        lines.append("# TYPE repro_serve_request_latency_seconds histogram")
        for endpoint in sorted(snapshot["front"]):
            lines.extend(
                prometheus_lines(
                    "repro_serve_request_latency_seconds",
                    {"endpoint": endpoint},
                    snapshot["front"][endpoint],
                )
            )
        lines.append("# TYPE repro_serve_request_latency_quantile_seconds gauge")
        for endpoint in sorted(snapshot["front"]):
            hist = snapshot["front"][endpoint]
            for q in QUANTILES:
                lines.append(
                    f"repro_serve_request_latency_quantile_seconds"
                    f'{{endpoint="{prometheus_escape(endpoint)}",quantile="{q:g}"}} '
                    f"{hist.quantile(q):.9g}"
                )
        lines.append("# TYPE repro_serve_queue_wait_seconds histogram")
        for endpoint in sorted(snapshot["queue"]):
            lines.extend(
                prometheus_lines(
                    "repro_serve_queue_wait_seconds",
                    {"endpoint": endpoint},
                    snapshot["queue"][endpoint],
                )
            )
        lines.append("# TYPE repro_serve_worker_latency_seconds histogram")
        lines.append("# TYPE repro_serve_stage_seconds histogram")
        for name in sorted(snapshot["worker"]):
            hist = snapshot["worker"][name]
            if name.startswith("serve.latency."):
                endpoint = name[len("serve.latency."):]
                lines.extend(
                    prometheus_lines(
                        "repro_serve_worker_latency_seconds",
                        {"endpoint": endpoint},
                        hist,
                    )
                )
            else:
                lines.extend(
                    prometheus_lines(
                        "repro_serve_stage_seconds", {"stage": name}, hist
                    )
                )
        return "\n".join(lines) + "\n"


async def run_server(config: ServeConfig) -> int:
    """Start a server and run it until SIGINT/SIGTERM; the CLI entry.

    Prints the readiness line (``serve: listening on HOST:PORT``) to
    stdout once the listener is bound, which is what the load generator
    and CI smoke step wait for.
    """
    server = ReproServer(config)
    host, port = await server.start()
    print(
        f"serve: listening on {host}:{port} "
        f"({config.workers} shard worker(s), store {config.store_path})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            signal.signal(signum, lambda *_: stop.set())
    await stop.wait()
    print("serve: draining in-flight requests", file=sys.stderr)
    rec = get_recorder()
    if rec.enabled:
        rec.gauge("worker.peak_rss_bytes", peak_rss_bytes())
    await server.stop()
    return 0
