"""Workload ``serve``: ``repro serve --workers 1`` under an open-loop load.

The benchmark generates a ``gen.fast`` store, starts the server as a
subprocess (front plus one shard worker fits two cores) and drives it from
this process over at most ``nproc`` keep-alive connections.  The load is a
seeded Poisson schedule of ``(due_time, target)`` pairs computed before
the run; each request is timed from its due time, so a stall shows up in
the latency of every request queued behind it.  Two phases, interleaved in
six blocks so that both sample the whole run:

* *cold* — every ``/metrics`` query is distinct (cycled ``names`` and
  ``start``, seeded ``seed`` and ``interval``) and the server runs without
  a result cache, so each pays ``store.to_stream`` plus replay plus
  kernels; the rate keeps the shard about a third busy;
* *hot* — memoized ``/metrics`` repeats, ``/snapshot?t=`` index lookups,
  ``/info`` and ``/health``: the front, the protocol, pool IPC and the memo.

A seeded sample of hot and cold bodies is compared byte for byte with the
same query answered in this process through ``compute_timeseries`` and
``EventStore``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from urllib.parse import urlencode

from repro.gen.config import presets
from repro.gen.fast import FastGenerator
from repro.obs import perf_counter, read_jsonl
from repro.runtime import MetricSpec, compute_timeseries
from repro.serve.loadgen import PROFILES
from repro.serve.protocol import dumps, http_request, json_safe, parse_query, parse_response_head
from repro.store.reader import EventStore

from common import (
    ROOT,
    Calibrator,
    Result,
    Workspace,
    child_pids,
    median,
    percentile,
    proc_peak_rss_mb,
    self_peak_rss_mb,
    supports_tail,
)

#: The served store: presets.small's proportions at 1,000 target users.
STORE_NODES = 1000

#: Open-loop rates (requests per second) of the two phases.  The hot rate
#: is a tenth of the hot mix's closed-loop capacity over ``nproc``
#: connections (about 2,400 requests/s on a 2-core host, see README), so
#: its latency is the service path rather than queueing; the cold rate
#: keeps the shard about a third busy.
HOT_RPS = 240.0
COLD_RPS = 6.0

#: A run is BLOCKS blocks, each a cold window, a guard in which the cold
#: requests in flight finish, and a hot window (shares of a block).
BLOCKS = 6
COLD_WINDOW = 0.76
GUARD = 0.04

#: Hot mix: target class -> weight, the load generator's ``mixed`` profile
#: restricted to the hot classes (``random.choices`` renormalises the weights).
HOT_CLASSES = ("metrics", "snapshot", "info", "health")
HOT_MIX = tuple(
    (endpoint.lstrip("/"), weight)
    for endpoint, weight in PROFILES["mixed"]
    if endpoint.lstrip("/") in HOT_CLASSES
)

#: Memoized ``/metrics`` queries of the hot phase, computed during set-up.
HOT_METRICS = (
    {"names": "average_degree,average_clustering", "interval": "20", "path_sample": "50",
     "clustering_sample": "300"},
    {"names": "assortativity", "interval": "16", "path_sample": "50",
     "clustering_sample": "300"},
    {"names": "average_path_length", "interval": "32", "path_sample": "50",
     "clustering_sample": "300"},
)
SNAPSHOT_POINTS = 32

#: Cold and hot bodies checked against in-process answers per run.
CHECKED_COLD = 4

SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _source_env() -> dict[str, str]:
    """Subprocess environment: this checkout's sources, no ambient cache dir."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Server:
    """One ``repro serve`` subprocess on a kernel-assigned port."""

    def __init__(self, store: Path, trace_path: Path | None) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", str(store),
            "--port", "0", "--workers", "1", "--no-cache",
        ]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=_source_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = perf_counter() + READY_TIMEOUT_S
        while perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serve: listening on "):
                    address = line.split()[3]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        self.stop()
        raise RuntimeError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the front plus its shard worker(s)."""
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Drain and stop the server; kill it and its workers if it hangs."""
        if self.proc.poll() is None:
            workers = child_pids(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# -- load schedule ------------------------------------------------------------


@dataclass
class Request:
    due: float
    target: str
    phase: str
    latency: float = -1.0
    done: float = 0.0
    status: int = 0
    body: bytes | None = None
    keep: bool = False


def _metrics_target(params: dict[str, Any]) -> str:
    return "/metrics?" + urlencode(params)


def hot_targets(end_time: float) -> dict[str, list[str]]:
    step = end_time / SNAPSHOT_POINTS
    return {
        "metrics": [_metrics_target(params) for params in HOT_METRICS],
        "snapshot": [f"/snapshot?t={step * (i + 0.5):.3f}" for i in range(SNAPSHOT_POINTS)],
        "info": ["/info"],
        "health": ["/health"],
    }


#: Cold query shapes of similar cost (~40 ms of worker time each), cycled
#: in order so every run offers the same mix and the latency distribution
#: stays unimodal; ``seed`` and the jitter on ``interval`` keep every query
#: distinct.
COLD_SHAPES = (
    ("average_path_length", None),
    ("average_clustering", "40"),
    ("average_degree,average_path_length", None),
)


def cold_target(rng: random.Random, serial: int) -> str:
    names, start = COLD_SHAPES[serial % len(COLD_SHAPES)]
    params: dict[str, Any] = {
        "names": names,
        # Every interval in [34, 38) puts exactly four snapshots into the
        # 160-day trace, so the jitter keeps queries distinct, not costlier.
        "interval": f"{rng.uniform(34.0, 38.0):.3f}",
        "seed": str(rng.randrange(1 << 30) * 4096 + serial),
        "path_sample": "25",
        "clustering_sample": "300",
    }
    if start is not None:
        params["start"] = start
    return _metrics_target(params)


@dataclass
class Load:
    """A run's open-loop schedule, then what happened to it.

    ``marks`` are ``(time, phase)`` points where a window of ``phase`` ends:
    the driver lets the requests in flight finish and reads
    ``/telemetry``, so server-side histograms split exactly by phase.

    Latencies are reported raw.  A calibration probe in this process (see
    ``Calibrator``) competes with the server for the two cores, so it
    measures the load it generates rather than the host's speed; rescaling
    by it doubled the run-to-run spread of both p50s.
    """

    requests: list[Request]
    marks: list[tuple[float, str]]
    snapshots: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    transport_errors: int = 0
    late: list[float] = field(default_factory=list)
    elapsed: float = 0.0

    def latencies(self, phase: str) -> list[float]:
        """Latencies of the ``phase`` requests answered 200."""
        return [r.latency for r in self.requests if r.phase == phase and r.status == 200]


def build_load(rng: random.Random, seconds: float, targets: dict[str, list[str]]) -> Load:
    """The seeded schedule: ``BLOCKS`` blocks of a cold window, a guard, a hot window.

    Interleaving spreads both phases over the whole run, so a machine speed
    phase of a few seconds lands on both instead of on one of them.
    Arrivals within a window are Poisson at the phase's rate.
    """
    kinds = [kind for kind, _ in HOT_MIX]
    weights = [weight for _, weight in HOT_MIX]
    block = seconds / BLOCKS
    requests: list[Request] = []
    marks: list[tuple[float, str]] = []
    serial = 0
    for index in range(BLOCKS):
        begin = index * block
        cold_end = begin + block * COLD_WINDOW
        due = begin
        while (due := due + rng.expovariate(COLD_RPS)) < cold_end:
            requests.append(Request(due, cold_target(rng, serial), "cold"))
            serial += 1
        marks.append((cold_end, "cold"))
        due = cold_end + block * GUARD
        while (due := due + rng.expovariate(HOT_RPS)) < begin + block:
            target = rng.choice(targets[rng.choices(kinds, weights)[0]])
            requests.append(Request(due, target, "hot"))
        marks.append((begin + block, "hot"))
    return Load(requests, marks)


# -- open-loop client ---------------------------------------------------------


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def get(self, target: str) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        assert self.reader is not None
        self.writer.write(http_request(target))
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        body = await self.reader.readexactly(int(headers.get("content-length", "0")))
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None


async def _telemetry(conn: Connection) -> dict[str, Any]:
    status, body = await conn.get("/telemetry?format=json")
    if status != 200:
        raise RuntimeError(f"/telemetry answered {status}")
    return json.loads(body)


async def _drive(host: str, port: int, load: Load, connections: int) -> None:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[Request | None] = asyncio.Queue()
    control = Connection(host, port)

    async def worker() -> None:
        conn = Connection(host, port)
        try:
            while (request := await queue.get()) is not None:
                try:
                    request.status, body = await conn.get(request.target)
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    load.transport_errors += 1
                    await conn.close()
                    continue
                finally:
                    queue.task_done()
                request.done = loop.time()
                request.latency = request.done - (start + request.due)
                if request.keep:
                    request.body = body
        finally:
            await conn.close()

    async def mark(phase: str) -> None:
        await queue.join()
        load.snapshots.append((phase, await _telemetry(control)))

    await mark("start")
    start = loop.time() + 0.05
    workers = [asyncio.create_task(worker()) for _ in range(connections)]
    marks = list(load.marks)
    for request in load.requests:
        while marks and marks[0][0] <= request.due:
            await mark(marks.pop(0)[1])
        delay = start + request.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        load.late.append(max(0.0, loop.time() - (start + request.due)))
        queue.put_nowait(request)
    for _, phase in marks:
        await mark(phase)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    load.elapsed = loop.time() - start
    await control.close()


def drive(server: Server, load: Load) -> Load:
    connections = max(1, min(os.cpu_count() or 1, 4))
    asyncio.run(_drive(server.host, server.port, load, connections))
    return load


def fetch(server: Server, target: str) -> tuple[int, bytes]:
    async def once() -> tuple[int, bytes]:
        conn = Connection(server.host, server.port)
        try:
            return await conn.get(target)
        finally:
            await conn.close()

    return asyncio.run(once())


def phase_totals(load: Load, phase: str) -> dict[str, list[float]]:
    """Server-side ``[count, sum]`` per series, summed over ``phase``'s windows.

    Each window's share is the difference of the telemetry snapshots around
    it; histograms contribute their exact count and sum, cache counters
    their count.
    """
    totals: dict[str, list[float]] = {}
    for (_, before), (label, after) in zip(load.snapshots, load.snapshots[1:]):
        if label != phase:
            continue
        was, now = _series(before), _series(after)
        for key, (count, total) in now.items():
            old = was.get(key, (0.0, 0.0))
            entry = totals.setdefault(key, [0.0, 0.0])
            entry[0] += count - old[0]
            entry[1] += total - old[1]
    return totals


def _series(doc: dict[str, Any]) -> dict[str, tuple[float, float]]:
    series: dict[str, tuple[float, float]] = {}
    for endpoint, row in doc["endpoints"].items():
        for kind in ("latency", "queue_wait"):
            if row.get(kind):
                series[f"{kind} {endpoint}"] = (row[kind]["count"], row[kind]["sum"])
    for name, row in doc["worker_histograms"].items():
        series[f"worker {name}"] = (row["count"], row["sum"])
    for key, count in doc["cache"].items():
        series[f"cache {key}"] = (float(count), 0.0)
    return series


def mean_ms(totals: dict[str, list[float]], *keys: str) -> float:
    """The exact mean of the named histogram series in ms (0 when empty)."""
    count = sum(totals.get(key, [0.0, 0.0])[0] for key in keys)
    total = sum(totals.get(key, [0.0, 0.0])[1] for key in keys)
    return 1000.0 * total / count if count else 0.0


# -- in-process answers -------------------------------------------------------


def expected_body(store: EventStore, target: str) -> bytes:
    """The body ``target`` must have, computed in this process."""
    query = parse_query(target)
    params = query.params
    if query.endpoint == "/health":
        text = dumps({"status": "ok"})
    elif query.endpoint == "/info":
        manifest = store.manifest
        text = dumps({
            "digest": manifest.content_digest,
            "node_events": manifest.num_node_events,
            "edge_events": manifest.num_edge_events,
            "end_time": store.end_time,
            "origins": list(manifest.origins),
            "chunks": {"node": len(manifest.node_chunks), "edge": len(manifest.edge_chunks)},
        })
    elif query.endpoint == "/snapshot":
        node_events, edge_events = store.index_at(params["t"])
        text = dumps({
            "time": params["t"],
            "node_events": node_events,
            "edge_events": edge_events,
            "total_node_events": store.num_node_events,
            "total_edge_events": store.num_edge_events,
            "end_time": store.end_time,
        })
    else:
        spec = MetricSpec(
            names=tuple(params["names"]),
            path_sample=params["path_sample"],
            clustering_sample=params["clustering_sample"],
            seed=params["seed"],
        )
        series = compute_timeseries(
            store, spec, interval=params["interval"], start=params["start"],
            workers=1, cache_dir=None,
        )
        text = dumps(json_safe({"times": list(series.times), "values": dict(series.values)}))
    return text.encode("utf-8")




# -- the run ------------------------------------------------------------------


def _start(workspace: Workspace, seed: int, trace: bool) -> tuple[Server, Path]:
    """One set-up: generate the store, start the server, prime the hot memo."""
    store = workspace.fresh("store")
    FastGenerator(presets.small(target_nodes=STORE_NODES), seed=seed).generate_to_store(store)
    trace_path = workspace.fresh("trace").with_suffix(".jsonl") if trace else None
    server = Server(store, trace_path)
    for params in HOT_METRICS:
        status, _ = fetch(server, _metrics_target(params))
        if status != 200:
            server.stop()
            raise RuntimeError(f"priming /metrics answered {status}")
    return server, store


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    calibrator = Calibrator()
    rng = random.Random(seed)
    with Workspace() as workspace:
        setup = []
        untraced_hot: list[float] = []
        server: Server | None = None
        try:
            for index in range(SETUP_REPEATS):
                final = index == SETUP_REPEATS - 1
                calibrator.probe()
                began = perf_counter()
                server, store_path = _start(workspace, seed, trace=trace and final)
                setup.append(calibrator.rescale(perf_counter() - began))
                if final:
                    break
                if trace and index == SETUP_REPEATS - 2:
                    # An untraced server's hot latency: the tracing overhead's base.
                    targets = hot_targets(EventStore(store_path).end_time)
                    baseline_rng = random.Random(f"untraced-baseline-{seed}")
                    baseline = build_load(baseline_rng, seconds / 3, targets)
                    untraced_hot = drive(server, baseline).latencies("hot")
                server.stop()
            store = EventStore(store_path)
            load = build_load(rng, seconds, hot_targets(store.end_time))
            cold = [r for r in load.requests if r.phase == "cold"]
            for request in rng.sample(cold, min(CHECKED_COLD, len(cold))):
                request.keep = True
            seen: set[str] = set()
            for request in load.requests:
                if request.phase == "hot":
                    request.keep = request.target not in seen
                    seen.add(request.target)
            drive(server, load)
            rss = self_peak_rss_mb() + server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()

        for request in load.requests:
            ok = request.status == 200
            result.attempt(ok, f"{request.target} answered {request.status or 'nothing'}")
            if ok and request.keep:
                want = expected_body(store, request.target)
                result.attempt(request.body == want, f"{request.target} body differs")
        hot_lat, cold_lat = load.latencies("hot"), load.latencies("cold")
        if not cold_lat or not hot_lat:
            raise RuntimeError("a load phase completed no request")

        if not trace:
            result.put("setup_s", median(setup), "s")
            result.put("peak_rss_mb", rss, "MB")
            result.put("primary_ms", 1000.0 * median(hot_lat), "ms")
            result.put("secondary_ms", 1000.0 * median(cold_lat), "ms")
            print(f"serve: {len(hot_lat)} hot, {len(cold_lat)} cold samples", file=sys.stderr)
            return result

        payload = read_jsonl(next(workspace.root.glob("trace-*.jsonl")))
        queue_depth = max(
            lane["gauges"].get("serve.queue_depth", 0.0) for lane in payload["lanes"]
        )
        if supports_tail(len(hot_lat), 0.99):
            result.put("hot_p99_ms", 1000.0 * percentile(hot_lat, 0.99), "ms")
        if supports_tail(len(cold_lat), 0.9):
            result.put("cold_p90_ms", 1000.0 * percentile(cold_lat, 0.9), "ms")
        hot, cold_totals = phase_totals(load, "hot"), phase_totals(load, "cold")
        result.put("front_info_mean_ms", mean_ms(hot, "latency /info"), "ms")
        result.put("front_snapshot_mean_ms", mean_ms(hot, "latency /snapshot"), "ms")
        waits = [key for key in hot if key.startswith("queue_wait ")]
        result.put("queue_wait_mean_ms", mean_ms(hot, *waits), "ms")
        front_cold = mean_ms(cold_totals, "latency /metrics")
        result.put("front_metrics_cold_mean_ms", front_cold, "ms")
        worker_cold = mean_ms(cold_totals, "worker serve.latency./metrics")
        result.put("worker_metrics_mean_ms", worker_cold, "ms")
        caches = {key: count for key, (count, _) in hot.items() if key.startswith("cache ")}
        memo = sum(count for key, count in caches.items() if key.endswith(":memo"))
        data = sum(caches.values())
        result.put("memo_ratio", memo / data if data else 0.0, "ratio")
        result.put("memo_count", memo, "count")
        result.put("computed_count", data - memo, "count")
        result.put("queue_depth_peak", queue_depth, "count")
        result.put("generator_late_p99_ms", 1000.0 * percentile(load.late, 0.99), "ms")
        result.put("offered_rps", len(load.requests) / load.elapsed, "1/s")
        answered = len(hot_lat) + len(cold_lat)
        result.put("completed_rps", answered / load.elapsed, "1/s")
        result.put("hot_samples", len(hot_lat), "count")
        result.put("cold_samples", len(cold_lat), "count")
        result.put("errors_5xx", sum(r.status >= 500 for r in load.requests), "count")
        result.put("transport_errors", load.transport_errors, "count")
        result.put("events", store.num_node_events + store.num_edge_events, "count")
        # Cold time outside the front's own measurement: client-side queueing
        # for a free connection, the generator's lateness, and the socket.
        client_cold = 1000.0 * statistics.fmean(cold_lat)
        result.put("unattributed_s", (client_cold - front_cold) / 1000.0, "s")
        if untraced_hot:
            overhead = median(hot_lat) / median(untraced_hot) - 1.0
            result.put("trace_overhead_pct", 100.0 * overhead, "%")
        return result
