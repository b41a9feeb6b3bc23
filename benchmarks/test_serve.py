"""Benchmark-regression harness for ``repro serve`` + the load generator.

Boots a real server subprocess (``python -m repro serve``) on an
ephemeral port over a freshly converted store, then measures the service
contract end to end:

* **cold vs warm** — the first ``/metrics`` query replays the store and
  populates the caches; repeats answer from the worker memo.  The
  tracked ratio ``aggregate.warm_speedup`` is cold/warm clamped at
  ``SPEEDUP_CAP`` — machine-relative and deliberately saturating, so the
  bench gate fires when caching breaks (ratio collapses toward 1), not
  on scheduler noise between healthy runs;
* **load** — a seeded closed-loop :mod:`repro.serve.loadgen` population
  (the acceptance gate: zero 5xx, warmed ``/metrics`` p99 under
  ``P99_BUDGET_MS``).

Two entry points:

* ``pytest benchmarks/test_serve.py`` — the default-scale gate:
  presets.small store, 1000 concurrent users;
* ``python benchmarks/test_serve.py [--quick] [--out BENCH_serve.json]
  [--telemetry-out serve-telemetry.prom]`` — the CI smoke harness:
  ``--quick`` serves a tiny store to 100 users for a few seconds and
  fails (exit 1) on any 5xx.  Before shutdown the harness scrapes
  ``/telemetry``: the JSON twin lands in the report (the bench gate
  tracks ``aggregate.telemetry_metrics_p99_ms``), the Prometheus text
  becomes the CI artifact via ``--telemetry-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.serve.loadgen import LoadConfig, run_loadgen
from repro.serve.protocol import http_request, parse_response_head
from repro.store import write_store

#: The tracked ratio saturates here: any healthy run clears the cap by a
#: wide margin, so the committed baseline is exactly the cap and the gate
#: only fires on real cache regressions.
SPEEDUP_CAP = 10.0
#: Warmed /metrics p99 budget (the acceptance criterion), default scale.
P99_BUDGET_MS = 250.0
#: Rows ``repro obs diff`` gates this report on against its committed
#: baseline (``benchmarks/baselines/``): dotted key -> direction and slack.
#: "higher" ratios regress by falling, "lower" ratios by rising.
GATE = {
    # warm_speedup saturates at the harness's SPEEDUP_CAP on any healthy
    # run, so this gate fires only when serve's caching actually breaks.
    "aggregate.warm_speedup": {"better": "higher", "slack": 0.0},
    # Server-side /metrics p99 from the end-of-run /telemetry snapshot;
    # the generous ms slack means this fires on collapse, not jitter.
    "aggregate.telemetry_metrics_p99_ms": {"better": "lower", "slack": 100.0},
}

_READY = re.compile(r"serve: listening on ([0-9.]+):(\d+)")

_PRESETS = {"tiny": presets.tiny, "small": presets.small}


class ServerProc:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, store: Path, cache_dir: Path, workers: int, timeout: float):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(store),
                "--port",
                "0",
                "--workers",
                str(workers),
                "--cache-dir",
                str(cache_dir),
                "--timeout",
                str(timeout),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        assert self.proc.stdout is not None
        deadline = time.perf_counter() + 60.0
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before printing the readiness line")
            match = _READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready within 60s")

    def fetch(self, target: str, timeout: float = 300.0) -> tuple[int, bytes]:
        """One blocking request on a fresh connection; ``(status, body)``."""
        with socket.create_connection((self.host, self.port), timeout=timeout) as conn:
            conn.sendall(http_request(target, self.host))
            buf = b""
            while b"\r\n\r\n" not in buf:
                chunk = conn.recv(65536)
                if not chunk:
                    raise RuntimeError("connection closed before response head")
                buf += chunk
            head, _, body = buf.partition(b"\r\n\r\n")
            status, headers = parse_response_head(head + b"\r\n\r\n")
            length = int(headers.get("content-length", "0"))
            while len(body) < length:
                chunk = conn.recv(65536)
                if not chunk:
                    raise RuntimeError("connection closed mid-body")
                body += chunk
        return status, body

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _time_fetch(server: ServerProc, target: str) -> tuple[float, int]:
    began = time.perf_counter()
    status, _body = server.fetch(target)
    return time.perf_counter() - began, status


def run_bench(
    quick: bool = False,
    seed: int = 7,
    users: int | None = None,
    duration: float | None = None,
    workers: int = 2,
) -> dict:
    """Measure cold/warm latency and drive a load phase; returns the report."""
    if quick:
        preset = "tiny"
        users = users if users is not None else 100
        duration = duration if duration is not None else 5.0
        think_mean = 0.5
    else:
        preset = "small"
        users = users if users is not None else 1000
        duration = duration if duration is not None else 10.0
        think_mean = 2.0

    stream = generate_trace(_PRESETS[preset](), seed=seed)
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        store = root / "trace.store"
        write_store(stream, store)
        server = ServerProc(store, root / "cache", workers=workers, timeout=300.0)
        try:
            cold_s, cold_status = _time_fetch(server, "/metrics")
            assert cold_status == 200, f"cold /metrics answered {cold_status}"
            warm = []
            for _ in range(20):
                warm_s, warm_status = _time_fetch(server, "/metrics")
                assert warm_status == 200
                warm.append(warm_s)
            warm.sort()
            warm_p50 = warm[len(warm) // 2]
            raw_speedup = cold_s / warm_p50 if warm_p50 > 0 else float("inf")

            # The load-phase gates measure the *warmed* service, so pay
            # the one-off /communities replay before opening the flood:
            # mid-load it would pin the CPU and queue a whole shard.
            communities_s, communities_status = _time_fetch(server, "/communities")
            assert communities_status == 200, (
                f"cold /communities answered {communities_status}"
            )

            load = run_loadgen(
                LoadConfig(
                    host=server.host,
                    port=server.port,
                    users=users,
                    duration=duration,
                    seed=seed,
                    mix="mixed",
                    think_mean=think_mean,
                )
            )

            # Scrape live telemetry while the server is still up: the JSON
            # twin feeds the report (and the bench gate), the Prometheus
            # text becomes the CI artifact via --telemetry-out.
            telemetry_status, telemetry_body = server.fetch("/telemetry?format=json")
            assert telemetry_status == 200, f"/telemetry answered {telemetry_status}"
            telemetry = json.loads(telemetry_body)
            prom_status, prom_body = server.fetch("/telemetry")
            assert prom_status == 200, f"/telemetry (prom) answered {prom_status}"
        finally:
            server.stop()

    metrics_latency = telemetry.get("endpoints", {}).get("/metrics", {}).get("latency")
    telemetry_p99_ms = (
        1000.0 * metrics_latency["p99"] if metrics_latency else 0.0
    )

    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "workers": workers,
        "events": {"nodes": stream.num_nodes, "edges": stream.num_edges},
        "aggregate": {
            "cold_metrics_s": cold_s,
            "cold_communities_s": communities_s,
            "warm_metrics_p50_s": warm_p50,
            "warm_speedup": min(raw_speedup, SPEEDUP_CAP),
            "warm_speedup_raw": raw_speedup,
            "requests": load["aggregate"]["requests"],
            "throughput_rps": load["aggregate"]["throughput_rps"],
            "responses_5xx": load["aggregate"]["responses_5xx"],
            "transport_errors": load["aggregate"]["transport_errors"],
            "telemetry_metrics_p99_ms": telemetry_p99_ms,
        },
        "loadgen": load,
        "telemetry": telemetry,
        "gate": GATE,
        "_telemetry_prom": prom_body.decode("utf-8"),  # stripped before JSON output
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    agg = report["aggregate"]
    ev = report["events"]
    print(
        f"[serve] preset={report['preset']} events: {ev['nodes']}n/{ev['edges']}e  "
        f"workers={report['workers']}"
    )
    print(f"[serve] {'measure':<28}{'value':>14}")
    print(f"[serve] {'cold /metrics':<28}{agg['cold_metrics_s'] * 1000:>12.1f}ms")
    print(f"[serve] {'warm /metrics p50':<28}{agg['warm_metrics_p50_s'] * 1000:>12.1f}ms")
    print(
        f"[serve] {'warm speedup':<28}{agg['warm_speedup']:>13.1f}x"
        f" (raw {agg['warm_speedup_raw']:.0f}x)"
    )
    load = report["loadgen"]["aggregate"]
    print(
        f"[serve] load: {load['requests']} requests @ {load['throughput_rps']:.0f} rps, "
        f"p50 {load['p50_ms']:.1f}ms p95 {load['p95_ms']:.1f}ms p99 {load['p99_ms']:.1f}ms, "
        f"{load['responses_5xx']} 5xx, {load['transport_errors']} transport errors"
    )
    for endpoint, row in sorted(report["loadgen"]["endpoints"].items()):
        print(
            f"[serve]   {endpoint:<16}{row['requests']:>7} reqs  "
            f"p50 {row['p50_ms']:>7.1f}ms  p99 {row['p99_ms']:>7.1f}ms"
        )
    telemetry = report.get("telemetry", {})
    print(
        f"[serve] telemetry: {sum(telemetry.get('requests', {}).values())} requests seen, "
        f"server-side /metrics p99 {agg['telemetry_metrics_p99_ms']:.1f}ms"
    )


def _gate(report: dict, quick: bool) -> list[str]:
    """The acceptance checks; returns failure messages (empty = pass)."""
    failures = []
    agg = report["aggregate"]
    if agg["responses_5xx"]:
        failures.append(f"{agg['responses_5xx']} 5xx responses under load")
    if agg["warm_speedup"] < 2.0:
        failures.append(
            f"warm speedup {agg['warm_speedup']:.1f}x — the caches are not working"
        )
    if not quick:
        metrics = report["loadgen"]["endpoints"].get("/metrics")
        if metrics is not None and metrics["p99_ms"] > P99_BUDGET_MS:
            failures.append(
                f"warmed /metrics p99 {metrics['p99_ms']:.1f}ms exceeds "
                f"the {P99_BUDGET_MS:.0f}ms budget"
            )
    return failures


def test_serve_under_load():
    """Default scale: presets.small store, 1000 closed-loop users."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert _gate(report, quick=False) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serve + loadgen benchmark harness")
    parser.add_argument("--quick", action="store_true", help="tiny store, short load run")
    parser.add_argument("--users", type=int, default=None, help="override the user count")
    parser.add_argument(
        "--duration", type=float, default=None, help="override the load duration (s)"
    )
    parser.add_argument("--workers", type=int, default=2, help="server shard workers")
    parser.add_argument("--out", default=None, help="write the report as JSON to this path")
    parser.add_argument(
        "--telemetry-out", default=None,
        help="write the end-of-run /telemetry Prometheus snapshot to this path",
    )
    args = parser.parse_args(argv)
    report = run_bench(
        quick=args.quick, users=args.users, duration=args.duration, workers=args.workers
    )
    prom_text = report.pop("_telemetry_prom")
    print_report(report)
    if args.telemetry_out:
        with open(args.telemetry_out, "w") as handle:
            handle.write(prom_text)
        print(f"[serve] wrote {args.telemetry_out}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[serve] wrote {args.out}")
    failures = _gate(report, quick=args.quick)
    for failure in failures:
        print(f"[serve] FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
