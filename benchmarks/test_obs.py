"""Benchmark harness for the observability layer's disabled-path overhead.

The repro.obs contract is "zero overhead when off": with the default
:class:`~repro.obs.NullRecorder` installed, every instrumented site costs
one module-global read plus a no-op call.  This harness bounds that cost
analytically, which is robust on noisy CI boxes where timing the same
workload twice varies by far more than the overhead being measured:

1. run the metric-timeseries workload untraced and time it;
2. re-run it under a *counting* recorder whose ``enabled`` is ``False``
   (so ``if rec.enabled:`` guarded sites are skipped exactly as in
   production) to count the instrumentation calls the disabled path
   actually executes;
3. microbenchmark the real ``NullRecorder`` per-site cost, and assert
   ``hits x per_site / workload_seconds <= 2%``.

The harness also asserts the tracing-parity contract — a fully traced
run must produce bit-identical metric values — and gates the *enabled*
``observe()`` hot loop (the per-request streaming-histogram ingest the
serve layer pays) under :data:`OBSERVE_BUDGET_NS`.

Two entry points:

* ``pytest benchmarks/test_obs.py`` — the default-scale regression test
  on presets.small.
* ``python benchmarks/test_obs.py [--quick] [--out BENCH_obs.json]
  [--trace-out run.json]`` — the CI smoke harness; ``--trace-out``
  additionally writes the traced run's Chrome trace (the CI artifact).
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import AbstractContextManager
from typing import Any

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.obs import NULL_RECORDER, Recorder, TraceRecorder, use_recorder, write_trace
from repro.runtime import MetricSpec, compute_timeseries

MAX_OVERHEAD = 0.02  # disabled-path budget: <= 2% of workload wall time
#: Enabled-path budget for ``Recorder.observe`` (histogram ingest): the
#: serve hot path calls it once per request, so one observation must stay
#: cheap — a bucket-index bisect plus a handful of attribute updates.
OBSERVE_BUDGET_NS = 3000.0
#: Rows ``repro obs diff`` gates this report on against its committed
#: baseline (``benchmarks/baselines/``): dotted key -> direction and slack.
#: "higher" ratios regress by falling, "lower" ratios by rising.
#: ``slack`` is an absolute change additionally required to fail — it
#: keeps noise-dominated near-zero ratios (the obs overhead fraction is
#: ~3e-4) from flapping the gate on relative change alone.
GATE = {
    "overhead_fraction": {"better": "lower", "slack": 0.005},
    # The enabled-path histogram ingest the serve hot loop pays once per
    # request; the ns slack absorbs scheduler noise on shared runners.
    "observe_ns_per_call": {"better": "lower", "slack": 1500.0},
}


class _CountingRecorder(Recorder):
    """Counts disabled-path instrumentation hits without recording anything.

    ``enabled`` stays ``False``, so guarded sites (``if rec.enabled:``)
    skip exactly as they do in production disabled runs — ``hits`` is
    therefore the exact number of recorder calls the disabled path pays
    for, not the (larger) number a traced run would make.
    """

    enabled = False

    def __init__(self) -> None:
        self.hits = 0
        self._null = NULL_RECORDER.span("count")

    def span(self, name: str, **attrs: Any) -> AbstractContextManager[None]:
        self.hits += 1
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        self.hits += 1

    def gauge(self, name: str, value: float) -> None:
        self.hits += 1

    def observe(self, name: str, value: float) -> None:
        self.hits += 1


def _null_site_cost_s(iters: int = 200_000) -> float:
    """Measured wall seconds per disabled instrumentation site.

    One "site" is the full pattern instrumented code pays: fetch the
    recorder, open a span with a keyword attribute, enter and exit it.
    """
    from repro.obs import get_recorder

    began = time.perf_counter()
    for _ in range(iters):
        with get_recorder().span("bench.site", snapshot=0):
            pass
    return (time.perf_counter() - began) / iters


def _observe_cost_ns(iters: int = 200_000) -> float:
    """Measured wall nanoseconds per *enabled* ``observe()`` call.

    This is the streaming-histogram ingest the serve hot path pays once
    per request: one bucket bisect over the precomputed bound table plus
    the exact count/sum/min/max sidecar updates.  The values sweep five
    decades so every call takes the general bisect path, not a
    single-bucket fast case.
    """
    recorder = TraceRecorder(lane=0, label="bench")
    values = [10.0 ** (-4.0 + 5.0 * (i % 97) / 96.0) for i in range(97)]
    observe = recorder.observe
    began = time.perf_counter()
    for i in range(iters):
        observe("bench.latency", values[i % 97])
    return (time.perf_counter() - began) / iters * 1e9


_PRESETS = {
    "tiny": presets.tiny,
    "small": presets.small,
    "medium": presets.medium,
    "paper_scale_small": presets.paper_scale_small,
}


def run_bench(quick: bool = False, seed: int = 7, preset: str | None = None) -> dict:
    """Measure disabled-path overhead and tracing parity; returns the report."""
    if quick:
        preset = preset or "tiny"
        spec = MetricSpec(path_sample=60, clustering_sample=300, seed=seed)
        interval = 10.0
    else:
        preset = preset or "small"
        spec = MetricSpec(path_sample=200, clustering_sample=800, seed=seed)
        interval = 10.0
    config = _PRESETS[preset]()
    stream = generate_trace(config, seed=seed)

    # 1. The production disabled path, timed.
    began = time.perf_counter()
    untraced = compute_timeseries(stream, spec, interval=interval)
    workload_s = time.perf_counter() - began

    # 2. Exact count of the instrumentation calls that path executed.
    counting = _CountingRecorder()
    with use_recorder(counting):
        compute_timeseries(stream, spec, interval=interval)
    hits = counting.hits

    # 3. Per-site cost of the real NullRecorder.
    per_site_s = _null_site_cost_s()
    overhead_fraction = hits * per_site_s / workload_s if workload_s > 0 else 0.0

    # 4. Enabled-path histogram ingest: one observe() per serve request.
    observe_ns = _observe_cost_ns()

    # Parity: a fully traced run must not change a single value.
    recorder = TraceRecorder(lane=0, label="main")
    with use_recorder(recorder):
        traced = compute_timeseries(stream, spec, interval=interval)
    values_identical = traced.times == untraced.times and traced.values == untraced.values
    assert values_identical, "tracing changed metric values"

    payload = recorder.to_payload()
    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "snapshots": len(untraced.times),
        "workload_s": workload_s,
        "instrumentation_hits": hits,
        "per_site_ns": per_site_s * 1e9,
        "overhead_fraction": overhead_fraction,
        "max_overhead": MAX_OVERHEAD,
        "observe_ns_per_call": observe_ns,
        "observe_budget_ns": OBSERVE_BUDGET_NS,
        "values_identical": values_identical,
        "traced_spans": sum(len(lane["spans"]) for lane in payload["lanes"]),
        "gate": GATE,
        "_trace_payload": payload,  # stripped before JSON output
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    print(
        f"[obs] preset={report['preset']} snapshots={report['snapshots']} "
        f"workload={report['workload_s']:.3f}s"
    )
    print(
        f"[obs] disabled-path: {report['instrumentation_hits']} site hits x "
        f"{report['per_site_ns']:.0f}ns = "
        f"{100.0 * report['overhead_fraction']:.4f}% of workload "
        f"(budget {100.0 * report['max_overhead']:.1f}%)"
    )
    print(
        f"[obs] enabled observe(): {report['observe_ns_per_call']:.0f}ns/call "
        f"(budget {report['observe_budget_ns']:.0f}ns)"
    )
    print(
        f"[obs] traced run: {report['traced_spans']} spans, values identical: "
        f"{report['values_identical']}"
    )


def test_obs_disabled_overhead():
    """Default scale: disabled tracing must cost <= 2% of the workload."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert report["values_identical"]
    assert report["overhead_fraction"] <= MAX_OVERHEAD
    assert report["observe_ns_per_call"] <= OBSERVE_BUDGET_NS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="observability overhead benchmark harness")
    parser.add_argument("--quick", action="store_true", help="seconds-long smoke workload")
    parser.add_argument(
        "--preset",
        default=None,
        choices=sorted(_PRESETS),
        help="generator preset (default: tiny under --quick, else small)",
    )
    parser.add_argument("--out", default=None, help="write the report as JSON to this path")
    parser.add_argument(
        "--trace-out", default=None,
        help="also write the traced run's trace here (.json -> Chrome trace-event)",
    )
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick, preset=args.preset)
    payload = report.pop("_trace_payload")
    print_report(report)
    if args.trace_out:
        fmt = write_trace(payload, args.trace_out)
        print(f"[obs] wrote {fmt} trace to {args.trace_out}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[obs] wrote {args.out}")
    if not report["values_identical"]:
        print("[obs] FAIL: tracing changed metric values")
        return 1
    if report["overhead_fraction"] > MAX_OVERHEAD:
        print(
            f"[obs] FAIL: disabled-path overhead "
            f"{100.0 * report['overhead_fraction']:.3f}% exceeds the "
            f"{100.0 * MAX_OVERHEAD:.1f}% budget"
        )
        return 1
    if report["observe_ns_per_call"] > OBSERVE_BUDGET_NS:
        print(
            f"[obs] FAIL: enabled observe() {report['observe_ns_per_call']:.0f}ns/call "
            f"exceeds the {OBSERVE_BUDGET_NS:.0f}ns budget"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
