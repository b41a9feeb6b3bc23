"""Wall-clock scaling of the runtime layer (parallel replay + result cache).

Records serial-vs-parallel wall time and the cache-hit speedup on a
presets.small stream (~8.5K nodes, ~63K edges, 17 snapshots).  Results are
asserted bit-identical in every mode; the throughput assertions are gated
on the host actually having enough cores (CI smoke machines and laptops
with fewer cores still record and print the measurements).

Run with ``-s`` to see the timing table.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.runtime import MetricSpec, compute_timeseries, evaluate_timeseries

SPEC = MetricSpec(path_sample=96, clustering_sample=600, seed=7)
WORKERS = 4
SNAPSHOTS = 16


@pytest.fixture(scope="module")
def bench_stream():
    return generate_trace(presets.small(), seed=7)


def _assert_identical(a, b) -> None:
    assert a.times == b.times
    for name in a.values:
        np.testing.assert_array_equal(np.asarray(a.values[name]), np.asarray(b.values[name]))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_scaling(bench_stream):
    """Windowed parallel evaluation: identical output, recorded speedup."""
    interval = bench_stream.end_time / SNAPSHOTS
    serial, t_serial = _timed(
        lambda: evaluate_timeseries(bench_stream, SPEC, interval=interval, workers=1)
    )
    parallel, t_parallel = _timed(
        lambda: evaluate_timeseries(bench_stream, SPEC, interval=interval, workers=WORKERS)
    )
    _assert_identical(serial, parallel)
    speedup = t_serial / t_parallel
    cores = os.cpu_count() or 1
    print(
        f"\n[runtime_scaling] snapshots={len(serial.times)} cores={cores}\n"
        f"[runtime_scaling] serial      : {t_serial:8.2f} s\n"
        f"[runtime_scaling] {WORKERS} workers   : {t_parallel:8.2f} s\n"
        f"[runtime_scaling] speedup     : {speedup:8.2f}x"
    )
    if cores >= WORKERS:
        assert speedup >= 2.0, f"expected >= 2x at {WORKERS} workers, got {speedup:.2f}x"
    else:
        print(f"[runtime_scaling] speedup assertion skipped: only {cores} core(s)")


def test_cache_hit_speedup(bench_stream, tmp_path):
    """A warm cache serves the identical series >= 10x faster than computing."""
    interval = bench_stream.end_time / SNAPSHOTS
    cold, t_cold = _timed(
        lambda: compute_timeseries(bench_stream, SPEC, interval=interval, cache_dir=tmp_path)
    )
    warm, t_warm = _timed(
        lambda: compute_timeseries(bench_stream, SPEC, interval=interval, cache_dir=tmp_path)
    )
    _assert_identical(cold, warm)
    speedup = t_cold / t_warm
    print(
        f"\n[runtime_scaling] cold (compute + store): {t_cold:8.2f} s\n"
        f"[runtime_scaling] warm (cache hit)      : {t_warm:8.4f} s\n"
        f"[runtime_scaling] speedup               : {speedup:8.0f}x"
    )
    assert t_warm < t_cold
    if t_cold >= 0.5:  # only meaningful when the cold run does real work
        assert speedup >= 10.0, f"expected >= 10x warm-cache speedup, got {speedup:.1f}x"
