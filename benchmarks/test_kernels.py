"""Benchmark-regression harness for the CSR kernel layer.

Times every kernel-enabled function against its ``*_reference`` twin (the
dict/set implementation in ``tests/oracles.py``) on snapshots of a
generated Renren stream, asserts the results are bit-identical while
timing, and reports per-kernel plus aggregate speedups.

Two entry points:

* ``pytest benchmarks/test_kernels.py`` — the default-scale regression
  test: aggregate CSR speedup must be at least 5x on presets.small.
* ``PYTHONPATH=src:. python benchmarks/test_kernels.py [--quick] [--out
  BENCH_kernels.json]`` — the CI smoke harness (``.`` makes
  ``tests.oracles`` importable): ``--quick`` runs a seconds-long workload
  and fails (exit 1) if CSR is slower than the references in aggregate;
  ``--out`` writes the measurements as JSON.

The references run on a dict-of-sets snapshot of the stream prefix; the
CSR timings charge that snapshot's ``from_snapshot`` freeze to the CSR
side (as ``csr_build``), once per snapshot for the whole suite.
"""

from __future__ import annotations

import argparse
import json
import math
import time

from tests.oracles import (
    GraphSnapshot,
    average_clustering_reference,
    average_path_length_reference,
    connected_components_reference,
    degree_assortativity_reference,
    from_snapshot,
    louvain_reference,
)

from repro.community.louvain import louvain
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.events import EventStream
from repro.kernels.traversal import connected_components_csr
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.paths import average_path_length_sampled

SPEEDUP_FLOOR = 5.0  # default scale
QUICK_FLOOR = 1.0  # smoke workload: CSR must simply not be slower
#: Rows ``repro obs diff`` gates this report on against its committed
#: baseline (``benchmarks/baselines/``): dotted key -> direction and slack.
#: "higher" ratios regress by falling, "lower" ratios by rising.
#: The clustering row catches a silent fallback from its C loop to the
#: Python loop, which the aggregate (dominated by path length) would hide:
#: the C loop runs about 8-10x the reference on the smoke workload, the
#: Python loop about 0.7x, so only a drop of 5 or more fails.
GATE = {
    "aggregate.speedup": {"better": "higher", "slack": 0.0},
    "kernels.average_clustering.speedup": {"better": "higher", "slack": 5.0},
}

_PRESETS = {
    "tiny": presets.tiny,
    "small": presets.small,
    "medium": presets.medium,
    "paper_scale_small": presets.paper_scale_small,
}


def _kernel_suite(path_sample: int, clustering_sample: int):
    """name → (reference fn(graph), kernel fn(csr)) per kernel-enabled function."""
    return {
        "average_path_length": (
            lambda g: average_path_length_reference(g, path_sample, rng=7),
            lambda csr: average_path_length_sampled(csr, path_sample, rng=7),
        ),
        "average_clustering": (
            lambda g: average_clustering_reference(g, clustering_sample, rng=7),
            lambda csr: average_clustering(csr, clustering_sample, rng=7),
        ),
        "assortativity": (degree_assortativity_reference, degree_assortativity),
        "connected_components": (
            lambda g: float(len(connected_components_reference(g))),
            lambda csr: float(len(connected_components_csr(csr))),
        ),
        "louvain": (
            lambda g: louvain_reference(g, delta=0.04, seed=7).modularity,
            lambda csr: louvain(csr, delta=0.04, seed=7).modularity,
        ),
    }


def _prefix_snapshot(stream: EventStream, time: float) -> GraphSnapshot:
    """The dict-of-sets graph of every event up to ``time``, nodes in arrival order."""
    nodes = stream.nodes.node[stream.nodes.time <= time].tolist()
    edges = stream.edges[stream.edges.time <= time]
    pairs = zip(edges.u.tolist(), edges.v.tolist(), strict=True)
    return GraphSnapshot.from_edges(pairs, nodes=nodes)


def run_bench(quick: bool = False, seed: int = 7, preset: str | None = None) -> dict:
    """Time the kernel suite against the references; returns the report dict."""
    if quick:
        preset = preset or "tiny"
        path_sample, clustering_sample = 60, 300
        fractions = (1.0,)
    else:
        preset = preset or "small"
        path_sample, clustering_sample = 400, 1500
        fractions = (0.5, 1.0)
    config = _PRESETS[preset]()
    stream = generate_trace(config, seed=seed)
    snapshots = []
    for fraction in fractions:
        time_t = fraction * stream.end_time
        snapshots.append((time_t, _prefix_snapshot(stream, time_t)))

    suite = _kernel_suite(path_sample, clustering_sample)
    # One untimed call per kernel first: the first call of a C kernel on a
    # cold cache compiles it, which is not the kernel's speed.
    warm = from_snapshot(snapshots[0][1])
    for _, kernel in suite.values():
        kernel(warm)
    kernels = {name: {"python_s": 0.0, "csr_s": 0.0} for name in suite}
    build_s = 0.0
    for _, graph in snapshots:
        began = time.perf_counter()
        csr = from_snapshot(graph)
        build_s += time.perf_counter() - began
        for name, (reference, kernel) in suite.items():
            began = time.perf_counter()
            py_value = reference(graph)
            kernels[name]["python_s"] += time.perf_counter() - began
            began = time.perf_counter()
            csr_value = kernel(csr)
            kernels[name]["csr_s"] += time.perf_counter() - began
            identical = py_value == csr_value or (math.isnan(py_value) and math.isnan(csr_value))
            assert identical, f"{name}: kernel disagrees ({py_value} != {csr_value})"

    for name, row in kernels.items():
        row["speedup"] = row["python_s"] / row["csr_s"] if row["csr_s"] > 0 else float("inf")
    python_total = sum(row["python_s"] for row in kernels.values())
    csr_total = sum(row["csr_s"] for row in kernels.values()) + build_s
    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "path_sample": path_sample,
        "clustering_sample": clustering_sample,
        "snapshots": [
            {"time": t, "nodes": g.num_nodes, "edges": g.num_edges} for t, g in snapshots
        ],
        "kernels": kernels,
        "csr_build_s": build_s,
        "aggregate": {
            "python_s": python_total,
            "csr_s": csr_total,
            "speedup": python_total / csr_total if csr_total > 0 else float("inf"),
        },
        "gate": GATE,
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    sizes = ", ".join(f"{s['nodes']}n/{s['edges']}e" for s in report["snapshots"])
    print(f"[kernels] preset={report['preset']} snapshots: {sizes}")
    print(f"[kernels] {'kernel':<24}{'python s':>12}{'csr s':>12}{'speedup':>10}")
    for name, row in report["kernels"].items():
        print(
            f"[kernels] {name:<24}{row['python_s']:>12.3f}{row['csr_s']:>12.3f}"
            f"{row['speedup']:>9.1f}x"
        )
    agg = report["aggregate"]
    print(f"[kernels] {'csr graph build':<24}{'':>12}{report['csr_build_s']:>12.3f}")
    print(
        f"[kernels] {'aggregate':<24}{agg['python_s']:>12.3f}{agg['csr_s']:>12.3f}"
        f"{agg['speedup']:>9.1f}x"
    )


def test_kernels_aggregate_speedup():
    """Default scale: the CSR kernels must hold a 5x aggregate speedup."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert report["aggregate"]["speedup"] >= SPEEDUP_FLOOR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="CSR kernel benchmark harness")
    parser.add_argument("--quick", action="store_true", help="seconds-long smoke workload")
    parser.add_argument(
        "--preset",
        default=None,
        choices=sorted(_PRESETS),
        help="generator preset (default: tiny under --quick, else small)",
    )
    parser.add_argument("--out", default=None, help="write the report as JSON to this path")
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick, preset=args.preset)
    print_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[kernels] wrote {args.out}")
    floor = QUICK_FLOOR if args.quick else SPEEDUP_FLOOR
    if report["aggregate"]["speedup"] < floor:
        print(f"[kernels] FAIL: aggregate speedup below the {floor:.1f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
