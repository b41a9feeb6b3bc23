"""Benchmark-regression harness for the incremental delta engine.

Replays a generated Renren stream at a *dense* snapshot cadence (one
snapshot per simulated day) and times the per-snapshot metric suite —
degree distribution, average degree, sampled clustering, assortativity —
two ways:

* **csr**: advance the replay, which builds each snapshot's
  :class:`~repro.kernels.csr.CSRGraph` from the event columns, and run the
  batch kernels (what the csr engine pays);
* **delta**: advance the same replay, feed the window's arrival events to
  a :class:`~repro.kernels.delta.DeltaMetricEngine` and read the
  maintained accumulators (what the delta engine pays, event application
  charged to the delta side).

The replay is timed on both sides: the runtime advances it — and so
builds every snapshot's CSR — whichever engine evaluates the suite.

Every metric value is asserted bit-identical between the two sides while
timing, and the metric-suite aggregate is gated.

Two entry points:

* ``pytest benchmarks/test_delta.py`` — default-scale regression test:
  the delta engine must hold a 3x aggregate speedup on presets.small.
* ``python benchmarks/test_delta.py [--quick] [--preset NAME] [--out F]``
  — the CI harness; ``--quick`` runs a seconds-long tiny workload and
  fails (exit 1) if delta is slower than csr in aggregate.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.clustering import average_clustering_csr
from repro.kernels.delta import DeltaMetricEngine
from repro.metrics.degree import average_degree
from repro.util.binning import histogram_counts

SPEEDUP_FLOOR = 3.0  # default scale (presets.small, 1-day windows)
QUICK_FLOOR = 1.0  # smoke workload: delta must simply not be slower
#: Rows ``repro obs diff`` gates this report on against its committed
#: baseline (``benchmarks/baselines/``): dotted key -> direction and slack.
#: "higher" ratios regress by falling, "lower" ratios by rising.
GATE = {"aggregate.speedup": {"better": "higher", "slack": 0.0}}

_PRESETS = {
    "tiny": presets.tiny,
    "small": presets.small,
    "medium": presets.medium,
    "paper_scale_small": presets.paper_scale_small,
}


def _feq(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def run_bench(quick: bool = False, seed: int = 7, preset: str | None = None) -> dict:
    """Time the per-snapshot suite under both strategies; returns the report."""
    if preset is None:
        preset = "tiny" if quick else "small"
    config = _PRESETS[preset]()
    clustering_sample = 200 if quick else 800
    stream = generate_trace(config, seed=seed)
    times = [float(day) for day in range(1, int(stream.end_time) + 1)]

    suite_names = ("degree_distribution", "average_degree", "average_clustering", "assortativity")
    suite = {name: {"csr_s": 0.0, "delta_s": 0.0} for name in suite_names}
    replay_s = {"csr": 0.0, "delta": 0.0}
    apply_s = 0.0

    # -- csr pass: replay CSR + batch kernels at every snapshot ------------
    csr_values: list[dict[str, object]] = []
    replay = DynamicGraph(stream)
    snapshots = 0
    final_nodes = final_edges = 0
    for i, t in enumerate(times):
        began = time.perf_counter()
        csr = replay.advance_to(t).graph
        replay_s["csr"] += time.perf_counter() - began
        if csr.num_nodes == 0:
            csr_values.append({})
            continue
        snapshots += 1

        row: dict[str, object] = {}
        began = time.perf_counter()
        row["degree_distribution"] = histogram_counts(csr.degrees.tolist())
        suite["degree_distribution"]["csr_s"] += time.perf_counter() - began
        began = time.perf_counter()
        row["average_degree"] = average_degree(csr)
        suite["average_degree"]["csr_s"] += time.perf_counter() - began
        began = time.perf_counter()
        row["average_clustering"] = average_clustering_csr(
            csr, clustering_sample, np.random.default_rng((seed, i))
        )
        suite["average_clustering"]["csr_s"] += time.perf_counter() - began
        began = time.perf_counter()
        row["assortativity"] = degree_assortativity_csr(csr)
        suite["assortativity"]["csr_s"] += time.perf_counter() - began
        csr_values.append(row)
        final_nodes, final_edges = csr.num_nodes, csr.num_edges

    # -- delta pass: incremental engine over the same windows --------------
    replay = DynamicGraph(stream)
    engine = DeltaMetricEngine()
    for i, t in enumerate(times):
        began = time.perf_counter()
        view = replay.advance_to(t)
        replay_s["delta"] += time.perf_counter() - began
        began = time.perf_counter()
        engine.apply_view(view.new_nodes, view.new_edges)
        apply_s += time.perf_counter() - began
        want = csr_values[i]
        if not want:
            continue

        began = time.perf_counter()
        dist = engine.degree_distribution()
        suite["degree_distribution"]["delta_s"] += time.perf_counter() - began
        assert dist == want["degree_distribution"], "degree_distribution diverged"
        began = time.perf_counter()
        avg_deg = engine.average_degree()
        suite["average_degree"]["delta_s"] += time.perf_counter() - began
        assert avg_deg == want["average_degree"], "average_degree diverged"
        began = time.perf_counter()
        clus = engine.average_clustering(clustering_sample, np.random.default_rng((seed, i)))
        suite["average_clustering"]["delta_s"] += time.perf_counter() - began
        assert _feq(clus, want["average_clustering"]), "average_clustering diverged"
        began = time.perf_counter()
        assort = engine.assortativity()
        suite["assortativity"]["delta_s"] += time.perf_counter() - began
        assert _feq(assort, want["assortativity"]), "assortativity diverged"

    for row in suite.values():
        row["speedup"] = row["csr_s"] / row["delta_s"] if row["delta_s"] > 0 else float("inf")
    csr_total = sum(row["csr_s"] for row in suite.values()) + replay_s["csr"]
    delta_total = sum(row["delta_s"] for row in suite.values()) + replay_s["delta"] + apply_s
    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "clustering_sample": clustering_sample,
        "snapshots": snapshots,
        "final_graph": {"nodes": final_nodes, "edges": final_edges},
        "suite": suite,
        "csr_replay_s": replay_s["csr"],
        "delta_replay_s": replay_s["delta"],
        "delta_apply_s": apply_s,
        "aggregate": {
            "csr_s": csr_total,
            "delta_s": delta_total,
            "speedup": csr_total / delta_total if delta_total > 0 else float("inf"),
        },
        "gate": GATE,
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    final = report["final_graph"]
    print(
        f"[delta] preset={report['preset']} snapshots={report['snapshots']} "
        f"final={final['nodes']}n/{final['edges']}e"
    )
    print(f"[delta] {'metric':<24}{'csr s':>12}{'delta s':>12}{'speedup':>10}")
    for name, row in report["suite"].items():
        print(
            f"[delta] {name:<24}{row['csr_s']:>12.3f}{row['delta_s']:>12.3f}"
            f"{row['speedup']:>9.1f}x"
        )
    print(
        f"[delta] {'replay (CSR build)':<24}{report['csr_replay_s']:>12.3f}"
        f"{report['delta_replay_s']:>12.3f}"
    )
    print(f"[delta] {'delta event apply':<24}{'':>12}{report['delta_apply_s']:>12.3f}")
    agg = report["aggregate"]
    print(
        f"[delta] {'aggregate':<24}{agg['csr_s']:>12.3f}{agg['delta_s']:>12.3f}"
        f"{agg['speedup']:>9.1f}x"
    )


def test_delta_aggregate_speedup():
    """Default scale: the delta engine must hold a 3x aggregate speedup."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert report["aggregate"]["speedup"] >= SPEEDUP_FLOOR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="delta engine benchmark harness")
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
        print(f"[delta] wrote {args.out}")
    floor = QUICK_FLOOR if args.quick else SPEEDUP_FLOOR
    if report["aggregate"]["speedup"] < floor:
        print(f"[delta] FAIL: aggregate speedup below the {floor:.1f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
