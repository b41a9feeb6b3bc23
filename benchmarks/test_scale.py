"""Benchmark harness for the generator's streaming store path.

Times :meth:`repro.gen.fast.FastGenerator.generate_to_store`, which samples
whole day-windows as numpy arrays and streams fixed-width batches into the
store writer with no per-event Python objects.  Every repetition's store is
verified after timing, and all repetitions must publish the same content
digest.  ``--huge`` runs presets.huge (≥1M nodes, ≥10M edges) and asserts
the documented peak-RSS budget via the ``peak_rss_bytes`` gauge.

Entry points:

* ``pytest benchmarks/test_scale.py`` — default scale (presets.medium):
  the store verifies and its digest is stable across repetitions.
* ``python benchmarks/test_scale.py [--quick] [--preset NAME] [--huge]
  [--out F]`` — the CI harness; ``--quick`` runs a seconds-long
  presets.small workload.
"""

from __future__ import annotations

import argparse
import json
import math
import tempfile
import time
from pathlib import Path

from repro.gen.config import presets
from repro.gen.fast import FastGenerator
from repro.obs import peak_rss_bytes
from repro.store.reader import EventStore

# Peak-RSS ceiling for the presets.huge run, asserted by --huge and
# documented in docs/generation.md.  Measured headroom: the run peaks
# well under half of this on CPython 3.11 / numpy 2.x.
HUGE_MEMORY_BUDGET_BYTES = 8 * 2**30
HUGE_MIN_EDGES = 10_000_000

_PRESETS = {
    "tiny": presets.tiny,
    "small": presets.small,
    "medium": presets.medium,
    "huge": presets.huge,
}


def _timed_fast_store(config, seed: int, path: Path) -> tuple[float, dict]:
    began = time.perf_counter()
    manifest = FastGenerator(config, seed=seed).generate_to_store(path)
    elapsed = time.perf_counter() - began
    nodes = sum(c.count for c in manifest.node_chunks)
    edges = sum(c.count for c in manifest.edge_chunks)
    store = EventStore(path)
    store.verify()
    return elapsed, {
        "seconds": elapsed,
        "nodes": nodes,
        "edges": edges,
        "events": nodes + edges,
        "events_per_s": (nodes + edges) / elapsed if elapsed > 0 else float("inf"),
        "content_digest": manifest.content_digest,
    }


def run_bench(
    quick: bool = False, seed: int = 7, preset: str | None = None, repeats: int = 3
) -> dict:
    """Time store generation at one preset; returns the report.

    The best (minimum) of ``repeats`` wall times counts: on shared CI
    runners single-shot timings swing by ±15%, and the minimum is the
    standard robust estimator for CPU-bound work.
    """
    if preset is None:
        preset = "small" if quick else "medium"
    config = _PRESETS[preset]()

    best_s, best_row, digests = math.inf, {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(repeats):
            rep_s, rep_row = _timed_fast_store(config, seed, Path(tmp) / f"gen{rep}.store")
            digests.add(rep_row["content_digest"])
            if rep_s < best_s:
                best_s, best_row = rep_s, rep_row

    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "fast": best_row,
        "deterministic": len(digests) == 1,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_huge(seed: int = 7, out_store: str | None = None) -> dict:
    """The weekly-scale run: presets.huge, gated on the peak-RSS budget."""
    config = presets.huge()
    if out_store is None:
        with tempfile.TemporaryDirectory() as tmp:
            _, row = _timed_fast_store(config, seed, Path(tmp) / "huge.store")
    else:
        _, row = _timed_fast_store(config, seed, Path(out_store))
    peak = peak_rss_bytes()
    return {
        "preset": "huge",
        "seed": seed,
        "fast": row,
        "peak_rss_bytes": peak,
        "memory_budget_bytes": HUGE_MEMORY_BUDGET_BYTES,
        "within_budget": 0 < peak <= HUGE_MEMORY_BUDGET_BYTES,
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    row = report["fast"]
    print(
        f"[scale] preset={report['preset']} nodes={row['nodes']} edges={row['edges']} "
        f"({row['seconds']:.3f}s, {row['events_per_s']:,.0f} ev/s)"
    )
    if "memory_budget_bytes" in report:
        print(
            f"[scale] peak rss {report['peak_rss_bytes'] / 2**30:.2f} GiB "
            f"(budget {report['memory_budget_bytes'] / 2**30:.0f} GiB) "
            f"within_budget={report['within_budget']}"
        )
    else:
        print(
            f"[scale] deterministic={report['deterministic']}, "
            f"peak rss {report['peak_rss_bytes'] / 2**20:.0f} MiB"
        )


def test_scale_generate_to_store():
    """Default scale: every repetition verifies and publishes one digest."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert report["deterministic"]
    assert report["fast"]["edges"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="store generation benchmark harness")
    parser.add_argument("--quick", action="store_true", help="seconds-long smoke workload")
    parser.add_argument(
        "--preset",
        default=None,
        choices=sorted(_PRESETS),
        help="generator preset (default: small under --quick, else medium)",
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help="run presets.huge and gate on the memory budget",
    )
    parser.add_argument("--out", default=None, help="write the report as JSON to this path")
    parser.add_argument(
        "--out-store", default=None, help="with --huge: keep the generated store at this path"
    )
    args = parser.parse_args(argv)

    if args.huge:
        report = run_huge(out_store=args.out_store)
        print_report(report)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(report, handle, indent=2)
            print(f"[scale] wrote {args.out}")
        if report["fast"]["edges"] < HUGE_MIN_EDGES:
            print(f"[scale] FAIL: fewer than {HUGE_MIN_EDGES:,} edges")
            return 1
        if not report["within_budget"]:
            print("[scale] FAIL: peak RSS above the documented budget")
            return 1
        return 0

    report = run_bench(quick=args.quick, preset=args.preset)
    print_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[scale] wrote {args.out}")
    if not report["deterministic"]:
        print("[scale] FAIL: repetitions published different content digests")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
