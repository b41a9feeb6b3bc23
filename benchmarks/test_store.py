"""Benchmark-regression harness for the columnar event store.

Compares the cold-start cost of answering time-window queries from a TSV
trace (parse everything, then slice) against the columnar store (open the
manifest, memmap only the chunks each window touches), asserting the two
paths see identical events while timing.

Two entry points:

* ``pytest benchmarks/test_store.py`` — the default-scale regression
  test: store open + window scans must be at least 10x faster than the
  TSV parse on presets.small.
* ``python benchmarks/test_store.py [--quick] [--out BENCH_store.json]``
  — the CI smoke harness: ``--quick`` runs a seconds-long workload and
  fails (exit 1) if the store is slower than TSV; ``--out`` writes the
  measurements as JSON.

The TSV side is timed without stream validation — its cheapest possible
parse — so the recorded speedup is a conservative floor.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.stream_io import read_event_stream, write_event_stream
from repro.store import EventStore, write_store

SPEEDUP_FLOOR = 10.0  # default scale
QUICK_FLOOR = 1.0  # smoke workload: the store must simply not be slower
#: Rows ``repro obs diff`` gates this report on against its committed
#: baseline (``benchmarks/baselines/``): dotted key -> direction and slack.
#: "higher" ratios regress by falling, "lower" ratios by rising.
GATE = {"speedup": {"better": "higher", "slack": 0.0}}

_WINDOWS = 16  # evenly spaced windows, each 5% of the trace span


def _window_grid(end_time: float) -> list[tuple[float, float]]:
    width = 0.05 * end_time
    starts = np.linspace(0.0, end_time - width, _WINDOWS)
    return [(float(s), float(s + width)) for s in starts]


def _scan_tsv(tsv_path: Path, windows: list[tuple[float, float]]) -> int:
    """Parse the trace, slice each window; returns the total events seen."""
    stream = read_event_stream(tsv_path, validate=False)
    total = 0
    for start, end in windows:
        sub = stream.slice(start, end)
        total += sub.num_nodes + sub.num_edges
    return total


def _scan_store(store_path: Path, windows: list[tuple[float, float]]) -> int:
    """Open the store, scan each window; returns the total events seen."""
    store = EventStore(store_path)
    total = 0
    for start, end in windows:
        node_times, _, _ = store.nodes_in(start, end)
        edge_times, _, _ = store.edges_in(start, end)
        total += int(node_times.size) + int(edge_times.size)
    return total


def _assert_window_parity(
    stream, store_path: Path, windows: list[tuple[float, float]]
) -> None:
    """Untimed deep check: both paths must see the exact same events."""
    store = EventStore(store_path)
    for start, end in windows:
        sub = stream.slice(start, end)
        node_times, node_ids, _ = store.nodes_in(start, end)
        edge_times, us, vs = store.edges_in(start, end)
        assert node_times.tolist() == sub.nodes.time.tolist()
        assert node_ids.tolist() == sub.nodes.node.tolist()
        assert edge_times.tolist() == sub.edges.time.tolist()
        assert us.tolist() == sub.edges.u.tolist()
        assert vs.tolist() == sub.edges.v.tolist()


_PRESETS = {
    "tiny": presets.tiny,
    "small": presets.small,
    "medium": presets.medium,
    "paper_scale_small": presets.paper_scale_small,
}


def run_bench(quick: bool = False, seed: int = 7, preset: str | None = None) -> dict:
    """Time TSV-parse-and-slice vs store-open-and-scan; returns the report."""
    if quick:
        preset, trials = preset or "tiny", 3
    else:
        preset, trials = preset or "small", 5
    config = _PRESETS[preset]()
    stream = generate_trace(config, seed=seed)
    windows = _window_grid(stream.end_time)

    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        tsv_path = root / "trace.tsv"
        store_path = root / "trace.store"
        write_event_stream(stream, tsv_path)
        began = time.perf_counter()
        write_store(stream, store_path)
        convert_s = time.perf_counter() - began
        _assert_window_parity(stream, store_path, windows)

        tsv_s = []
        store_s = []
        for _ in range(trials):
            began = time.perf_counter()
            tsv_checksum = _scan_tsv(tsv_path, windows)
            tsv_s.append(time.perf_counter() - began)
            began = time.perf_counter()
            store_checksum = _scan_store(store_path, windows)
            store_s.append(time.perf_counter() - began)
            assert tsv_checksum == store_checksum, (
                f"paths disagree: tsv={tsv_checksum!r} store={store_checksum!r}"
            )
        tsv_bytes = tsv_path.stat().st_size
        store_bytes = sum(f.stat().st_size for f in store_path.iterdir() if f.is_file())

    best_tsv, best_store = min(tsv_s), min(store_s)
    return {
        "preset": preset,
        "seed": seed,
        "quick": quick,
        "trials": trials,
        "windows": _WINDOWS,
        "events": {"nodes": stream.num_nodes, "edges": stream.num_edges},
        "bytes": {"tsv": tsv_bytes, "store": store_bytes},
        "convert_s": convert_s,
        "tsv_parse_scan_s": best_tsv,
        "store_open_scan_s": best_store,
        "speedup": best_tsv / best_store if best_store > 0 else float("inf"),
        "gate": GATE,
    }


def print_report(report: dict) -> None:
    """Render the report as the table CI logs show."""
    ev = report["events"]
    size = report["bytes"]
    print(
        f"[store] preset={report['preset']} events: {ev['nodes']}n/{ev['edges']}e  "
        f"tsv {size['tsv']} B -> store {size['store']} B"
    )
    print(f"[store] {'path':<28}{'best s':>12}")
    print(f"[store] {'tsv parse + slice':<28}{report['tsv_parse_scan_s']:>12.4f}")
    print(f"[store] {'store open + window scan':<28}{report['store_open_scan_s']:>12.4f}")
    print(f"[store] {'one-time convert':<28}{report['convert_s']:>12.4f}")
    print(f"[store] speedup: {report['speedup']:.1f}x over {report['windows']} windows")


def test_store_open_scan_speedup():
    """Default scale: store open + scan must hold a 10x speedup over TSV."""
    report = run_bench(quick=False)
    print()
    print_report(report)
    assert report["speedup"] >= SPEEDUP_FLOOR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="columnar store benchmark harness")
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
        print(f"[store] wrote {args.out}")
    floor = QUICK_FLOOR if args.quick else SPEEDUP_FLOOR
    if report["speedup"] < floor:
        print(f"[store] FAIL: speedup below the {floor:.1f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
