"""Benchmark-regression gate: compare fresh BENCH_*.json against baselines.

CI's ``bench-regression`` job re-runs every benchmark harness in quick
mode, then calls this script to compare the machine-relative tracked
ratios (speedups and overhead fractions — stable across runner hardware,
unlike raw seconds) against the committed baselines in
``benchmarks/baselines/``.  A tracked ratio that regresses by more than
``--threshold`` (default 20%) fails the job.

Usage::

    python scripts/bench_check.py [--current-dir .] [--baseline-dir benchmarks/baselines]
                                  [--threshold 0.20] [--summary out.md] [--update]

``--summary`` writes the trajectory table as GitHub-flavoured markdown
(CI points it at ``$GITHUB_STEP_SUMMARY``); ``--update`` refreshes the
baselines from the current reports instead of checking (run it locally
after an intentional performance change and commit the result).

A missing baseline warns and passes — new benchmark suites land green and
gate from their next baseline commit onward.  A missing *current* report
fails: the harness that should have produced it did not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

# suite -> (file name, dotted path to the tracked ratio, direction, slack).
# "higher" ratios regress by falling, "lower" ratios by rising.  ``slack``
# is an absolute change additionally required to fail — it keeps
# noise-dominated near-zero ratios (the obs overhead fraction is ~3e-4)
# from flapping the gate on relative change alone.
TRACKED: dict[str, tuple[str, str, str, float]] = {
    "kernels": ("BENCH_kernels.json", "aggregate.speedup", "higher", 0.0),
    "store": ("BENCH_store.json", "speedup", "higher", 0.0),
    "obs": ("BENCH_obs.json", "overhead_fraction", "lower", 0.005),
    # The enabled-path histogram ingest the serve hot loop pays once per
    # request; the ns slack absorbs scheduler noise on shared runners.
    "obs-observe": ("BENCH_obs.json", "observe_ns_per_call", "lower", 1500.0),
    "delta": ("BENCH_delta.json", "aggregate.speedup", "higher", 0.0),
    # warm_speedup saturates at the harness's SPEEDUP_CAP on any healthy
    # run, so this gate fires only when serve's caching actually breaks.
    "serve": ("BENCH_serve.json", "aggregate.warm_speedup", "higher", 0.0),
    # Server-side /metrics p99 from the end-of-run /telemetry snapshot;
    # the generous ms slack means this fires on collapse, not jitter.
    "serve-telemetry": (
        "BENCH_serve.json", "aggregate.telemetry_metrics_p99_ms", "lower", 100.0
    ),
}


def _lookup(report: dict, dotted: str) -> float:
    node = report
    for part in dotted.split("."):
        node = node[part]
    return float(node)


def _load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with open(path) as handle:
        return json.load(handle)


def check(
    current_dir: Path, baseline_dir: Path, threshold: float
) -> tuple[list[dict], int]:
    """Compare every tracked ratio; returns (rows, exit_code)."""
    rows: list[dict] = []
    failures = 0
    for suite, (file_name, dotted, direction, slack) in TRACKED.items():
        current = _load(current_dir / file_name)
        baseline = _load(baseline_dir / file_name)
        row = {
            "suite": suite,
            "metric": dotted,
            "direction": direction,
            "baseline": None,
            "current": None,
            "change": None,
            "status": "",
        }
        if current is None:
            row["status"] = "MISSING CURRENT"
            failures += 1
            rows.append(row)
            continue
        row["current"] = _lookup(current, dotted)
        if baseline is None:
            row["status"] = "no baseline (pass)"
            rows.append(row)
            continue
        row["baseline"] = _lookup(baseline, dotted)
        base, cur = row["baseline"], row["current"]
        if base == 0:
            row["status"] = "zero baseline (pass)"
            rows.append(row)
            continue
        change = (cur - base) / base
        row["change"] = change
        worse = base - cur if direction == "higher" else cur - base
        regressed = worse > threshold * abs(base) and worse >= slack
        if regressed:
            row["status"] = f"REGRESSED > {threshold:.0%}"
            failures += 1
        else:
            row["status"] = "ok"
        rows.append(row)
    return rows, 1 if failures else 0


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_markdown(rows: list[dict], threshold: float) -> str:
    lines = [
        f"### Benchmark trajectory (gate: {threshold:.0%} regression)",
        "",
        "| suite | metric | dir | baseline | current | change | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        lines.append(
            f"| {row['suite']} | `{row['metric']}` | {row['direction']} "
            f"| {_fmt(row['baseline'])} | {_fmt(row['current'])} | {change} "
            f"| {row['status']} |"
        )
    lines.append("")
    return "\n".join(lines)


def update_baselines(current_dir: Path, baseline_dir: Path) -> int:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    missing = 0
    for suite, (file_name, _, _, _) in TRACKED.items():
        src = current_dir / file_name
        if not src.is_file():
            print(f"[bench-check] {suite}: {src} missing, baseline not updated")
            missing += 1
            continue
        shutil.copyfile(src, baseline_dir / file_name)
        print(f"[bench-check] {suite}: baseline <- {src}")
    return 1 if missing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark regression gate")
    parser.add_argument("--current-dir", default=".", help="directory with fresh BENCH_*.json")
    parser.add_argument(
        "--baseline-dir", default="benchmarks/baselines", help="committed baseline directory"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20, help="fractional regression that fails (0.20)"
    )
    parser.add_argument("--summary", default=None, help="append the markdown table to this file")
    parser.add_argument(
        "--update", action="store_true", help="refresh baselines from current reports and exit"
    )
    args = parser.parse_args(argv)
    current_dir, baseline_dir = Path(args.current_dir), Path(args.baseline_dir)

    if args.update:
        return update_baselines(current_dir, baseline_dir)

    rows, code = check(current_dir, baseline_dir, args.threshold)
    table = render_markdown(rows, args.threshold)
    print(table)
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(table + "\n")
    if code:
        print("[bench-check] FAIL: tracked benchmark ratio regressed", file=sys.stderr)
    else:
        print("[bench-check] all tracked ratios within threshold")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
