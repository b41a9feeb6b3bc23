"""Human-readable rendering: trace summaries and snapshot diffs.

:func:`render_trace` is what ``repro obs summarize`` and ``--profile``
print — per-span timing rollups with self time, counters, histograms,
and one row per lane.  :func:`load_snapshot` / :func:`flatten_numeric` /
:func:`diff_rows` / :func:`regressed` / :func:`render_diff` power
``repro obs diff``: two telemetry snapshots, traces or BENCH reports
flattened to dotted numeric rows and compared with percent deltas.

A BENCH report names the rows it is gated on in a top-level ``gate``
block, ``{"dotted.key": {"better": "higher"|"lower", "slack": x}}``.
When the baseline carries one, only those rows are compared, each in its
own direction; otherwise every row is compared and growth is worse.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs.export import chrome_export_error, read_jsonl
from repro.obs.merge import aggregate, lane_summary

__all__ = [
    "diff_rows",
    "flatten_numeric",
    "load_snapshot",
    "regressed",
    "render_diff",
    "render_trace",
]


def _format_count(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:.3f}"


def render_trace(payload: dict[str, Any]) -> str:
    """The trace payload as a span/counter/lane summary table."""
    rollup = aggregate(payload)
    lines: list[str] = []
    lines.append(f"{'span':<32}{'count':>8}{'total s':>12}{'self s':>12}{'mean ms':>12}")
    for name, row in sorted(
        rollup["spans"].items(), key=lambda item: (-item[1]["total_s"], item[0])
    ):
        lines.append(
            f"{name:<32}{int(row['count']):>8d}{row['total_s']:>12.3f}"
            f"{row['self_s']:>12.3f}{row['mean_ms']:>12.2f}"
        )
    if rollup["counters"]:
        lines.append("")
        lines.append(f"{'counter':<44}{'value':>12}")
        for name, value in rollup["counters"].items():
            lines.append(f"{name:<44}{_format_count(value):>12}")
    if rollup.get("histograms"):
        lines.append("")
        lines.append(
            f"{'histogram':<32}{'count':>8}{'mean ms':>10}{'p50 ms':>10}"
            f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}"
        )
        for name, row in rollup["histograms"].items():
            maximum = row["max"] if row["max"] is not None else 0.0
            lines.append(
                f"{name:<32}{int(row['count']):>8d}{1000.0 * row['mean']:>10.2f}"
                f"{1000.0 * row['p50']:>10.2f}{1000.0 * row['p95']:>10.2f}"
                f"{1000.0 * row['p99']:>10.2f}{1000.0 * maximum:>10.2f}"
            )
    lines.append("")
    lines.append(f"{'lane':>6}  {'label':<14}{'pid':>8}{'spans':>8}{'busy s':>10}{'peak MB':>10}")
    for row in lane_summary(payload):
        peak_mb = row["peak_rss_bytes"] / (1024.0 * 1024.0)
        lines.append(
            f"{row['lane']:>6d}  {row['label']:<14}{row['pid']:>8d}{row['spans']:>8d}"
            f"{row['busy_s']:>10.3f}{peak_mb:>10.1f}"
        )
    return "\n".join(lines)


def flatten_numeric(tree: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to ``{"a.b.c": value}`` for numeric leaves.

    The comparison basis for ``repro obs diff``: a ``/telemetry`` JSON
    snapshot, a BENCH report and a trace payload's :func:`aggregate`
    rollup all reduce to dotted rows this way.  Lists and non-numeric
    leaves are skipped (booleans included — they are flags, not
    measurements).
    """
    rows: dict[str, float] = {}
    if isinstance(tree, dict):
        for key in sorted(tree, key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.update(flatten_numeric(tree[key], path))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        rows[prefix] = float(tree)
    return rows


def load_snapshot(
    path: str | os.PathLike[str],
) -> tuple[dict[str, float], dict[str, dict[str, Any]]]:
    """A snapshot file as ``(flattened numeric rows, gate block)``.

    Accepts one JSON object (a ``/telemetry`` document or a BENCH
    report) or a ``--trace`` JSONL file, reduced to its :func:`aggregate`
    rollup.  The gate block is ``{}`` unless the document carries one.  A
    Chrome trace-event export raises :class:`ValueError`: its spans live
    in lists and would compare as nothing.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        return flatten_numeric(aggregate(read_jsonl(path))), {}
    if "traceEvents" in doc:
        raise chrome_export_error(path)
    gate = doc.pop("gate", {})
    if not isinstance(gate, dict):
        raise ValueError(f"{path}: gate must map dotted keys to rules")
    for key, rule in gate.items():
        if not (
            isinstance(rule, dict)
            and rule.get("better") in ("higher", "lower")
            and isinstance(rule.get("slack"), (int, float))
        ):
            raise ValueError(f"{path}: gate row {key!r} needs better: higher|lower and a slack")
    return flatten_numeric(doc), gate


#: The rule for rows of a document without a gate block.
_GROWTH_IS_WORSE = {"better": "lower", "slack": 0.0}


def diff_rows(
    before: dict[str, float],
    after: dict[str, float],
    gate: dict[str, dict[str, Any]] | None = None,
) -> list[dict[str, Any]]:
    """Row-wise comparison of two flattened snapshots.

    Each row is ``{"metric", "before", "after", "delta", "better",
    "slack", "gated"}`` where ``delta`` is the signed fractional change
    ``(after - before) / |before|``, or ``None`` when either side is
    missing or the baseline is zero.  With a non-empty ``gate`` (the
    baseline's gate block) only the gated metrics are compared, each with
    its own direction and slack; otherwise every metric is, and growth is
    worse.
    """
    gate = gate or {}
    metrics = sorted(gate) if gate else sorted(set(before) | set(after))
    rows: list[dict[str, Any]] = []
    for metric in metrics:
        rule = gate.get(metric, _GROWTH_IS_WORSE)
        a = before.get(metric)
        b = after.get(metric)
        delta = None
        if a is not None and b is not None and a != 0:
            delta = (b - a) / abs(a)
        rows.append(
            {
                "metric": metric,
                "before": a,
                "after": b,
                "delta": delta,
                "better": rule["better"],
                "slack": float(rule["slack"]),
                "gated": metric in gate,
            }
        )
    return rows


def regressed(row: dict[str, Any], threshold: float) -> bool:
    """Whether ``row`` got worse by more than ``threshold`` (a fraction).

    A row regresses when it moved the wrong way by more than
    ``threshold * |before|`` *and* by at least its absolute ``slack``.  A
    metric missing before, or with a zero baseline, passes; a gated
    metric missing after fails.
    """
    base, current = row["before"], row["after"]
    if current is None:
        return base is not None and row["gated"]
    if base is None or base == 0:
        return False
    worse = base - current if row["better"] == "higher" else current - base
    return worse > threshold * abs(base) and worse >= row["slack"]


def render_diff(rows: list[dict[str, Any]], threshold: float | None = None) -> str:
    """The regression table ``repro obs diff`` prints.

    With ``threshold`` set, rows that :func:`regressed` are flagged with
    a trailing ``!`` — the CLI exits nonzero when any row is flagged.
    """

    def _cell(value: float | None) -> str:
        if value is None:
            return "-"
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.6g}"

    lines = [f"{'metric':<52}{'before':>14}{'after':>14}{'delta':>10}"]
    for row in rows:
        delta = row["delta"]
        shown = "-" if delta is None else f"{100.0 * delta:+.1f}%"
        if threshold is not None and regressed(row, threshold):
            shown += " !"
        lines.append(
            f"{row['metric']:<52}{_cell(row['before']):>14}"
            f"{_cell(row['after']):>14}{shown:>10}"
        )
    return "\n".join(lines)
