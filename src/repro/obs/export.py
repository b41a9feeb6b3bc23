"""Trace exporters: JSONL span logs and Chrome trace-event JSON.

Two on-disk forms of the same payload:

* **JSONL** (the native interchange format) — a ``meta`` line, then one
  line per lane/span/counter/gauge/histogram record.  Streams well, diffs well,
  and :func:`read_jsonl` round-trips it losslessly back into a payload
  dict, which is what ``repro obs summarize|export`` consume.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` object
  format understood by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Spans become complete (``"ph": "X"``) events
  with microsecond timestamps; lanes become threads of one synthetic
  process, named via metadata events so worker windows render as stable,
  labelled tracks; counters become ``"ph": "C"`` counter events.

:func:`write_trace` picks the format from the file name: ``.json`` means
Chrome, anything else means JSONL.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "chrome_export_error",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]


def write_jsonl(payload: dict[str, Any], path: str | os.PathLike[str]) -> None:
    """Write ``payload`` (see ``TraceRecorder.to_payload``) as JSONL."""
    lines = [json.dumps({"kind": "meta", "version": payload["version"]})]
    for lane in payload["lanes"]:
        lane_id = lane["lane"]
        lines.append(
            json.dumps(
                {
                    "kind": "lane",
                    "lane": lane_id,
                    "label": lane["label"],
                    "pid": lane["pid"],
                }
            )
        )
        for span in lane["spans"]:
            lines.append(json.dumps({"kind": "span", "lane": lane_id, **span}))
        for name in sorted(lane["counters"]):
            lines.append(
                json.dumps(
                    {"kind": "counter", "lane": lane_id, "name": name,
                     "value": lane["counters"][name]}
                )
            )
        for name in sorted(lane["gauges"]):
            lines.append(
                json.dumps(
                    {"kind": "gauge", "lane": lane_id, "name": name,
                     "value": lane["gauges"][name]}
                )
            )
        for name in sorted(lane.get("histograms", {})):
            lines.append(
                json.dumps(
                    {"kind": "histogram", "lane": lane_id, "name": name,
                     "data": lane["histograms"][name]}
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def chrome_export_error(path: str | os.PathLike[str]) -> ValueError:
    """The error for a Chrome trace-event export given where JSONL is read."""
    return ValueError(
        f"{path}: is a Chrome trace-event export (already Perfetto-loadable); "
        "summarize/export read the JSONL span log (--trace with a non-.json suffix)"
    )


def read_jsonl(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read a JSONL span log back into a payload dict.

    Raises :class:`ValueError` for files that are not a JSONL span log
    (the CLI turns this into a friendly error).
    """
    version = None
    lanes: dict[int, dict[str, Any]] = {}
    text = Path(path).read_text(encoding="utf-8")
    if '"traceEvents"' in text[:200]:
        raise chrome_export_error(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            kind = record["kind"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: not a repro JSONL trace record") from exc
        if kind == "meta":
            version = record.get("version")
        elif kind == "lane":
            lanes[int(record["lane"])] = {
                "lane": int(record["lane"]),
                "label": str(record["label"]),
                "pid": int(record["pid"]),
                "spans": [],
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
        elif kind in ("span", "counter", "gauge", "histogram"):
            lane = lanes.get(int(record["lane"]))
            if lane is None:
                raise ValueError(
                    f"{path}:{lineno}: {kind} record for undeclared lane "
                    f"{record['lane']}"
                )
            if kind == "span":
                lane["spans"].append(
                    {
                        "name": record["name"],
                        "start": record["start"],
                        "duration": record["duration"],
                        "depth": record["depth"],
                        "parent": record["parent"],
                        "attrs": record.get("attrs", {}),
                    }
                )
            elif kind == "histogram":
                lane["histograms"][str(record["name"])] = record["data"]
            else:
                lane[kind + "s"][str(record["name"])] = record["value"]
        else:
            raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")
    if version is None:
        raise ValueError(f"{path}: no meta record; not a repro JSONL trace")
    return {
        "version": version,
        "lanes": [lanes[key] for key in sorted(lanes)],
    }


def to_chrome(payload: dict[str, Any]) -> dict[str, Any]:
    """Convert a trace payload to the Chrome trace-event object format."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for lane in payload["lanes"]:
        lane_id = int(lane["lane"])
        tid = lane_id + 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{lane['label']} (os pid {lane['pid']})"},
            }
        )
        for span in lane["spans"]:
            events.append(
                {
                    "name": str(span["name"]),
                    "cat": str(span["name"]).split(".", 1)[0],
                    "ph": "X",
                    "ts": float(span["start"]) * 1e6,
                    "dur": float(span["duration"]) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": dict(span.get("attrs", {})),
                }
            )
        for name in sorted(lane["counters"]):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": 0.0,
                    "pid": 1,
                    "tid": tid,
                    "args": {name: lane["counters"][name]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(payload: dict[str, Any], path: str | os.PathLike[str]) -> None:
    """Write ``payload`` as Chrome trace-event JSON (Perfetto-loadable)."""
    Path(path).write_text(json.dumps(to_chrome(payload), indent=1), encoding="utf-8")


def write_trace(payload: dict[str, Any], path: str | os.PathLike[str]) -> str:
    """Write ``payload`` to ``path``, format chosen by suffix.

    ``.json`` writes Chrome trace-event JSON directly; any other suffix
    (conventionally ``.jsonl``) writes the JSONL span log.  Returns the
    format written (``"chrome"`` or ``"jsonl"``).
    """
    text = str(path)
    if text.endswith(".json"):
        write_chrome(payload, path)
        return "chrome"
    write_jsonl(payload, path)
    return "jsonl"
