"""Plain-text (TSV) serialization of event streams.

The format mirrors the shape of the paper's anonymized dataset: one event per
line, chronological order within each section.

::

    # repro-event-stream v1
    N <time> <node> <origin>
    E <time> <u> <v>

Lines starting with ``#`` are comments.  Reading validates the stream.

:func:`iter_events` parses one event record at a time in file order, which
is what ``repro.store`` uses to convert arbitrarily large traces to the
columnar format without materializing an :class:`EventStream`.

Every malformed line — unknown record tag, wrong field count, or an
unparseable number — raises the same ``ValueError`` shape naming the file,
the 1-based line number, the offending line, and the specific reason.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from repro.graph.events import EdgeColumns, EventStream, NodeColumns

__all__ = ["write_event_stream", "read_event_stream", "iter_events"]

_HEADER = "# repro-event-stream v1"

#: One parsed line: ``("N", time, node, origin)`` or ``("E", time, u, v)``.
EventRecord = tuple[str, float, int, int | str]


def write_event_stream(stream: EventStream, path: str | os.PathLike[str]) -> None:
    """Write ``stream`` to ``path`` in the TSV format described above."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        _write_rows(fh, stream)


def _write_rows(fh: TextIO, stream: EventStream) -> None:
    """Append ``stream``'s node lines, then its edge lines, to ``fh``."""
    nodes, edges = stream.nodes, stream.edges
    labels = nodes.origin_labels()
    for t, n, o in zip(nodes.time.tolist(), nodes.node.tolist(), labels, strict=True):
        fh.write(f"N\t{t!r}\t{n}\t{o}\n")
    for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True):
        fh.write(f"E\t{t!r}\t{u}\t{v}\n")


def _malformed(path: object, lineno: int, line: str, reason: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: malformed event line {line!r}: {reason}")


def _parse_line(path: object, lineno: int, line: str) -> EventRecord:
    parts = line.split("\t")
    kind = parts[0]
    if kind not in ("N", "E"):
        raise _malformed(path, lineno, line, f"unknown record type {kind!r} (expected 'N' or 'E')")
    if len(parts) != 4:
        raise _malformed(
            path, lineno, line, f"expected 4 tab-separated fields, got {len(parts)}"
        )
    try:
        if kind == "N":
            return kind, float(parts[1]), int(parts[2]), parts[3]
        return kind, float(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise _malformed(path, lineno, line, str(exc)) from exc


def iter_events(path: str | os.PathLike[str]) -> Iterator[EventRecord]:
    """Yield ``(kind, time, a, b)`` records from ``path`` in file order.

    ``kind`` is ``"N"`` (``a`` the node id, ``b`` its origin label) or
    ``"E"`` (``a``, ``b`` the endpoints).  Comments and blank lines are
    skipped.  Raises :class:`ValueError` with a uniform ``file:lineno``
    prefix on any malformed line, and the usual :class:`FileNotFoundError`
    if the file does not exist.  No cross-event validation happens here —
    collect into an :class:`EventStream` and call
    :meth:`~EventStream.validate` for that.
    """
    with open(Path(path), encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield _parse_line(path, lineno, line)


def read_event_stream(path: str | os.PathLike[str], validate: bool = True) -> EventStream:
    """Read an event stream written by :func:`write_event_stream`.

    Raises :class:`ValueError` on malformed lines (uniformly, with the file
    and line number), or on invariant violations when ``validate`` is true.
    An empty (or comment-only) file is a valid empty stream.
    """
    stream = _collect(iter_events(path))
    if validate:
        stream.validate()
    return stream


def _collect(records: Iterable[EventRecord]) -> EventStream:
    """An (unvalidated) stream of ``records``' columns."""
    node_cols: tuple[list[float], list[int], list[str]] = ([], [], [])
    edge_cols: tuple[list[float], list[int], list[int]] = ([], [], [])
    for kind, t, a, b in records:
        cols = node_cols if kind == "N" else edge_cols
        cols[0].append(t)
        cols[1].append(a)
        cols[2].append(b)  # type: ignore[arg-type]
    return EventStream(nodes=NodeColumns.build(*node_cols), edges=EdgeColumns.build(*edge_cols))
