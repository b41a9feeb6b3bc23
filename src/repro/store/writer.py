"""Append-only writer for the columnar event store.

:class:`StoreWriter` accepts node and edge events in time-ordered batches
(arrays or event dataclasses), interns origin labels, and spills exactly
``chunk_events``-sized column chunks to disk as they fill — so converting
an arbitrarily large trace holds at most one chunk of each kind in memory.
``close()`` flushes the final partial chunks, re-reads the written columns
to compute the store's content digest (identical to the decoded stream's
:meth:`~repro.graph.events.EventStream.content_digest`), and publishes the
manifest atomically — a crashed writer leaves no ``manifest.json``, and a
store without one never opens.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Sequence
from pathlib import Path
from types import TracebackType

import numpy as np

from repro.graph.events import EdgeArrival, NodeArrival
from repro.store.format import (
    DEFAULT_CHUNK_EVENTS,
    EDGE_COLUMNS,
    FORMAT_VERSION,
    MANIFEST_NAME,
    MAX_ORIGINS,
    NODE_COLUMNS,
    ChunkMeta,
    Manifest,
    StoreError,
    content_digest_of_chunks,
    map_chunk,
)
from repro.util.arrays import AnyArray, IntArray, UInt16Array
from repro.util.atomic import atomic_writer

__all__ = ["StoreWriter"]


class _ColumnBuffer:
    """Buffered batches of one event kind, spilled as fixed-size chunks."""

    def __init__(
        self, root: Path, kind: str, columns: Sequence[tuple[str, str]], chunk_events: int
    ) -> None:
        self.root = root
        self.kind = kind
        self.columns = columns
        self.chunk_events = chunk_events
        self.batches: list[tuple[AnyArray, ...]] = []
        self.buffered = 0
        self.total = 0
        self.last_time = -np.inf
        self.chunks: list[ChunkMeta] = []

    def append(self, arrays: tuple[AnyArray, ...]) -> None:
        count = len(arrays[0])
        if any(len(arr) != count for arr in arrays):
            raise ValueError(f"{self.kind} batch columns have mismatched lengths")
        if count == 0:
            return
        times = arrays[0]
        if np.any(np.diff(times) < 0):
            raise ValueError(f"{self.kind} batch is not sorted by time")
        if float(times[0]) < self.last_time:
            raise ValueError(
                f"{self.kind} batch starts at t={float(times[0])!r}, before the "
                f"previously appended t={self.last_time!r}; events must arrive in time order"
            )
        self.last_time = float(times[-1])
        self.batches.append(arrays)
        self.buffered += count
        self.total += count
        if self.buffered >= self.chunk_events:
            self.flush(final=False)

    def flush(self, final: bool) -> None:
        """Spill buffered events as full chunks (plus the remainder if ``final``)."""
        if self.buffered == 0 or (not final and self.buffered < self.chunk_events):
            return
        cols = [
            np.concatenate([batch[i] for batch in self.batches])
            for i in range(len(self.columns))
        ]
        start = 0
        while self.buffered - start >= self.chunk_events or (final and start < self.buffered):
            count = min(self.chunk_events, self.buffered - start)
            self._write_chunk([col[start : start + count] for col in cols], count)
            start += count
        self.batches = [tuple(col[start:] for col in cols)] if start < self.buffered else []
        self.buffered -= start

    def _write_chunk(self, cols: list[AnyArray], count: int) -> None:
        name = f"{self.kind}-{len(self.chunks):06d}.bin"
        blob = b"".join(
            np.ascontiguousarray(col, dtype=dtype).tobytes()
            for col, (_, dtype) in zip(cols, self.columns, strict=True)
        )
        (self.root / name).write_bytes(blob)
        times = cols[0]
        self.chunks.append(
            ChunkMeta(
                file=name,
                count=count,
                t_min=float(times[0]),
                t_max=float(times[-1]),
                sha256=hashlib.sha256(blob).hexdigest(),
            )
        )


class StoreWriter:
    """Stream events into a new store directory at ``path``.

    Usable as a context manager; on clean exit the manifest is written and
    the store becomes openable.  On an exception no manifest is published,
    so a partial store is recognizably invalid.  Refuses to overwrite an
    existing store.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        origins: Iterable[str] = (),
    ) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreError(f"refusing to overwrite existing store at {self.path}")
        self.chunk_events = chunk_events
        self._origin_codes: dict[str, int] = {}
        for label in origins:
            self._origin_code(label)
        self._nodes = _ColumnBuffer(self.path, "node", NODE_COLUMNS, chunk_events)
        self._edges = _ColumnBuffer(self.path, "edge", EDGE_COLUMNS, chunk_events)
        self._closed = False

    def _origin_code(self, label: str) -> int:
        code = self._origin_codes.get(label)
        if code is None:
            code = len(self._origin_codes)
            if code >= MAX_ORIGINS:
                raise StoreError(
                    f"origin string table is full ({MAX_ORIGINS} labels); "
                    f"cannot intern {label!r}"
                )
            self._origin_codes[label] = code
        return code

    # -- batch appends -------------------------------------------------

    def intern_origins(self, labels: Sequence[str]) -> UInt16Array:
        """Intern origin labels and return their stable ``uint16`` codes.

        Lets array producers translate their own origin encoding into this
        writer's string table once per label instead of once per event;
        the codes feed :meth:`append_arrays`.  Raises :class:`StoreError`
        when the table would exceed the ``uint16`` code space — the codes
        are interned in int64 and bounds-checked before the column cast,
        so an overflowing table can never wrap into a valid-looking code.
        """
        self._ensure_open()
        codes = np.fromiter(
            (self._origin_code(label) for label in labels),
            dtype=np.int64,
            count=len(labels),
        )
        return self._pack_codes(codes)

    def _pack_codes(self, codes: IntArray) -> UInt16Array:
        """Bounds-check int64 origin codes, then pack them to ``uint16``.

        The check precedes the cast: ``np.asarray(x, dtype="<u2")`` wraps
        out-of-range values modulo 2**16, so validating *after* a narrow
        cast would wave bad codes through as small valid ones.
        """
        if len(codes) and (
            int(codes.min()) < 0 or int(codes.max()) >= len(self._origin_codes)
        ):
            worst = int(codes.min()) if int(codes.min()) < 0 else int(codes.max())
            raise StoreError(
                f"origin code {worst} is not interned "
                f"({len(self._origin_codes)} labels known); call intern_origins first"
            )
        return codes.astype("<u2")

    def append_arrays(
        self,
        *,
        node_times: AnyArray | None = None,
        node_ids: AnyArray | None = None,
        node_origins: AnyArray | None = None,
        edge_times: AnyArray | None = None,
        edge_us: AnyArray | None = None,
        edge_vs: AnyArray | None = None,
    ) -> None:
        """Append numpy columns directly — no per-event Python loop.

        ``node_origins`` holds ``uint16`` codes from :meth:`intern_origins`
        (not labels); every other column is coerced to its store dtype.
        Either event kind may be omitted; the usual per-kind time-order
        checks apply.
        """
        self._ensure_open()
        if node_times is not None:
            if node_ids is None or node_origins is None:
                raise ValueError("node batches need node_times, node_ids and node_origins")
            # Widen before validating: the old asarray(dtype="<u2") wrapped
            # out-of-range codes modulo 2**16 *before* the range check, so
            # code 65536 sailed through as 0.  RPL021 flags that pattern.
            codes = self._pack_codes(np.asarray(node_origins, dtype=np.int64))
            self._nodes.append(
                (
                    np.asarray(node_times, dtype="<f8"),
                    np.asarray(node_ids, dtype="<i8"),
                    codes,
                )
            )
        if edge_times is not None:
            if edge_us is None or edge_vs is None:
                raise ValueError("edge batches need edge_times, edge_us and edge_vs")
            self._edges.append(
                (
                    np.asarray(edge_times, dtype="<f8"),
                    np.asarray(edge_us, dtype="<i8"),
                    np.asarray(edge_vs, dtype="<i8"),
                )
            )

    def append_nodes(
        self,
        times: Sequence[float] | AnyArray,
        nodes: Sequence[int] | AnyArray,
        origins: Sequence[str],
    ) -> None:
        """Append one time-sorted batch of node arrivals."""
        codes = self.intern_origins(origins)
        self._nodes.append(
            (np.asarray(times, dtype="<f8"), np.asarray(nodes, dtype="<i8"), codes)
        )

    def append_edges(
        self,
        times: Sequence[float] | AnyArray,
        us: Sequence[int] | AnyArray,
        vs: Sequence[int] | AnyArray,
    ) -> None:
        """Append one time-sorted batch of edge arrivals."""
        self._ensure_open()
        self._edges.append(
            (
                np.asarray(times, dtype="<f8"),
                np.asarray(us, dtype="<i8"),
                np.asarray(vs, dtype="<i8"),
            )
        )

    def append_events(self, events: Iterable[NodeArrival | EdgeArrival]) -> None:
        """Append a batch of event dataclasses (each kind time-sorted)."""
        node_batch: list[NodeArrival] = []
        edge_batch: list[EdgeArrival] = []
        for ev in events:
            if isinstance(ev, NodeArrival):
                node_batch.append(ev)
            else:
                edge_batch.append(ev)
        if node_batch:
            self.append_nodes(
                [ev.time for ev in node_batch],
                [ev.node for ev in node_batch],
                [ev.origin for ev in node_batch],
            )
        if edge_batch:
            self.append_edges(
                [ev.time for ev in edge_batch],
                [ev.u for ev in edge_batch],
                [ev.v for ev in edge_batch],
            )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> Manifest:
        """Flush remaining events, compute the digest, publish the manifest."""
        self._ensure_open()
        self._nodes.flush(final=True)
        self._edges.flush(final=True)
        origins = tuple(self._origin_codes)
        digest = content_digest_of_chunks(
            origins,
            (map_chunk(self.path, chunk, NODE_COLUMNS) for chunk in self._nodes.chunks),
            (map_chunk(self.path, chunk, EDGE_COLUMNS) for chunk in self._edges.chunks),
        )
        manifest = Manifest(
            version=FORMAT_VERSION,
            origins=origins,
            node_chunks=tuple(self._nodes.chunks),
            edge_chunks=tuple(self._edges.chunks),
            content_digest=digest,
        )
        with atomic_writer(self.path / MANIFEST_NAME) as handle:
            handle.write(manifest.to_json().encode("utf-8"))
        self._closed = True
        return manifest

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError(f"store writer for {self.path} is already closed")

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is None and not self._closed:
            self.close()
