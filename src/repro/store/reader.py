"""Zero-copy reader for the columnar event store.

:class:`EventStore` opens a store directory by parsing its manifest and
validating every chunk file's existence and exact size up front — a
structurally damaged store raises :class:`StoreError` at open, never a
short or garbage array later.  Chunk columns are memory-mapped lazily and
cached, so opening is O(chunks) stat calls and reads touch only the pages
a scan actually needs.

Time-range scans use the manifest's per-chunk ``[t_min, t_max]`` index to
pick the overlapping chunks, then ``np.searchsorted`` inside the boundary
chunks; a window scan therefore reads O(answer) bytes, not O(store).

Long-lived processes (``repro serve`` workers, pool initializers) reopen
the same store many times; two features keep reopen cheap without giving
up integrity:

* parsed manifests are cached process-wide, keyed by the manifest file's
  identity (path + size + mtime), so a reopen skips the JSON parse and
  its structural validation — rewriting the manifest invalidates the
  entry automatically;
* checksum verification is governed by ``verify=``: ``"lazy"`` (the
  default) re-hashes each chunk file the first time it is mapped, so a
  bit-flipped chunk raises :class:`StoreError` on first *read* rather
  than passing silently, while chunks a scan never touches cost nothing;
  ``"eager"`` verifies every chunk checksum at open.
"""

from __future__ import annotations

import bisect
import hashlib
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.graph.events import EdgeColumns, EventStream, NodeColumns
from repro.obs import get_recorder
from repro.store.format import (
    EDGE_COLUMNS,
    MANIFEST_NAME,
    NODE_COLUMNS,
    ChunkMeta,
    Manifest,
    StoreError,
    chunk_nbytes,
    content_digest_of_chunks,
    map_chunk,
)
from repro.util.arrays import AnyArray, FloatArray, IntArray, UInt16Array

__all__ = ["EventStore"]


#: Process-wide cache of parsed manifests, keyed by the manifest file's
#: identity (resolved path, size, mtime_ns).  A rewritten manifest gets a
#: new stat signature and therefore a fresh parse; entries are immutable
#: (frozen dataclasses), so sharing one across EventStore instances is
#: safe.  Bounded: the whole cache is dropped past _MANIFEST_CACHE_LIMIT
#: entries — simple, and reopening is what the cache optimizes anyway.
_MANIFEST_CACHE: dict[tuple[str, int, int], Manifest] = {}
_MANIFEST_CACHE_LIMIT = 64


def _load_manifest(manifest_path: Path) -> Manifest:
    try:
        stat = manifest_path.stat()
    except OSError as exc:
        raise StoreError(f"cannot read {manifest_path}: {exc}") from exc
    key = (str(manifest_path.resolve()), stat.st_size, stat.st_mtime_ns)
    cached = _MANIFEST_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreError(f"cannot read {manifest_path}: {exc}") from exc
    manifest = Manifest.from_json(text, source=str(manifest_path))
    if len(_MANIFEST_CACHE) >= _MANIFEST_CACHE_LIMIT:
        _MANIFEST_CACHE.clear()
    _MANIFEST_CACHE[key] = manifest
    return manifest


class _ChunkIndex:
    """Chunk lookup structures for one event kind."""

    def __init__(
        self,
        root: Path,
        chunks: tuple[ChunkMeta, ...],
        columns: Sequence[tuple[str, str]],
        verify_on_map: bool = False,
    ) -> None:
        self.root = root
        self.chunks = chunks
        self.columns = columns
        self.verify_on_map = verify_on_map
        self.offsets = [0]
        for chunk in chunks:
            self.offsets.append(self.offsets[-1] + chunk.count)
        self.t_min = [chunk.t_min for chunk in chunks]
        self.t_max = [chunk.t_max for chunk in chunks]
        self._maps: dict[int, dict[str, AnyArray]] = {}
        self._verified: set[int] = set()

    @property
    def total(self) -> int:
        return self.offsets[-1]

    def validate_files(self) -> None:
        """Existence + exact-size check for every chunk (stat only)."""
        for chunk in self.chunks:
            path = self.root / chunk.file
            expected = chunk_nbytes(self.columns, chunk.count)
            try:
                size = path.stat().st_size
            except FileNotFoundError as exc:
                raise StoreError(f"missing chunk file {chunk.file}", chunk=chunk.file) from exc
            if size != expected:
                raise StoreError(
                    f"chunk {chunk.file} holds {size} bytes, expected {expected} "
                    f"for {chunk.count} events — truncated or corrupt",
                    chunk=chunk.file,
                )

    def map(self, index: int) -> dict[str, AnyArray]:
        cols = self._maps.get(index)
        if cols is None:
            if self.verify_on_map and index not in self._verified:
                self.checksum_chunk(index)
            cols = map_chunk(self.root, self.chunks[index], self.columns)
            self._maps[index] = cols
            rec = get_recorder()
            if rec.enabled:
                rec.count("store.chunks_mapped", 1)
                rec.count(
                    "store.bytes_mapped",
                    chunk_nbytes(self.columns, self.chunks[index].count),
                )
        return cols

    def checksum_chunk(self, index: int) -> None:
        """Re-hash chunk ``index``; :class:`StoreError` on a mismatch."""
        chunk = self.chunks[index]
        digest = _sha256_file(self.root / chunk.file)
        if digest != chunk.sha256:
            raise StoreError(
                f"checksum mismatch in chunk {chunk.file}: manifest says "
                f"{chunk.sha256[:12]}…, file hashes to {digest[:12]}…",
                chunk=chunk.file,
            )
        self._verified.add(index)

    def column(self, name: str) -> AnyArray:
        """One column concatenated across all chunks (copies)."""
        dtype = dict(self.columns)[name]
        if not self.chunks:
            return np.empty(0, dtype=dtype)
        return np.concatenate([self.map(i)[name] for i in range(len(self.chunks))])

    def count_until(self, time: float) -> int:
        """Number of events with ``event.time <= time``."""
        full = bisect.bisect_right(self.t_max, time)
        count = self.offsets[full]
        if full < len(self.chunks) and self.chunks[full].t_min <= time:
            count += int(np.searchsorted(self.map(full)["time"], time, side="right"))
        return count

    def window(self, start: float, end: float) -> dict[str, AnyArray]:
        """All columns for events with ``start <= time <= end``."""
        first = bisect.bisect_left(self.t_max, start)
        last = bisect.bisect_right(self.t_min, end)
        parts: list[dict[str, AnyArray]] = []
        for index in range(first, last):
            cols = self.map(index)
            times = cols["time"]
            lo = int(np.searchsorted(times, start, side="left"))
            hi = int(np.searchsorted(times, end, side="right"))
            if lo < hi:
                parts.append({name: arr[lo:hi] for name, arr in cols.items()})
        if not parts:
            return {name: np.empty(0, dtype=dtype) for name, dtype in self.columns}
        if len(parts) == 1:
            return parts[0]
        return {
            name: np.concatenate([part[name] for part in parts]) for name, _ in self.columns
        }

    def rows(self, lo: int, hi: int) -> dict[str, AnyArray]:
        """All columns for events with global index in ``[lo, hi)``.

        The arrays are fresh copies, never views of the mapped chunk files,
        so they outlive the store directory.
        """
        lo = max(0, lo)
        hi = min(self.total, hi)
        parts: list[dict[str, AnyArray]] = []
        index = bisect.bisect_right(self.offsets, lo) - 1
        while index < len(self.chunks) and self.offsets[index] < hi:
            cols = self.map(index)
            base = self.offsets[index]
            a = max(lo - base, 0)
            b = min(hi - base, self.chunks[index].count)
            if a < b:
                parts.append({name: arr[a:b] for name, arr in cols.items()})
            index += 1
        if not parts:
            return {name: np.empty(0, dtype=dtype) for name, dtype in self.columns}
        return {
            name: np.concatenate([part[name] for part in parts]) for name, _ in self.columns
        }

    def verify_chunks(self) -> None:
        """Recompute checksums and re-derive per-chunk time metadata."""
        for index, chunk in enumerate(self.chunks):
            self.checksum_chunk(index)
            if chunk.count:
                times = self.map(index)["time"]
                if np.any(np.diff(times) < 0):
                    raise StoreError(
                        f"chunk {chunk.file} times are not sorted", chunk=chunk.file
                    )
                if float(times[0]) != chunk.t_min or float(times[-1]) != chunk.t_max:
                    raise StoreError(
                        f"chunk {chunk.file} spans "
                        f"[{float(times[0])!r}, {float(times[-1])!r}] but the manifest "
                        f"says [{chunk.t_min!r}, {chunk.t_max!r}] — stale manifest",
                        chunk=chunk.file,
                    )


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


#: Recognized values of :class:`EventStore`'s ``verify`` parameter.
VERIFY_MODES = ("lazy", "eager")


class EventStore:
    """A read-only, memory-mapped view of a columnar event store.

    ``verify`` controls checksum verification: ``"lazy"`` (default)
    re-hashes each chunk the first time a scan maps it, so corruption is
    caught on first read at O(touched chunks) cost; ``"eager"`` hashes
    every chunk up front, so a successfully opened store is known-good.
    Structural validation (manifest shape, chunk existence and exact
    sizes) always happens at open, under either mode.
    """

    def __init__(self, path: str | os.PathLike[str], verify: str = "lazy") -> None:
        if verify not in VERIFY_MODES:
            raise ValueError(f"verify must be one of {VERIFY_MODES}, got {verify!r}")
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{self.path} is not an event store (no {MANIFEST_NAME})")
        self.manifest = _load_manifest(manifest_path)
        lazy = verify == "lazy"
        self._nodes = _ChunkIndex(
            self.path, self.manifest.node_chunks, NODE_COLUMNS, verify_on_map=lazy
        )
        self._edges = _ChunkIndex(
            self.path, self.manifest.edge_chunks, EDGE_COLUMNS, verify_on_map=lazy
        )
        self._nodes.validate_files()
        self._edges.validate_files()
        if verify == "eager":
            for index_obj in (self._nodes, self._edges):
                for i in range(len(index_obj.chunks)):
                    index_obj.checksum_chunk(i)

    @staticmethod
    def is_store(path: str | os.PathLike[str]) -> bool:
        """Whether ``path`` looks like a store directory (has a manifest)."""
        return (Path(path) / MANIFEST_NAME).is_file()

    # -- metadata ------------------------------------------------------

    @property
    def origins(self) -> tuple[str, ...]:
        """The interned origin-label table."""
        return self.manifest.origins

    @property
    def content_digest(self) -> str:
        """The manifest's whole-store content digest (see format docs)."""
        return self.manifest.content_digest

    @property
    def num_node_events(self) -> int:
        return self._nodes.total

    @property
    def num_edge_events(self) -> int:
        return self._edges.total

    @property
    def end_time(self) -> float:
        """Time of the last event, or 0.0 for an empty store."""
        last = [idx.t_max[-1] for idx in (self._nodes, self._edges) if idx.chunks]
        return max(last, default=0.0)

    # -- columnar access -----------------------------------------------

    def node_arrays(self) -> tuple[FloatArray, IntArray, UInt16Array]:
        """All node events as ``(time, node, origin_code)`` arrays."""
        return (
            self._nodes.column("time"),
            self._nodes.column("node"),
            self._nodes.column("origin"),
        )

    def edge_arrays(self) -> tuple[FloatArray, IntArray, IntArray]:
        """All edge events as ``(time, u, v)`` arrays."""
        return (
            self._edges.column("time"),
            self._edges.column("u"),
            self._edges.column("v"),
        )

    def nodes_in(self, start: float, end: float) -> tuple[FloatArray, IntArray, UInt16Array]:
        """Node events with ``start <= time <= end`` as columns."""
        cols = self._nodes.window(start, end)
        return cols["time"], cols["node"], cols["origin"]

    def edges_in(self, start: float, end: float) -> tuple[FloatArray, IntArray, IntArray]:
        """Edge events with ``start <= time <= end`` as columns."""
        cols = self._edges.window(start, end)
        return cols["time"], cols["u"], cols["v"]

    def index_at(self, time: float) -> tuple[int, int]:
        """Event-cursor position ``(node_index, edge_index)`` at ``time``.

        Both are counts of events with ``event.time <= time`` — exactly the
        cursor a :class:`~repro.graph.dynamic.DynamicGraph` holds after
        ``advance_to(time)``.
        """
        return self._nodes.count_until(time), self._edges.count_until(time)

    # -- EventStream interop -------------------------------------------

    def slice_events(self, node_lo: int, node_hi: int, edge_lo: int, edge_hi: int) -> EventStream:
        """Copy events by global index range into an :class:`EventStream`.

        This is what parallel replay workers use: each worker pulls only
        the chunk rows of its own stream prefix instead of receiving a
        pickled copy of the whole stream.
        """
        rec = get_recorder()
        with rec.span(
            "store.slice", node_events=node_hi - node_lo, edge_events=edge_hi - edge_lo
        ):
            node_cols = self._nodes.rows(node_lo, node_hi)
            edge_cols = self._edges.rows(edge_lo, edge_hi)
            stream = self._build_stream(node_cols, edge_cols)
            if rec.enabled:
                rec.count("store.events_decoded", len(stream.nodes) + len(stream.edges))
            return stream

    def to_stream(self, validate: bool = False) -> EventStream:
        """Decode the whole store into an :class:`EventStream`.

        The stream's content digest is pre-seeded from the manifest, so
        cache lookups on it cost nothing.
        """
        rec = get_recorder()
        with rec.span(
            "store.decode", node_events=self._nodes.total, edge_events=self._edges.total
        ):
            # A full decode is content-equivalent to the store, so it
            # inherits the manifest digest; partial slices hash themselves.
            stream = self._build_stream(
                self._nodes.rows(0, self._nodes.total),
                self._edges.rows(0, self._edges.total),
                digest=self.manifest.content_digest,
            )
            if rec.enabled:
                rec.count("store.events_decoded", len(stream.nodes) + len(stream.edges))
            if validate:
                stream.validate()
            return stream

    def _build_stream(
        self,
        node_cols: dict[str, AnyArray],
        edge_cols: dict[str, AnyArray],
        digest: str | None = None,
    ) -> EventStream:
        labels = self.manifest.origins
        codes = node_cols["origin"]
        if codes.size and int(codes.max()) >= len(labels):
            raise StoreError(
                f"node chunk references origin code outside the {len(labels)}-entry "
                "string table — corrupt store (run verify)"
            )
        return EventStream(
            nodes=NodeColumns(node_cols["time"], node_cols["node"], codes, labels),
            edges=EdgeColumns(edge_cols["time"], edge_cols["u"], edge_cols["v"]),
            _digest=digest,
        )

    # -- integrity -----------------------------------------------------

    def verify(self) -> None:
        """Recompute every checksum; raise :class:`StoreError` on any mismatch.

        Checks, in order: per-chunk SHA-256 against the manifest, per-chunk
        time ordering and ``[t_min, t_max]`` metadata, origin codes within
        the string table, and finally the whole-store content digest.
        """
        self._nodes.verify_chunks()
        self._edges.verify_chunks()
        table_size = len(self.manifest.origins)
        for index, chunk in enumerate(self.manifest.node_chunks):
            codes = self._nodes.map(index)["origin"]
            if codes.size and int(codes.max()) >= table_size:
                raise StoreError(
                    f"chunk {chunk.file} references origin code {int(codes.max())} "
                    f"outside the {table_size}-entry string table",
                    chunk=chunk.file,
                )
        digest = content_digest_of_chunks(
            self.manifest.origins,
            (self._nodes.map(i) for i in range(len(self._nodes.chunks))),
            (self._edges.map(i) for i in range(len(self._edges.chunks))),
        )
        if digest != self.manifest.content_digest:
            raise StoreError(
                f"store content digest {digest[:12]}… does not match the manifest's "
                f"{self.manifest.content_digest[:12]}… — stale or tampered manifest"
            )
