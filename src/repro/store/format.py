"""On-disk layout of the columnar event store (format v1).

A store is a directory::

    trace.store/
        manifest.json        # counts, chunk index, checksums, content digest
        node-000000.bin      # columns: time f8 | node i8 | origin u2
        node-000001.bin
        edge-000000.bin      # columns: time f8 | u i8 | v i8
        ...

Each chunk file holds up to ``chunk_events`` events of one kind, with the
columns stored back-to-back (struct-of-arrays): all ``time`` values, then
all ids.  Fixed-width little-endian dtypes make every column a zero-copy
``np.memmap`` view at a computable offset.  Events are globally
time-sorted across a kind's chunk sequence, and the manifest records each
chunk's ``[t_min, t_max]`` so time-range scans touch only the overlapping
chunks (binary search over the chunk index, then ``searchsorted`` inside
the boundary chunks).

Node origin labels are interned into a per-store string table (the
``origins`` manifest field); the ``origin`` column stores ``u2`` indices
into it.

Integrity model: the manifest carries a SHA-256 per chunk file plus a
whole-store ``content_digest`` that is byte-for-byte identical to
:meth:`repro.graph.events.EventStream.content_digest` of the equivalent
stream — which is what lets the result cache treat a store and its TSV
twin as the same input.  Structural damage (missing/truncated/resized
chunks, unreadable or version-mismatched manifests) is caught at open
time; silent bit flips are caught by ``verify`` (checksum recomputation).
All such failures raise :class:`StoreError` naming the offending chunk —
never a garbage array.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.events import EdgeColumns, NodeColumns, content_digest
from repro.util.arrays import AnyArray

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "EDGE_COLUMNS",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "MAX_ORIGINS",
    "NODE_COLUMNS",
    "ChunkMeta",
    "Manifest",
    "StoreError",
    "chunk_nbytes",
    "content_digest_of_chunks",
    "map_chunk",
]

FORMAT_NAME = "repro-event-store"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_CHUNK_EVENTS = 131_072

#: Column layouts: (name, little-endian dtype) in file order.
NODE_COLUMNS: tuple[tuple[str, str], ...] = (("time", "<f8"), ("node", "<i8"), ("origin", "<u2"))
EDGE_COLUMNS: tuple[tuple[str, str], ...] = (("time", "<f8"), ("u", "<i8"), ("v", "<i8"))

#: The origin column is u2: a store can intern at most this many labels.
MAX_ORIGINS = 1 << 16


class StoreError(Exception):
    """A store that cannot be trusted: corrupt, truncated, or mismatched.

    ``chunk`` names the offending chunk file when the damage is localized
    to one; manifest-level problems leave it ``None``.
    """

    def __init__(self, message: str, *, chunk: str | None = None) -> None:
        super().__init__(message)
        self.chunk = chunk


@dataclass(frozen=True)
class ChunkMeta:
    """Manifest entry for one chunk file."""

    file: str
    count: int
    t_min: float
    t_max: float
    sha256: str


@dataclass(frozen=True)
class Manifest:
    """The parsed ``manifest.json`` of a store."""

    version: int
    origins: tuple[str, ...]
    node_chunks: tuple[ChunkMeta, ...]
    edge_chunks: tuple[ChunkMeta, ...]
    content_digest: str

    @property
    def num_node_events(self) -> int:
        return sum(chunk.count for chunk in self.node_chunks)

    @property
    def num_edge_events(self) -> int:
        return sum(chunk.count for chunk in self.edge_chunks)

    def to_json(self) -> str:
        payload = {
            "format": FORMAT_NAME,
            "version": self.version,
            "origins": list(self.origins),
            "content_digest": self.content_digest,
            "nodes": {
                "count": self.num_node_events,
                "chunks": [vars(chunk).copy() for chunk in self.node_chunks],
            },
            "edges": {
                "count": self.num_edge_events,
                "chunks": [vars(chunk).copy() for chunk in self.edge_chunks],
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, *, source: str = "manifest") -> "Manifest":
        """Parse and structurally validate a manifest; :class:`StoreError` on garbage."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"{source}: manifest is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            raise StoreError(f"{source}: not a {FORMAT_NAME} manifest")
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise StoreError(
                f"{source}: format version {version!r} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            origins = tuple(str(label) for label in payload["origins"])
            node_chunks = tuple(_chunk_from_json(raw, source) for raw in payload["nodes"]["chunks"])
            edge_chunks = tuple(_chunk_from_json(raw, source) for raw in payload["edges"]["chunks"])
            digest = str(payload["content_digest"])
            declared = (int(payload["nodes"]["count"]), int(payload["edges"]["count"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{source}: manifest is missing or mistypes a field: {exc}") from exc
        manifest = cls(
            version=int(version),
            origins=origins,
            node_chunks=node_chunks,
            edge_chunks=edge_chunks,
            content_digest=digest,
        )
        actual = (manifest.num_node_events, manifest.num_edge_events)
        if declared != actual:
            raise StoreError(
                f"{source}: manifest event counts {declared} disagree with "
                f"its chunk index {actual}"
            )
        return manifest


def _chunk_from_json(raw: object, source: str) -> ChunkMeta:
    if not isinstance(raw, dict):
        raise StoreError(f"{source}: chunk entry is not an object")
    try:
        return ChunkMeta(
            file=str(raw["file"]),
            count=int(raw["count"]),
            t_min=float(raw["t_min"]),
            t_max=float(raw["t_max"]),
            sha256=str(raw["sha256"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"{source}: malformed chunk entry {raw!r}: {exc}") from exc


def chunk_nbytes(columns: Sequence[tuple[str, str]], count: int) -> int:
    """Exact size in bytes of a chunk file holding ``count`` events."""
    return sum(np.dtype(dtype).itemsize for _, dtype in columns) * count


def map_chunk(
    root: Path, chunk: ChunkMeta, columns: Sequence[tuple[str, str]]
) -> dict[str, AnyArray]:
    """Memory-map one chunk file into read-only per-column views.

    The file size is checked against the manifest count first, so a
    truncated or resized chunk raises :class:`StoreError` instead of
    returning a short (or garbage) array.
    """
    path = root / chunk.file
    expected = chunk_nbytes(columns, chunk.count)
    try:
        size = path.stat().st_size
    except FileNotFoundError as exc:
        raise StoreError(f"missing chunk file {chunk.file}", chunk=chunk.file) from exc
    if size != expected:
        raise StoreError(
            f"chunk {chunk.file} holds {size} bytes, expected {expected} "
            f"for {chunk.count} events — truncated or not written by this format",
            chunk=chunk.file,
        )
    if chunk.count == 0:
        return {name: np.empty(0, dtype=dtype) for name, dtype in columns}
    raw = np.memmap(path, mode="r", dtype=np.uint8)
    out: dict[str, AnyArray] = {}
    offset = 0
    for name, dtype in columns:
        width = np.dtype(dtype).itemsize * chunk.count
        out[name] = raw[offset : offset + width].view(dtype)
        offset += width
    return out


def content_digest_of_chunks(
    origins: Sequence[str],
    node_chunks: Iterable[dict[str, AnyArray]],
    edge_chunks: Iterable[dict[str, AnyArray]],
) -> str:
    """The store's content digest, computed from mapped column chunks.

    Byte-for-byte identical to
    :meth:`repro.graph.events.EventStream.content_digest` of the decoded
    stream: both are :func:`repro.graph.events.content_digest`.
    """
    labels = tuple(origins)
    return content_digest(
        (NodeColumns(c["time"], c["node"], c["origin"], labels) for c in node_chunks),
        (EdgeColumns(c["time"], c["u"], c["v"]) for c in edge_chunks),
    )
