"""Adapters between event streams, TSV traces, and columnar stores.

``convert_tsv_to_store`` streams: it parses the TSV one event at a time
(:func:`repro.graph.stream_io.iter_events`), batches events into columns,
and appends them to a :class:`~repro.store.writer.StoreWriter` — peak
memory is one chunk per event kind, independent of trace size.
``store_to_tsv`` streams the other way, chunk by chunk, and emits bytes
identical to :func:`~repro.graph.stream_io.write_event_stream` of the
decoded stream.
"""

from __future__ import annotations

import os
from itertools import islice
from pathlib import Path

import numpy as np

from repro.graph.events import EventStream, NodeColumns
from repro.graph.stream_io import _HEADER, _collect, _write_rows, iter_events
from repro.store.format import DEFAULT_CHUNK_EVENTS, Manifest
from repro.store.reader import EventStore
from repro.store.writer import StoreWriter
from repro.util.arrays import IntArray

__all__ = [
    "convert_tsv_to_store",
    "load_event_source",
    "materialize",
    "store_to_tsv",
    "write_store",
]


def _writer_codes(writer: StoreWriter, nodes: NodeColumns) -> IntArray:
    """``nodes``' origin codes translated into ``writer``'s string table.

    Only the labels in use are interned, in first-appearance order, so the
    store's table does not depend on the stream's unused labels.
    """
    used, first = np.unique(nodes.origin, return_index=True)
    used = used[np.argsort(first)]
    # int64, not uint16: append_arrays owns the bounds-checked cast to the
    # column dtype, so a stale entry here raises instead of wrapping.
    table = np.full(len(nodes.labels), -1, dtype=np.int64)
    table[used] = writer.intern_origins([nodes.labels[c] for c in used.tolist()])
    return table[nodes.origin]


def _append(writer: StoreWriter, stream: EventStream) -> None:
    nodes, edges = stream.nodes, stream.edges
    writer.append_arrays(
        node_times=nodes.time,
        node_ids=nodes.node,
        node_origins=_writer_codes(writer, nodes),
        edge_times=edges.time,
        edge_us=edges.u,
        edge_vs=edges.v,
    )


def write_store(
    stream: EventStream,
    path: str | os.PathLike[str],
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Manifest:
    """Encode an in-memory :class:`EventStream` as a store at ``path``."""
    with StoreWriter(path, chunk_events=chunk_events) as writer:
        _append(writer, stream)
        return writer.close()


def convert_tsv_to_store(
    tsv_path: str | os.PathLike[str],
    store_path: str | os.PathLike[str],
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    batch_events: int = 8192,
) -> Manifest:
    """Convert a TSV trace to a store without materializing the stream.

    Node and edge sections must each be time-sorted (the invariant every
    valid trace already satisfies); out-of-order input fails the writer's
    monotonicity check rather than producing an unscannable store.
    """
    records = iter_events(tsv_path)
    with StoreWriter(store_path, chunk_events=chunk_events) as writer:
        while True:
            batch = _collect(islice(records, batch_events))
            if not batch.num_nodes + batch.num_edges:
                return writer.close()
            _append(writer, batch)


def store_to_tsv(store: EventStore, tsv_path: str | os.PathLike[str]) -> None:
    """Write a store back out as a TSV trace, chunk by chunk."""
    manifest = store.manifest
    with open(Path(tsv_path), "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        lo = 0
        for chunk in manifest.node_chunks:
            _write_rows(fh, store.slice_events(lo, lo + chunk.count, 0, 0))
            lo += chunk.count
        lo = 0
        for chunk in manifest.edge_chunks:
            _write_rows(fh, store.slice_events(0, 0, lo, lo + chunk.count))
            lo += chunk.count


def load_event_source(path: str | os.PathLike[str]) -> EventStream | EventStore:
    """Open ``path`` as whichever event container it is.

    A directory with a manifest opens as an :class:`EventStore` (no decode,
    no validation pass); anything else is parsed as a TSV trace (validated,
    like every existing call site expects).
    """
    if EventStore.is_store(path):
        return EventStore(path)
    from repro.graph.stream_io import read_event_stream

    return read_event_stream(path)


def materialize(source: EventStream | EventStore) -> EventStream:
    """``source`` as an :class:`EventStream`, decoding a store if needed."""
    if isinstance(source, EventStore):
        return source.to_stream()
    return source
