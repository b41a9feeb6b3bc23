"""Timestamped graph-evolution events, held as columns.

Times are floats measured in **days** since the network launch (the paper's
"Day 0" is 2005-11-21).  Node identifiers are non-negative integers.  Each
node carries an ``origin`` label so that merge analyses (§5) can distinguish
the two pre-merge populations ("xiaonei", "fivq") from post-merge arrivals
("new"); generators that model a single network leave it as ``"xiaonei"``.

An :class:`EventStream` is the same struct-of-arrays the columnar store
persists (:mod:`repro.store`): node ``time``/``node``/``origin`` columns plus
the origin label table, and edge ``time``/``u``/``v`` columns.  Consumers
read the columns directly; iterate them with ``.tolist()`` so downstream
code sees Python scalars, never numpy ones.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_recorder
from repro.util.arrays import BoolArray, FloatArray, IntArray, UInt16Array

__all__ = [
    "ORIGIN_5Q",
    "ORIGIN_NEW",
    "ORIGIN_XIAONEI",
    "EdgeColumns",
    "EventStream",
    "NodeColumns",
    "NodeEdgeColumns",
    "content_digest",
]

ORIGIN_XIAONEI = "xiaonei"
ORIGIN_5Q = "fivq"
ORIGIN_NEW = "new"

#: Origin codes are uint16, as in the store's ``origin`` column.
_MAX_LABELS = 1 << 16


@dataclass(frozen=True, eq=False)
class NodeColumns:
    """Node arrivals: ``time`` (float64), ``node`` (int64), ``origin`` codes.

    ``origin`` holds uint16 indices into ``labels``.  Two bundles compare
    equal when their times, ids and decoded origin labels agree, whatever
    their label tables' order.
    """

    time: FloatArray
    node: IntArray
    origin: UInt16Array
    labels: tuple[str, ...]

    @classmethod
    def build(
        cls,
        times: Sequence[float] | FloatArray,
        nodes: Sequence[int] | IntArray,
        origins: Sequence[str],
    ) -> NodeColumns:
        """Columns from per-event values, interning labels in first-seen order."""
        labels = tuple(dict.fromkeys(origins))
        if len(labels) > _MAX_LABELS:
            raise ValueError(f"{len(labels)} origin labels exceed the uint16 code space")
        code = {label: i for i, label in enumerate(labels)}
        return cls(
            time=np.asarray(times, dtype=np.float64),
            node=np.asarray(nodes, dtype=np.int64),
            origin=np.fromiter((code[o] for o in origins), dtype=np.uint16, count=len(origins)),
            labels=labels,
        )

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, rows: slice | IntArray | BoolArray) -> NodeColumns:
        return NodeColumns(self.time[rows], self.node[rows], self.origin[rows], self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeColumns):
            return NotImplemented
        return (
            np.array_equal(self.time, other.time)
            and np.array_equal(self.node, other.node)
            and self.origin_labels() == other.origin_labels()
        )

    def origin_is(self, label: str) -> BoolArray:
        """Which rows have origin ``label``."""
        return np.isin(self.origin, [i for i, name in enumerate(self.labels) if name == label])

    def origin_labels(self) -> list[str]:
        """The origin label of every row, in order."""
        labels = self.labels
        return [labels[c] for c in self.origin.tolist()]


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """Undirected edge arrivals: ``time`` (float64) and endpoints ``u``, ``v``.

    The dataset does not record which endpoint initiated the friendship
    (§3.2), so the pair is unordered; analyses that need a "destination"
    choose one per their own rule.
    """

    time: FloatArray
    u: IntArray
    v: IntArray

    @classmethod
    def build(
        cls,
        times: Sequence[float] | FloatArray,
        us: Sequence[int] | IntArray,
        vs: Sequence[int] | IntArray,
    ) -> EdgeColumns:
        """Columns from per-event values."""
        return cls(
            time=np.asarray(times, dtype=np.float64),
            u=np.asarray(us, dtype=np.int64),
            v=np.asarray(vs, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, rows: slice | IntArray | BoolArray) -> EdgeColumns:
        return EdgeColumns(self.time[rows], self.u[rows], self.v[rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColumns):
            return NotImplemented
        return (
            np.array_equal(self.time, other.time)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )


@dataclass(frozen=True, eq=False)
class NodeEdgeColumns:
    """Every node's edge-creation times as rows of one flat column.

    Row ``i`` belongs to node ``node[i]``, born at ``born[i]``, which is
    ``stream.nodes[slot[i]]``; its edge times are
    ``time[indptr[i]:indptr[i + 1]]``, in edge order (which is time
    order), and ``edge`` names the edge each entry came from.  Rows follow
    the order in which nodes first appear as an endpoint, ``u`` before
    ``v``, in edge order; nodes without edges have no row.  ``ends[k]``
    holds the node slots of edge ``k``'s ``u`` and ``v``.

    Float reductions over rows (pooled gaps, stacked histograms) add in
    this row order, so drivers that keep it reproduce the per-node loops
    they replaced bit for bit.
    """

    node: IntArray
    born: FloatArray
    slot: IntArray
    indptr: IntArray
    time: FloatArray
    edge: IntArray
    ends: IntArray

    @classmethod
    def build(cls, nodes: NodeColumns, edges: EdgeColumns) -> NodeEdgeColumns:
        """Group both endpoints of every edge by node; raise on unknown endpoints."""
        endpoints = np.column_stack((edges.u, edges.v)).ravel()
        distinct, which = np.unique(endpoints, return_inverse=True)
        known = np.isin(distinct, nodes.node)
        if not known.all():
            raise ValueError(f"edge endpoint {int(distinct[~known][0])} has no node arrival")
        by_id = np.argsort(nodes.node, kind="stable")
        slots = by_id[np.searchsorted(nodes.node[by_id], distinct)][which]
        # Rows in order of first appearance; sorting (row, position) keys,
        # all distinct, keeps each row's entries in edge order.
        first = np.full(len(nodes), endpoints.size)
        np.minimum.at(first, slots, np.arange(endpoints.size))
        slot = np.flatnonzero(first < endpoints.size)
        slot = slot[np.argsort(first[slot])]
        row_of_slot = np.zeros(len(nodes), dtype=np.int64)
        row_of_slot[slot] = np.arange(slot.size)
        rows = row_of_slot[slots]
        order = np.argsort(rows * endpoints.size + np.arange(endpoints.size))
        indptr = np.zeros(slot.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=slot.size), out=indptr[1:])
        edge = order >> 1
        return cls(
            node=nodes.node[slot],
            born=nodes.time[slot],
            slot=slot,
            indptr=indptr,
            time=edges.time[edge],
            edge=edge,
            ends=slots.reshape(-1, 2),
        )

    def __len__(self) -> int:
        return len(self.node)

    def degree(self) -> IntArray:
        """Number of edges in each row."""
        return np.diff(self.indptr)

    def rows(self) -> IntArray:
        """The row of every entry of ``time``."""
        return np.repeat(np.arange(len(self.node)), self.degree())

    def gaps(self) -> tuple[FloatArray, IntArray]:
        """Gaps between each row's consecutive edge times, and the later entry of each.

        Gaps come row by row in row order; entry ``j`` of the second array
        indexes ``time`` at the edge that closes gap ``j``.
        """
        later = np.ones(len(self.time), dtype=bool)
        later[self.indptr[:-1]] = False
        closing = np.flatnonzero(later)
        return self.time[closing] - self.time[closing - 1], closing


@dataclass(frozen=True)
class EventStream:
    """An immutable, time-ordered sequence of node and edge arrivals.

    Node and edge events are kept in separate, individually time-sorted
    column bundles.  Invariants (checked by :meth:`validate`):

    * both kinds are sorted by time;
    * every edge endpoint was created at or before the edge's time;
    * no duplicate nodes and no duplicate or self-loop edges.

    Streams compare equal by content.  The content digest is computed once
    and cached; the stream never changes, so the cache never goes stale.
    """

    nodes: NodeColumns = field(default_factory=lambda: NodeColumns.build((), (), ()))
    edges: EdgeColumns = field(default_factory=lambda: EdgeColumns.build((), (), ()))
    _digest: str | None = field(default=None, compare=False, repr=False)
    _node_edges: NodeEdgeColumns | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_records(
        cls,
        nodes: Iterable[tuple[float, int] | tuple[float, int, str]] = (),
        edges: Iterable[tuple[float, int, int]] = (),
    ) -> EventStream:
        """Build a stream from ``(time, node[, origin])`` and ``(time, u, v)`` records.

        Records are taken in the given order (no sorting); the origin
        defaults to ``"xiaonei"``.
        """
        rows = [(r[0], r[1], r[2] if len(r) > 2 else ORIGIN_XIAONEI) for r in nodes]
        node_cols = list(zip(*rows)) or [(), (), ()]
        edge_cols = list(zip(*edges)) or [(), (), ()]
        return cls(NodeColumns.build(*node_cols), EdgeColumns.build(*edge_cols))

    @property
    def num_nodes(self) -> int:
        """Total number of node-arrival events."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Total number of edge-arrival events."""
        return len(self.edges)

    @property
    def end_time(self) -> float:
        """Time of the last event, or 0.0 for an empty stream."""
        last_node = float(self.nodes.time[-1]) if len(self.nodes) else 0.0
        last_edge = float(self.edges.time[-1]) if len(self.edges) else 0.0
        return max(last_node, last_edge)

    def node_arrival_times(self) -> dict[int, float]:
        """Map each node id to its arrival time."""
        return dict(zip(self.nodes.node.tolist(), self.nodes.time.tolist(), strict=True))

    def node_origins(self) -> dict[int, str]:
        """Map each node id to its origin label."""
        return dict(zip(self.nodes.node.tolist(), self.nodes.origin_labels(), strict=True))

    def slice(self, start: float, end: float) -> EventStream:
        """Return the sub-stream of events with ``start <= time <= end``."""
        nt, et = self.nodes.time, self.edges.time
        n_lo, n_hi = np.searchsorted(nt, start, "left"), np.searchsorted(nt, end, "right")
        e_lo, e_hi = np.searchsorted(et, start, "left"), np.searchsorted(et, end, "right")
        return EventStream(nodes=self.nodes[n_lo:n_hi], edges=self.edges[e_lo:e_hi])

    def content_digest(self) -> str:
        """SHA-256 over the stream's full event content (cached).

        Hashes times, ids, and origin labels of every event in order, so
        any edit to the stream — reordering, relabeling, a single
        timestamp — produces a different digest.  This is the canonical
        content identity used by the result cache and mirrored by
        ``repro.store`` manifests, so a stream and its columnar encoding
        share one digest.
        """
        digest = self._digest
        if digest is None:
            digest = content_digest([self.nodes], [self.edges])
            object.__setattr__(self, "_digest", digest)
        return digest

    def node_edge_columns(self) -> NodeEdgeColumns:
        """Each node's edge times as shared columns (built once, cached)."""
        columns = self._node_edges
        if columns is None:
            with get_recorder().span("graph.node_edge_columns", edges=len(self.edges)):
                columns = NodeEdgeColumns.build(self.nodes, self.edges)
            object.__setattr__(self, "_node_edges", columns)
        return columns

    def validate(self) -> None:
        """Check stream invariants; raise :class:`ValueError` on violation.

        Reports the first violation in event order, as a per-event scan
        over nodes, then edges, would.
        """
        nodes, edges = self.nodes, self.edges
        _check_sorted(nodes.time, "nodes")
        _check_sorted(edges.time, "edges")
        by_id = np.argsort(nodes.node, kind="stable")
        ids = nodes.node[by_id]
        repeats = by_id[1:][ids[1:] == ids[:-1]]
        if repeats.size:
            first = int(repeats.min())
            raise ValueError(f"duplicate node arrival for node {int(nodes.node[first])}")
        born = nodes.time[by_id]
        lo = np.minimum(edges.u, edges.v)
        hi = np.maximum(edges.u, edges.v)
        by_key = np.lexsort((hi, lo))
        same = (lo[by_key][1:] == lo[by_key][:-1]) & (hi[by_key][1:] == hi[by_key][:-1])
        duplicate = np.zeros(len(edges), dtype=bool)
        duplicate[by_key[1:][same]] = True
        loop = edges.u == edges.v
        unknown_lo, late_lo = _endpoint_checks(ids, born, lo, edges.time)
        unknown_hi, late_hi = _endpoint_checks(ids, born, hi, edges.time)
        bad = np.logical_or.reduce((loop, duplicate, unknown_lo, late_lo, unknown_hi, late_hi))
        if not bad.any():
            return
        i = int(np.argmax(bad))
        time = float(edges.time[i])
        key = (int(lo[i]), int(hi[i]))
        if loop[i]:
            raise ValueError(f"self-loop edge at time {time}: node {key[0]}")
        if duplicate[i]:
            raise ValueError(f"duplicate edge {key} at time {time}")
        for endpoint, unknown, late in (
            (key[0], unknown_lo, late_lo),
            (key[1], unknown_hi, late_hi),
        ):
            if unknown[i]:
                raise ValueError(f"edge {key} references unknown node {endpoint}")
            if late[i]:
                when = float(born[np.searchsorted(ids, endpoint)])
                raise ValueError(
                    f"edge {key} at time {time} predates node {endpoint} (born {when})"
                )


def content_digest(nodes: Iterable[NodeColumns], edges: Iterable[EdgeColumns]) -> str:
    """SHA-256 over event columns given as consecutive chunks.

    Hashes, in order: node times (float64), node ids (int64), the node
    origin labels joined with ``\x00``, edge times, then interleaved
    ``(u, v)`` pairs (int64).  The chunking does not change the digest, so
    a stream and its chunked store encoding share one.
    """
    nodes, edges = list(nodes), list(edges)
    h = hashlib.sha256()
    for chunk in nodes:
        h.update(chunk.time.astype(np.float64, copy=False).tobytes())
    for chunk in nodes:
        h.update(chunk.node.astype(np.int64, copy=False).tobytes())
    first = True
    for chunk in nodes:
        if not len(chunk):
            continue
        if not first:
            h.update(b"\x00")
        encoded = [label.encode() for label in chunk.labels]
        h.update(b"\x00".join(encoded[code] for code in chunk.origin.tolist()))
        first = False
    for chunk in edges:
        h.update(chunk.time.astype(np.float64, copy=False).tobytes())
    for chunk in edges:
        h.update(np.column_stack((chunk.u, chunk.v)).astype(np.int64, copy=False).tobytes())
    return h.hexdigest()


def _check_sorted(times: FloatArray, label: str) -> None:
    drops = np.flatnonzero(np.diff(times) < 0)
    if drops.size:
        raise ValueError(f"{label} not sorted by time at t={float(times[drops[0] + 1])}")


def _endpoint_checks(
    ids: IntArray, born: FloatArray, endpoints: IntArray, times: FloatArray
) -> tuple[BoolArray, BoolArray]:
    """Per edge: is ``endpoint`` unknown, and was it born after the edge?

    ``ids`` are the sorted node ids and ``born`` their arrival times.
    """
    if not len(ids):
        return np.ones(len(endpoints), dtype=bool), np.zeros(len(endpoints), dtype=bool)
    pos = np.minimum(np.searchsorted(ids, endpoints), len(ids) - 1)
    known = ids[pos] == endpoints
    return ~known, known & (born[pos] > times)
