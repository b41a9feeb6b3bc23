"""The one graph representation: a snapshot as immutable CSR arrays.

:class:`CSRGraph` holds a snapshot as three int64 arrays — ``node_ids``
(position → node id, node arrival order), ``indptr`` (row pointers),
``indices`` (neighbor *positions*, sorted within each row).  Working in
position space makes every downstream kernel a chain of fancy-indexing
operations; the sorted rows are what the merge-intersection clustering
kernels rely on.

Positions follow node arrival order because the Louvain reference
implementation visits nodes in dict insertion order: a kernel that
re-ordered nodes would permute the RNG-shuffled visit sequence and break
bit-for-bit parity with the reference.

Replay (:class:`~repro.graph.dynamic.DynamicGraph`) builds one per
snapshot straight from the event columns.  Every metric, the null model and community
detection read it; the dict-of-sets graph the parity oracles use lives
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.util.arrays import IntArray

__all__ = ["CSRGraph", "gather_neighbors", "label_edge_counts"]


@dataclass(frozen=True)
class CSRGraph:
    """Snapshot frozen as CSR arrays over compact node positions.

    ``node_ids[p]`` is the id of the node at position ``p`` (insertion
    order); its neighbors are ``indices[indptr[p]:indptr[p + 1]]``, as
    positions, ascending.  ``indices`` holds both directions of every
    edge, so ``indices.size == 2 * num_edges``.

    ``arrival`` is set on graphs built by replay: ``arrival[i]`` is the
    stream index of the edge event that created entry ``i`` (a parallel
    window replays the same stream prefix, so its indices are the serial
    replay's).  It lets a consumer list a node's neighbors in the order
    they arrived.
    """

    node_ids: IntArray
    indptr: IntArray
    indices: IntArray
    num_edges: int
    arrival: IntArray | None = None

    @classmethod
    def empty(cls) -> "CSRGraph":
        """The graph with no nodes."""
        none = np.empty(0, dtype=np.int64)
        return cls(node_ids=none, indptr=np.zeros(1, dtype=np.int64), indices=none, num_edges=0)

    # -- queries ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return int(self.node_ids.size)

    @cached_property
    def degrees(self) -> IntArray:
        """Degree per position (``np.diff(indptr)``)."""
        return np.diff(self.indptr)

    @cached_property
    def _id_order(self) -> IntArray:
        return np.argsort(self.node_ids, kind="stable")

    @cached_property
    def _sorted_ids(self) -> IntArray:
        return self.node_ids[self._id_order]

    def positions_of(self, ids: IntArray) -> IntArray:
        """Positions of the given node ids (ids must exist in the graph)."""
        ids = np.asarray(ids, dtype=np.int64)
        return self._id_order[np.searchsorted(self._sorted_ids, ids)]

    def __repr__(self) -> str:
        return f"CSRGraph(nodes={self.num_nodes}, edges={self.num_edges})"


def label_edge_counts(
    csr: CSRGraph, labels: NDArray[np.integer[Any]], count: int
) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Per label in ``range(count)``: directed entries inside it, and its degree sum.

    ``labels[p]`` is the label of position ``p``.  An edge inside a label
    counts twice in the first array, once per direction.
    """
    rows = np.repeat(labels, csr.degrees)
    inside = np.bincount(rows[rows == labels[csr.indices]], minlength=count)
    return inside, np.bincount(rows, minlength=count)


def gather_neighbors(
    indptr: IntArray, indices: IntArray, frontier: IntArray
) -> IntArray:
    """Concatenated neighbor positions of every position in ``frontier``.

    The vectorized multi-slice gather every traversal kernel is built on:
    equivalent to ``np.concatenate([indices[indptr[p]:indptr[p+1]] for p
    in frontier])`` without the per-row Python loop.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts, dtype=np.int64)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    return indices[flat]
