"""Compact checkpoints of the evolving graph and the replay cursor.

A checkpoint freezes the replayer mid-stream so that a later process can
resume replay without re-applying every prior event.  The adjacency
structure is stored as a :class:`~repro.kernels.csr.CSRGraph` — three
int64 arrays that are compact to hold, cheap to pickle across process
boundaries, exact to restore, and directly usable by the numpy kernels.

Two invariants make restored replays *bit-identical* to uninterrupted ones:

* ``csr.node_ids`` preserves the adjacency dict's insertion order, so
  analyses that iterate ``GraphSnapshot.nodes()`` see the same sequence;
  and
* the cursor indices (``node_index`` / ``edge_index``) are recorded
  exactly, so a resumed :class:`~repro.graph.dynamic.DynamicGraph` applies
  precisely the events an uninterrupted replay would have applied next.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph

__all__ = ["ReplayCheckpoint"]


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Full replay state: the frozen graph plus the stream cursor.

    ``time`` is informational (the last ``advance_to`` target); the cursor
    indices are authoritative, so checkpoints taken between two events with
    equal timestamps restore unambiguously.
    """

    time: float
    node_index: int
    edge_index: int
    csr: CSRGraph

    def restore_graph(self) -> GraphSnapshot:
        """A fresh mutable snapshot equal to the graph at checkpoint time."""
        csr = self.csr
        ids = csr.node_ids.tolist()
        neighbors = csr.node_ids[csr.indices].tolist()
        bounds = csr.indptr.tolist()
        adjacency = {node: set(neighbors[bounds[i] : bounds[i + 1]]) for i, node in enumerate(ids)}
        return GraphSnapshot.from_adjacency(adjacency, csr.num_edges)
