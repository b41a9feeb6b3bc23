"""Compact checkpoints of the evolving graph and the replay cursor.

A checkpoint freezes the replayer mid-stream so that a later process can
resume replay without re-applying every prior event.  The graph is the
replay's own immutable :class:`~repro.kernels.csr.CSRGraph` — three int64
arrays that are compact to hold and cheap to pickle across process
boundaries.  A resumed :class:`~repro.graph.dynamic.DynamicGraph` indexes
that graph plus the columns past the cursor, so it reads none of the
events before it.

Two invariants make resumed replays *bit-identical* to uninterrupted ones:

* ``csr.node_ids`` keeps node arrival order, so positions (and every
  position-order traversal) match the uninterrupted replay; and
* the cursor indices (``node_index`` / ``edge_index``) are recorded
  exactly, so a resumed replay applies precisely the events an
  uninterrupted replay would have applied next.
"""

from __future__ import annotations

from dataclasses import dataclass

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
