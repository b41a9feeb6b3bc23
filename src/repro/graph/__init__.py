"""Dynamic-graph substrate: timestamped event streams and graph snapshots.

The paper's dataset is "an anonymized stream of timestamped events" — node
creations and edge creations — from which daily static snapshots are derived
(§2).  This subpackage provides exactly that substrate:

* :class:`~repro.graph.events.EventStream` — a time-ordered event sequence,
  held as :class:`~repro.graph.events.NodeColumns` /
  :class:`~repro.graph.events.EdgeColumns` arrays;
* :class:`~repro.graph.dynamic.DynamicGraph` — a cursor over the stream's
  columns that yields each snapshot as an immutable
  :class:`~repro.kernels.csr.CSRGraph`, the one graph representation the
  analyses read;
* :mod:`~repro.graph.nullmodel` — the degree-preserving rewired copy of
  a :class:`~repro.kernels.csr.CSRGraph`.
"""

from repro.graph.dynamic import DynamicGraph, SnapshotView
from repro.graph.events import EdgeColumns, EventStream, NodeColumns
from repro.graph.nullmodel import degree_preserving_rewire
from repro.graph.stream_io import read_event_stream, write_event_stream
from repro.graph.transform import relabel_nodes, rescale_time, subsample_nodes, truncate

__all__ = [
    "degree_preserving_rewire",
    "relabel_nodes",
    "rescale_time",
    "subsample_nodes",
    "truncate",
    "NodeColumns",
    "EdgeColumns",
    "EventStream",
    "DynamicGraph",
    "SnapshotView",
    "read_event_stream",
    "write_event_stream",
]
