"""Edge classification for the merge analysis (paper §5.1).

After the merge, edges fall into three groups:

* **internal** — both endpoints in the same pre-merge OSN;
* **external** — one endpoint from Xiaonei, the other from 5Q;
* **new** — at least one endpoint joined after the merge.

The one-day bulk import of 5Q's pre-merge edges is not post-merge
*activity*; :func:`classify_edges` can exclude it via ``organic_after``.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

import numpy as np

from repro.graph.events import ORIGIN_NEW, EventStream

__all__ = ["EDGE_CLASSES", "EdgeClass", "classify_edge", "classify_edges", "edge_class_codes"]


class EdgeClass(str, enum.Enum):
    """Post-merge edge categories."""

    INTERNAL = "internal"
    EXTERNAL = "external"
    NEW = "new"


#: Edge classes by the codes :func:`edge_class_codes` returns.
EDGE_CLASSES: tuple[EdgeClass, ...] = (EdgeClass.INTERNAL, EdgeClass.EXTERNAL, EdgeClass.NEW)
INTERNAL, EXTERNAL, NEW = range(len(EDGE_CLASSES))


def classify_edge(u: int, v: int, origin_of: Mapping[int, str]) -> EdgeClass:
    """Classify the edge ``(u, v)`` given the node→origin map."""
    ou = origin_of[u]
    ov = origin_of[v]
    if ou == ORIGIN_NEW or ov == ORIGIN_NEW:
        return EdgeClass.NEW
    if ou == ov:
        return EdgeClass.INTERNAL
    return EdgeClass.EXTERNAL


def edge_class_codes(stream: EventStream) -> np.ndarray:
    """The class of every edge, as an index into :data:`EDGE_CLASSES`.

    One gather of both endpoints' origin codes; the codes index
    ``stream.nodes.labels``.
    """
    nodes = stream.nodes
    origin = nodes.origin[stream.node_edge_columns().ends]
    code = np.where(origin[:, 0] == origin[:, 1], INTERNAL, EXTERNAL)
    if ORIGIN_NEW in nodes.labels:
        code[(origin == nodes.labels.index(ORIGIN_NEW)).any(axis=1)] = NEW
    return code


def classify_edges(
    stream: EventStream,
    after: float,
    organic_after: float | None = None,
) -> list[tuple[float, int, int, EdgeClass]]:
    """Classify all edges with ``time > after`` as ``(time, u, v, class)`` rows.

    ``organic_after`` (defaults to ``after + 1``, i.e. skipping the import
    day) drops the bulk-imported edges so only organic post-merge activity
    remains.
    """
    cutoff = after + 1.0 if organic_after is None else organic_after
    edges = stream.edges
    organic = edges.time > cutoff
    kept = edges[organic]
    codes = edge_class_codes(stream)[organic].tolist()
    rows = zip(kept.time.tolist(), kept.u.tolist(), kept.v.tolist(), codes, strict=True)
    return [(t, u, v, EDGE_CLASSES[code]) for t, u, v, code in rows]
