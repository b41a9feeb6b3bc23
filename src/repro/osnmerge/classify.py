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

from repro.graph.events import ORIGIN_NEW, EventStream

__all__ = ["EdgeClass", "classify_edge", "classify_edges"]


class EdgeClass(str, enum.Enum):
    """Post-merge edge categories."""

    INTERNAL = "internal"
    EXTERNAL = "external"
    NEW = "new"


def classify_edge(u: int, v: int, origin_of: Mapping[int, str]) -> EdgeClass:
    """Classify the edge ``(u, v)`` given the node→origin map."""
    ou = origin_of[u]
    ov = origin_of[v]
    if ou == ORIGIN_NEW or ov == ORIGIN_NEW:
        return EdgeClass.NEW
    if ou == ov:
        return EdgeClass.INTERNAL
    return EdgeClass.EXTERNAL


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
    origin_of = stream.node_origins()
    edges = stream.edges
    return [
        (t, u, v, classify_edge(u, v, origin_of))
        for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True)
        if t > cutoff
    ]
