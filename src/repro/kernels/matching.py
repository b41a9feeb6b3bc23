"""Single-pass contingency-count Jaccard matching for community tracking.

The tracker needs, for every community of the new snapshot, its overlap
count with every lineage of the previous snapshot, plus the best parent by
Jaccard similarity.  This kernel concatenates all memberships into flat
arrays, joins them on node id with one ``searchsorted``, and reduces the
(new community, previous lineage) pair codes with one ``np.unique`` — a
single pass over the total membership instead of per-pair Python set
operations.

Similarities are ``intersection / (|A| + |B| - intersection)`` on exact
integer counts, so they equal the reference floats bit-for-bit; ties on
similarity resolve to the smallest lineage id, the same deterministic rule
as the Python reference.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

import numpy as np

from repro.obs import get_recorder

__all__ = ["match_communities_csr"]


def match_communities_csr(
    raw: Mapping[int, frozenset[int]],
    prev_members: Mapping[int, frozenset[int]],
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter[int]]]:
    """Best parent per new community plus the full overlap contingency.

    ``raw`` maps new community labels to member sets; ``prev_members``
    maps previous lineage ids to member sets (disjoint, as partitions
    are).  Returns ``(parent, overlaps)`` with the same contents as the
    Python reference matcher in ``tests/oracles.py``:
    ``parent[label]`` is ``(lineage, similarity)`` for the most similar
    previous lineage (ties → smallest lineage id) or ``None`` when the
    community shares no node with any lineage, and ``overlaps[label]`` is
    a Counter of per-lineage intersection sizes, keyed in ``raw`` order.
    """
    with get_recorder().span(
        "kernels.matching", communities=len(raw), lineages=len(prev_members)
    ):
        return _match(raw, prev_members)


def _match(
    raw: Mapping[int, frozenset[int]],
    prev_members: Mapping[int, frozenset[int]],
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter[int]]]:
    labels = list(raw)
    parent: dict[int, tuple[int, float] | None] = {label: None for label in labels}
    overlaps: dict[int, Counter[int]] = {label: Counter() for label in labels}
    if not labels or not prev_members:
        return parent, overlaps

    lineages = np.sort(np.fromiter(prev_members, dtype=np.int64, count=len(prev_members)))
    prev_sizes = np.array([len(prev_members[int(lin)]) for lin in lineages], dtype=np.int64)
    prev_nodes = np.concatenate(
        [np.fromiter(prev_members[int(lin)], dtype=np.int64) for lin in lineages]
    )
    prev_rank = np.repeat(np.arange(lineages.size, dtype=np.int64), prev_sizes)
    node_order = np.argsort(prev_nodes, kind="stable")
    prev_nodes = prev_nodes[node_order]
    prev_rank = prev_rank[node_order]

    new_sizes = np.array([len(raw[label]) for label in labels], dtype=np.int64)
    new_nodes = np.concatenate(
        [np.fromiter(raw[label], dtype=np.int64, count=len(raw[label])) for label in labels]
    )
    new_index = np.repeat(np.arange(len(labels), dtype=np.int64), new_sizes)

    # Join on node id: a new member hits at most one previous lineage.
    at = np.searchsorted(prev_nodes, new_nodes)
    at[at == prev_nodes.size] = 0
    hit = prev_nodes[at] == new_nodes
    if not hit.any():
        return parent, overlaps

    # Pair codes sort by (new community, lineage rank); ranks ascend with
    # lineage id, so the first-maximum scan below breaks similarity ties
    # toward the smallest lineage — the reference's rule.
    codes = new_index[hit] * lineages.size + prev_rank[at[hit]]
    pair_codes, pair_counts = np.unique(codes, return_counts=True)
    pair_new = pair_codes // lineages.size
    pair_rank = pair_codes % lineages.size
    similarities = pair_counts / (new_sizes[pair_new] + prev_sizes[pair_rank] - pair_counts)

    starts = np.searchsorted(pair_new, np.arange(len(labels) + 1, dtype=np.int64))
    for i, label in enumerate(labels):
        lo, hi = int(starts[i]), int(starts[i + 1])
        if lo == hi:
            continue
        best = lo + int(np.argmax(similarities[lo:hi]))
        parent[label] = (int(lineages[pair_rank[best]]), float(similarities[best]))
        counter = overlaps[label]
        for rank, inter in zip(
            pair_rank[lo:hi].tolist(), pair_counts[lo:hi].tolist(), strict=True
        ):
            counter[int(lineages[rank])] = inter
    return parent, overlaps
