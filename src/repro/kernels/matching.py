"""Single-pass contingency-count Jaccard matching for community tracking.

The tracker needs, for every community of the new snapshot, its overlap
count with every lineage of the previous snapshot, plus the best parent by
Jaccard similarity.  Both sides arrive as flat arrays — the new
communities' member ids with each member's community, and the previous
lineages' member ids sorted with each member's lineage rank — so one
``searchsorted`` joins them on node id, and one ``np.unique`` reduces the
(new community, previous lineage) pair codes: a single pass over the
total membership instead of per-pair Python set operations.

Similarities are ``intersection / (|A| + |B| - intersection)`` on exact
integer counts, so they equal the reference floats bit-for-bit; ties on
similarity resolve to the smallest lineage id, the same deterministic rule
as the Python reference.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.obs import get_recorder
from repro.util.arrays import IntArray

__all__ = ["Lineages", "match_communities_csr"]


class Lineages(NamedTuple):
    """Tracked communities as the matcher reads them.

    ``ids`` holds every member's node id, ascending, and ``rank[i]`` the
    index in ``lineages`` (distinct lineage ids, ascending) of the
    lineage ``ids[i]`` belongs to.
    """

    ids: IntArray
    rank: NDArray[np.intp]
    lineages: IntArray

    @classmethod
    def of(cls, lineage: IntArray, ids: IntArray, community: IntArray) -> Lineages:
        """Community ``c`` has lineage ``lineage[c]``; member ``ids[i]`` is in ``community[i]``."""
        lineages = np.sort(lineage)
        rank = np.searchsorted(lineages, lineage)[community]
        by_id = np.argsort(ids)
        return cls(ids[by_id], rank[by_id], lineages)


def match_communities_csr(
    labels: Sequence[int], ids: IntArray, community: IntArray, previous: Lineages
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter[int]]]:
    """Best parent per new community plus the full overlap contingency.

    New community ``c`` is labelled ``labels[c]``; member ``ids[i]``
    belongs to community ``community[i]``.  The new communities are
    disjoint, as are ``previous``'s lineages.  Returns ``(parent,
    overlaps)`` with the same contents as the Python reference matcher in
    ``tests/oracles.py``: ``parent[label]`` is ``(lineage, similarity)``
    for the most similar previous lineage (ties → smallest lineage id) or
    ``None`` when the community shares no node with any lineage, and
    ``overlaps[label]`` is a Counter of per-lineage intersection sizes,
    keyed in ``labels`` order.
    """
    with get_recorder().span(
        "kernels.matching", communities=len(labels), lineages=previous.lineages.size
    ):
        return _match(labels, ids, community, previous)


def _match(
    labels: Sequence[int], ids: IntArray, community: IntArray, previous: Lineages
) -> tuple[dict[int, tuple[int, float] | None], dict[int, Counter[int]]]:
    parent: dict[int, tuple[int, float] | None] = {label: None for label in labels}
    overlaps: dict[int, Counter[int]] = {label: Counter() for label in labels}
    prev_ids, lineages = previous.ids, previous.lineages
    if not labels or not prev_ids.size:
        return parent, overlaps
    prev_sizes = np.bincount(previous.rank, minlength=lineages.size)
    new_sizes = np.bincount(community, minlength=len(labels))

    # Join on node id: a new member hits at most one previous lineage.
    at = np.searchsorted(prev_ids, ids)
    at[at == prev_ids.size] = 0
    hit = prev_ids[at] == ids
    if not hit.any():
        return parent, overlaps

    # Pair codes sort by (new community, lineage rank); ranks ascend with
    # lineage id, so the first-maximum scan below breaks similarity ties
    # toward the smallest lineage — the reference's rule.
    codes = community[hit] * lineages.size + previous.rank[at[hit]]
    pair_codes, pair_counts = np.unique(codes, return_counts=True)
    pair_new = pair_codes // lineages.size
    pair_rank = pair_codes % lineages.size
    similarities = pair_counts / (new_sizes[pair_new] + prev_sizes[pair_rank] - pair_counts)

    lineage_ids = lineages.tolist()
    starts = np.searchsorted(pair_new, np.arange(len(labels) + 1, dtype=np.int64)).tolist()
    for i, label in enumerate(labels):
        lo, hi = starts[i], starts[i + 1]
        if lo == hi:
            continue
        best = lo + int(np.argmax(similarities[lo:hi]))
        parent[label] = (lineage_ids[pair_rank[best]], float(similarities[best]))
        counter = overlaps[label]
        for rank, inter in zip(
            pair_rank[lo:hi].tolist(), pair_counts[lo:hi].tolist(), strict=True
        ):
            counter[lineage_ids[rank]] = inter
    return parent, overlaps
