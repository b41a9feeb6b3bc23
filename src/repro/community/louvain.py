"""The Louvain community-detection algorithm [Blondel et al. 2008].

Each level moves nodes between communities, then aggregates communities
into super-nodes with self-loops.  Two paper-specific behaviours:

* **δ threshold** — each level's local-move phase stops when a full pass
  improves modularity by less than δ, and the level loop stops when a
  whole level gains less than δ.  The paper tunes δ as the trade-off
  between modularity quality and tracking robustness (§4.1, Fig 4) and
  settles on δ = 0.04.
* **Incremental mode** — the node→community assignment from the previous
  snapshot can seed the initial assignment, giving the "strong explicit
  tie between snapshots" the paper's tracking relies on.

Node visit order is shuffled with a seeded RNG, and modularity-gain ties
resolve to the smallest community label, so results are deterministic for
a given seed — independent of dict/set iteration order.

:func:`louvain` runs the flat-array kernel from :mod:`repro.kernels.louvain`
on a :class:`~repro.kernels.csr.CSRGraph`.  The partition stays a label
array over the graph's positions, with its order; one pass over the
graph numbers its communities, counts their edges and gives the
modularity.  :attr:`LouvainResult.partition` and
:meth:`LouvainResult.communities` build the dict and the node sets from
the arrays when a caller asks for them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import count_communities, louvain_csr
from repro.util.arrays import IntArray
from repro.util.rng import make_rng

__all__ = ["louvain", "LouvainResult"]


@dataclass(frozen=True, eq=False)
class LouvainResult:
    """Partition found by Louvain plus its quality, as arrays over graph positions.

    ``labels[p]`` is the community label of node ``node_ids[p]``; labels
    are arbitrary but stable for a given (graph, seed, seed partition).
    ``order`` lists the positions in partition order: grouped by the last
    level's super-node, then by the super-node one level down, and so on.
    ``community[p]`` numbers position ``p``'s community among the labels
    in ascending order, and ``internal_edges`` and ``degree_sums`` are
    indexed by that number.
    """

    node_ids: IntArray
    labels: IntArray
    order: IntArray
    community: IntArray
    internal_edges: IntArray
    degree_sums: IntArray
    modularity: float
    levels: int

    @property
    def partition(self) -> dict[int, int]:
        """Every node's community label, keyed in partition order."""
        ids = self.node_ids[self.order].tolist()
        return dict(zip(ids, self.labels[self.order].tolist(), strict=True))

    def members(self, min_size: int = 1) -> tuple[IntArray, IntArray, IntArray]:
        """The communities of at least ``min_size`` nodes, by ascending label, as arrays.

        Returns ``(kept, positions, bounds)``: the kept communities'
        numbers; their members' positions, community by community, each
        community's in partition order; and where each community's run
        starts in ``positions``, with the total appended.
        """
        sizes = np.bincount(self.community, minlength=self.internal_edges.size)
        kept = np.flatnonzero(sizes >= min_size)
        grouped = self.order[np.argsort(self.community[self.order], kind="stable")]
        positions = grouped[sizes[self.community[grouped]] >= min_size]
        bounds = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(sizes[kept], out=bounds[1:])
        return kept, positions, bounds

    def communities(self, min_size: int = 1) -> dict[int, set[int]]:
        """Communities of at least ``min_size`` nodes as ``label → node set``.

        Keyed by first appearance in partition order; each set is filled
        in partition order.
        """
        _, positions, bounds = self.members(min_size)
        firsts = positions[bounds[:-1]]
        # place[p]: position p's place in partition order.
        place = np.empty_like(self.order)
        place[self.order] = np.arange(self.order.size)
        ids, lo = self.node_ids[positions].tolist(), bounds.tolist()
        labels = self.labels[firsts].tolist()
        return {labels[c]: set(ids[lo[c] : lo[c + 1]]) for c in np.argsort(place[firsts]).tolist()}


def louvain(
    csr: CSRGraph,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | LouvainResult | None = None,
    seed: int | np.random.Generator | None = 0,
) -> LouvainResult:
    """Run Louvain on ``csr`` with stopping threshold ``delta``.

    ``seed_partition`` (incremental mode) provides initial community
    labels, as a ``node → label`` map or as an earlier result; nodes
    missing from it start as singletons.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    start: tuple[IntArray, IntArray] | None = None
    if isinstance(seed_partition, LouvainResult):
        start = (seed_partition.node_ids, seed_partition.labels)
    elif seed_partition is not None:
        ids, seed_labels = list(seed_partition), list(seed_partition.values())
        start = (np.array(ids, dtype=np.int64), np.array(seed_labels, dtype=np.int64))
    labels, order, levels = louvain_csr(csr, delta, start, make_rng(seed))
    counts = count_communities(csr, labels)
    return LouvainResult(csr.node_ids, labels, order, *counts, levels=levels)
