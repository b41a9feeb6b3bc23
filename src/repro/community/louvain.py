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
on a :class:`~repro.kernels.csr.CSRGraph`, and takes the partition's
modularity from the same arrays.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import louvain_csr
from repro.util.rng import make_rng

__all__ = ["louvain", "LouvainResult", "partition_communities"]


def partition_communities(partition: Mapping[int, int]) -> dict[int, set[int]]:
    """Invert a ``node → community`` map into ``community → node set``."""
    communities: dict[int, set[int]] = defaultdict(set)
    for node, community in partition.items():
        communities[community].add(node)
    return dict(communities)


@dataclass(frozen=True)
class LouvainResult:
    """Partition found by Louvain plus its quality.

    ``partition`` maps every node of the input graph to a community label;
    labels are arbitrary but stable for a given (graph, seed, seed
    partition).
    """

    partition: dict[int, int]
    modularity: float
    levels: int

    def communities(self, min_size: int = 1) -> dict[int, set[int]]:
        """Communities of at least ``min_size`` nodes as ``label → node set``."""
        groups = partition_communities(self.partition)
        return {c: members for c, members in groups.items() if len(members) >= min_size}


def louvain(
    csr: CSRGraph,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | None = None,
    seed: int | np.random.Generator | None = 0,
) -> LouvainResult:
    """Run Louvain on ``csr`` with stopping threshold ``delta``.

    ``seed_partition`` (incremental mode) provides initial community
    labels; nodes missing from it start as singletons.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    partition, quality, levels = louvain_csr(csr, delta, seed_partition, make_rng(seed))
    return LouvainResult(partition=partition, modularity=quality, levels=levels)
