"""The Louvain community-detection algorithm [Blondel et al. 2008].

Implemented from scratch on weighted adjacency maps so the aggregation
phase (communities become super-nodes with self-loops) is natural.  Two
paper-specific behaviours:

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

:func:`louvain` runs the flat-array kernel from :mod:`repro.kernels.louvain`;
:func:`louvain_reference` keeps the dict-of-dicts implementation the
kernel is pinned against, bit-identical for identical RNG draws.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.community.modularity import modularity, partition_communities
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import (
    MAX_LEVELS as _MAX_LEVELS,
)
from repro.kernels.louvain import (
    MAX_PASSES_PER_LEVEL as _MAX_PASSES_PER_LEVEL,
)
from repro.kernels.louvain import (
    initial_assignment as _initial_assignment,
)
from repro.kernels.louvain import louvain_csr
from repro.util.rng import make_rng

__all__ = ["louvain", "louvain_reference", "LouvainResult"]


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
    graph: GraphSnapshot,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | None = None,
    seed: int | np.random.Generator | None = 0,
    *,
    csr: CSRGraph | None = None,
) -> LouvainResult:
    """Run Louvain on ``graph`` with stopping threshold ``delta``.

    ``seed_partition`` (incremental mode) provides initial community
    labels; nodes missing from it start as singletons.  ``csr`` optionally
    reuses a prebuilt :class:`~repro.kernels.csr.CSRGraph` of the same
    snapshot.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    partition, levels = louvain_csr(
        csr if csr is not None else CSRGraph.from_snapshot(graph),
        delta,
        seed_partition,
        make_rng(seed),
    )
    return LouvainResult(
        partition=partition,
        modularity=modularity(graph, partition),
        levels=levels,
    )


def louvain_reference(
    graph: GraphSnapshot,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | None = None,
    seed: int | np.random.Generator | None = 0,
) -> LouvainResult:
    """Dict-of-dicts reference for :func:`louvain`, bit-identical to it.

    Only the parity suite calls this; it pins the csr kernel's partition,
    modularity and level count for the same RNG draws.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    rng = make_rng(seed)
    # Working weighted graph: adj[u][v] = weight; self-loops appear as adj[u][u].
    adj: dict[int, dict[int, float]] = {
        u: {v: 1.0 for v in nbrs} for u, nbrs in graph.adjacency.items()
    }
    # node → set of original nodes it represents.
    carried: dict[int, set[int]] = {u: {u} for u in adj}
    assignment = _initial_assignment(adj, seed_partition)
    levels = 0
    while levels < _MAX_LEVELS:
        improved, assignment = _one_level(adj, assignment, delta, rng)
        levels += 1
        if not improved:
            break
        adj, carried, assignment = _aggregate(adj, carried, assignment)
    partition = {
        node: community
        for super_node, community in assignment.items()
        for node in carried[super_node]
    }
    return LouvainResult(
        partition=partition,
        modularity=modularity(graph, partition),
        levels=levels,
    )


# -- internals -------------------------------------------------------------
# (_initial_assignment and the level/pass caps live in repro.kernels.louvain,
# shared with the csr kernel so both implementations start and stop
# identically.)


def _weighted_degree(adj_u: dict[int, float], u: int) -> float:
    # Self-loop weight counts twice, the standard convention.
    return sum(adj_u.values()) + adj_u.get(u, 0.0)


def _one_level(
    adj: dict[int, dict[int, float]],
    assignment: dict[int, int],
    delta: float,
    rng: np.random.Generator,
) -> tuple[bool, dict[int, int]]:
    """Local-move phase; returns (made structural progress, new assignment)."""
    nodes = list(adj)
    k = {u: _weighted_degree(adj[u], u) for u in nodes}
    m2 = sum(k.values())  # == 2m
    if m2 == 0:
        return False, dict(assignment)
    assignment = dict(assignment)
    comm_tot: dict[int, float] = defaultdict(float)
    for u in nodes:
        comm_tot[assignment[u]] += k[u]
    order = [nodes[i] for i in rng.permutation(len(nodes))]
    any_move = False
    for _ in range(_MAX_PASSES_PER_LEVEL):
        pass_gain = 0.0
        for u in order:
            cu = assignment[u]
            ku = k[u]
            # Weight from u to each neighboring community (excluding self-loop).
            links: dict[int, float] = defaultdict(float)
            for v, w in adj[u].items():
                if v != u:
                    links[assignment[v]] += w
            comm_tot[cu] -= ku
            base = links.get(cu, 0.0) - comm_tot[cu] * ku / m2
            best_c, best_gain = cu, 0.0
            # Ascending label order: ties resolve to the smallest community
            # label regardless of dict insertion order, matching the csr
            # kernel's rank-sorted first-max scan.
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - comm_tot[c] * ku / m2
                if gain - base > best_gain:
                    best_gain = gain - base
                    best_c = c
            comm_tot[best_c] += ku
            if best_c != cu:
                assignment[u] = best_c
                any_move = True
                pass_gain += 2.0 * best_gain / m2  # ΔQ of this move
        if pass_gain < delta:
            break
    return any_move, assignment


def _aggregate(
    adj: dict[int, dict[int, float]],
    carried: dict[int, set[int]],
    assignment: dict[int, int],
) -> tuple[dict[int, dict[int, float]], dict[int, set[int]], dict[int, int]]:
    """Condense communities into super-nodes (phase 2)."""
    new_adj: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    new_carried: dict[int, set[int]] = defaultdict(set)
    for u, nbrs in adj.items():
        cu = assignment[u]
        new_carried[cu] |= carried[u]
        for v, w in nbrs.items():
            cv = assignment[v]
            if u == v:
                new_adj[cu][cu] += w
            elif cu == cv:
                # Each internal edge visited from both ends; accumulate as
                # half so the self-loop weight equals the internal weight.
                new_adj[cu][cu] += w / 2.0
            else:
                new_adj[cu][cv] += w
    condensed = {u: dict(nbrs) for u, nbrs in new_adj.items()}
    for c in list(new_carried):
        condensed.setdefault(c, {})
    new_assignment = {c: c for c in condensed}
    return condensed, dict(new_carried), new_assignment
