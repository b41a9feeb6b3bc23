"""Frontier-array BFS kernels: components, sampled path lengths, set distance.

The reference implementations walk Python dicts one neighbor at a time;
these kernels advance a whole BFS frontier per step with fancy indexing,
so each level costs a handful of numpy calls over int64 arrays.  Sampled
hop counts (path length, effective diameter) go further and run 64
sources per traversal as bits of one ``uint64`` word per node.  All
accumulation is integer arithmetic, so results are exactly equal to the
reference — no float tolerance needed.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import CSRGraph, gather_neighbors
from repro.obs import get_recorder
from repro.util.arrays import BoolArray, IntArray

__all__ = [
    "component_labels",
    "connected_components_csr",
    "largest_component_csr",
    "average_path_length_csr",
    "distance_to_set_csr",
    "hop_counts_csr",
]

#: Sources per bit-parallel BFS: one ``uint64`` word per position holds a
#: block, so working memory stays O(n + m) words for any sample size.
_BLOCK = 64

#: Set bits per byte value; ``np.bitwise_count`` needs numpy >= 2.0.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, dtype=np.uint8)


def component_labels(csr: CSRGraph) -> tuple[IntArray, IntArray]:
    """Connected-component label per position plus per-label sizes.

    Labels are assigned in discovery order scanning positions 0..n-1, so
    label k is the component of the k-th new root in insertion order
    (mirroring the reference traversal).
    """
    n = csr.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    sizes: list[int] = []
    indptr, indices = csr.indptr, csr.indices
    scratch = np.zeros(n, dtype=bool)
    for root in range(n):
        if labels[root] >= 0:
            continue
        label = len(sizes)
        labels[root] = label
        frontier = np.array([root], dtype=np.int64)
        size = 1
        while frontier.size:
            neighbors = gather_neighbors(indptr, indices, frontier)
            neighbors = neighbors[labels[neighbors] < 0]
            if neighbors.size == 0:
                break
            # Dedup through a boolean scratch instead of np.unique: marking
            # is O(neighbors) and flatnonzero is O(n), vs an O(m log m) sort.
            scratch[neighbors] = True
            frontier = np.flatnonzero(scratch)
            scratch[frontier] = False
            labels[frontier] = label
            size += int(frontier.size)
        sizes.append(size)
    return labels, np.asarray(sizes, dtype=np.int64)


def connected_components_csr(csr: CSRGraph) -> list[set[int]]:
    """All components as node-id sets, largest first, ties by smallest member id."""
    if csr.num_nodes == 0:
        return []
    with get_recorder().span("kernels.components", nodes=csr.num_nodes):
        labels, sizes = component_labels(csr)
        order = np.argsort(labels, kind="stable")
        boundaries = np.cumsum(sizes, dtype=np.int64)[:-1]
        components = [
            set(ids.tolist()) for ids in np.split(csr.node_ids[order], boundaries)
        ]
        components.sort(key=lambda c: (-len(c), min(c)))
        return components


def largest_component_csr(csr: CSRGraph) -> IntArray:
    """Sorted node ids of the largest component (ties: smallest member id).

    Returns an empty array for an empty graph.  The sorted-id convention
    matches the sampling-pool convention in :mod:`repro.metrics.paths`.
    """
    if csr.num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    with get_recorder().span("kernels.components", nodes=csr.num_nodes):
        return _largest_component(csr)


def _largest_component(csr: CSRGraph) -> IntArray:
    labels, sizes = component_labels(csr)
    best = sizes.max()
    candidates = np.flatnonzero(sizes == best)
    if candidates.size == 1:
        winner = int(candidates[0])
    else:
        min_ids = np.full(sizes.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(min_ids, labels, csr.node_ids)
        winner = int(candidates[np.argmin(min_ids[candidates])])
    members = csr.node_ids[labels == winner]
    members.sort()
    return members


def average_path_length_csr(
    csr: CSRGraph,
    sample_size: int,
    rng: np.random.Generator,
) -> float:
    """CSR twin of :func:`repro.metrics.paths.average_path_length_sampled`.

    Draws the same sources (same sorted pool, same ``rng.choice`` call) and
    accumulates the same integer sums, so the returned float is identical.
    """
    rec = get_recorder()
    with rec.span("kernels.path_length", nodes=csr.num_nodes):
        members = largest_component_csr(csr)
        if members.size < 2:
            return float("nan")
        k = min(sample_size, int(members.size))
        sources = rng.choice(members, size=k, replace=False)
        hops = hop_counts_csr(csr, csr.positions_of(sources)).tolist()
        total = sum(depth * pairs for depth, pairs in enumerate(hops, start=1))
        count = sum(hops)
        if rec.enabled:
            rec.count("kernels.bfs_sources", k)
            rec.count("kernels.bfs_frontier_nodes", count)
        if count == 0:
            return float("nan")
        return total / count


def hop_counts_csr(csr: CSRGraph, sources: IntArray) -> IntArray:
    """Entry ``d - 1``: the (source, node) pairs at hop distance ``d`` from distinct ``sources``.

    Sources are traversed :data:`_BLOCK` at a time by :func:`_block_hop_counts`;
    each source is excluded from its own counts, as in the reference.
    """
    counts: list[int] = []
    for start in range(0, sources.size, _BLOCK):
        block = _block_hop_counts(csr, sources[start : start + _BLOCK])
        counts.extend([0] * (len(block) - len(counts)))
        for depth, newly in enumerate(block):
            counts[depth] += newly
    return np.asarray(counts, dtype=np.int64)


def _block_hop_counts(csr: CSRGraph, sources: IntArray) -> list[int]:
    """Per-depth pair counts (depth 1 first) over BFSs from up to 64 ``sources``.

    Bit ``i`` of ``frontier[p]`` says that source ``i`` reached position
    ``p`` at the current depth, so one ``bitwise_or.reduceat`` over the
    neighbor rows advances every source a level at once, and a popcount of
    the newly reached bits counts that level's pairs.  Only rows of
    degree > 0 are reduced: ``reduceat`` misreads empty rows.
    """
    rows = np.flatnonzero(csr.degrees)
    starts = csr.indptr[rows]
    frontier = np.zeros(csr.num_nodes, dtype=np.uint64)
    frontier[sources] = np.left_shift(np.uint64(1), np.arange(sources.size, dtype=np.uint64))
    visited = frontier.copy()
    reached = np.zeros_like(frontier)
    counts: list[int] = []
    while True:
        reached[rows] = np.bitwise_or.reduceat(frontier[csr.indices], starts)
        reached &= ~visited
        newly = int(_POPCOUNT[reached.view(np.uint8)].sum())
        if newly == 0:
            return counts
        visited |= reached
        frontier, reached = reached, frontier
        counts.append(newly)


def distance_to_set_csr(csr: CSRGraph, target_mask: BoolArray, allowed_mask: BoolArray) -> IntArray:
    """Hop distance from every position to the nearest allowed target, ``-1`` if none.

    One BFS starts from every position in ``target_mask & allowed_mask`` and
    enters allowed positions only.  A shortest path to the nearest target
    never passes another target, and distance is symmetric, so entry ``p``
    equals the per-source dict BFS ``bfs_distance_to_set`` of
    ``tests/oracles.py`` from ``p`` with the disallowed nodes forbidden
    (−1 where that returns ``None``).
    """
    with get_recorder().span("kernels.distance_to_set", nodes=csr.num_nodes):
        distance = np.full(csr.num_nodes, -1, dtype=np.int64)
        frontier = np.flatnonzero(target_mask & allowed_mask)
        distance[frontier] = 0
        unvisited = allowed_mask.copy()
        unvisited[frontier] = False
        scratch = np.zeros(csr.num_nodes, dtype=bool)
        depth = 0
        while frontier.size:
            depth += 1
            scratch[gather_neighbors(csr.indptr, csr.indices, frontier)] = True
            np.logical_and(scratch, unvisited, out=scratch)
            frontier = np.flatnonzero(scratch)
            scratch[frontier] = False
            unvisited[frontier] = False
            distance[frontier] = depth
        return distance
