"""Degree-preserving null model: double-edge-swap randomization.

Measurement studies routinely ask whether an observed structure
(clustering, modularity, community sizes) is explained by the degree
sequence alone.  :func:`degree_preserving_rewire` randomizes a snapshot
with double edge swaps — pick two edges (a,b), (c,d) and rewire to (a,d),
(c,b) when that creates no self-loop or duplicate — preserving every
node's degree exactly.  The Renren-like traces show clustering and
modularity far above their rewired nulls, like the real network.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.util.rng import make_rng

__all__ = ["degree_preserving_rewire"]


def degree_preserving_rewire(
    graph: CSRGraph,
    swaps_per_edge: float = 3.0,
    seed: int | np.random.Generator | None = 0,
    max_tries_factor: int = 10,
) -> CSRGraph:
    """Return a rewired copy of ``graph`` with the same degree sequence.

    Attempts ``swaps_per_edge * num_edges`` successful swaps (the usual
    burn-in for mixing), giving up after ``max_tries_factor`` times that
    many proposals.  Graphs with fewer than 2 edges are returned as
    copies.  The copy keeps ``graph``'s node order.
    """
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be non-negative")
    rng = make_rng(seed)
    edges = _edge_list(graph)
    m = len(edges)
    if m < 2 or swaps_per_edge == 0:
        return _from_edges(graph, edges)
    target_swaps = int(swaps_per_edge * m)
    max_tries = max_tries_factor * target_swaps
    present = set(edges)
    swaps = 0
    tries = 0
    while swaps < target_swaps and tries < max_tries:
        tries += 1
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        # Propose (a,b),(c,d) -> (a,d),(c,b).
        if len({a, b, c, d}) < 4:
            continue
        ad = (a, d) if a < d else (d, a)
        cb = (c, b) if c < b else (b, c)
        if ad in present or cb in present:
            continue
        present.difference_update((edges[i], edges[j]))
        present.update((ad, cb))
        edges[i] = ad
        edges[j] = cb
        swaps += 1
    return _from_edges(graph, edges)


def _edge_list(graph: CSRGraph) -> list[tuple[int, int]]:
    """Every edge once as ``(u, v)`` ids with ``u < v``.

    Rows in position order, each row's neighbours by ascending id, so the
    same RNG draws propose the same swaps whatever the positions.
    """
    ids = graph.node_ids
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    neighbors = ids[graph.indices]
    order = np.lexsort((neighbors, rows))
    u, v = ids[rows[order]], neighbors[order]
    upper = u < v
    return list(zip(u[upper].tolist(), v[upper].tolist(), strict=True))


def _from_edges(graph: CSRGraph, edges: list[tuple[int, int]]) -> CSRGraph:
    """The CSR of ``edges`` over ``graph``'s nodes, in ``graph``'s node order."""
    ends = graph.positions_of(np.array(edges, dtype=np.int64).reshape(-1, 2))
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=graph.num_nodes), out=indptr[1:])
    return CSRGraph(
        node_ids=graph.node_ids,
        indptr=indptr,
        indices=cols[np.lexsort((cols, rows))],
        num_edges=len(edges),
    )
