"""Degree assortativity (Figure 1f).

The Pearson correlation coefficient of the degrees at either end of each
edge.  Each undirected edge contributes both orientations, making the
measure symmetric (the standard Newman definition).

:func:`degree_assortativity` reduces the Pearson sums with four
vectorized int64 reductions over the CSR arrays;
:func:`degree_assortativity_reference` walks the edge list.  Both use
exact integer arithmetic, so results are identical.
"""

from __future__ import annotations

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.csr import CSRGraph

__all__ = ["degree_assortativity", "degree_assortativity_reference"]


def degree_assortativity(csr: CSRGraph) -> float:
    """Degree correlation over edges; ``nan`` when undefined (e.g. regular graphs).

    Accumulates the Pearson sums in exact integer arithmetic, so the result
    is independent of edge iteration order.
    """
    return degree_assortativity_csr(csr)


def degree_assortativity_reference(graph: GraphSnapshot) -> float:
    """Edge-walking reference for :func:`degree_assortativity`."""
    adjacency = graph.adjacency
    # Both orientations of every edge contribute, so the x- and y-series
    # are permutations of each other: sum(x) == sum(y), sum(x^2) == sum(y^2).
    n = 0
    s = 0  # sum of degrees over both orientations
    ss = 0  # sum of squared degrees over both orientations
    sxy = 0  # sum of du * dv over both orientations
    for u, v in graph.edges():
        du = len(adjacency[u])
        dv = len(adjacency[v])
        n += 2
        s += du + dv
        ss += du * du + dv * dv
        sxy += 2 * du * dv
    if n < 2:
        return float("nan")
    var = n * ss - s * s  # n^2 * variance, exact
    if var == 0:
        return float("nan")
    return float((n * sxy - s * s) / var)
