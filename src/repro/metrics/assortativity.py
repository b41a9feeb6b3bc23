"""Degree assortativity (Figure 1f).

The Pearson correlation coefficient of the degrees at either end of each
edge.  Each undirected edge contributes both orientations, making the
measure symmetric (the standard Newman definition).

:func:`degree_assortativity` reduces the Pearson sums with four
vectorized int64 reductions over the CSR arrays, in exact integer
arithmetic.
"""

from __future__ import annotations

from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.csr import CSRGraph

__all__ = ["degree_assortativity"]


def degree_assortativity(csr: CSRGraph) -> float:
    """Degree correlation over edges; ``nan`` when undefined (e.g. regular graphs).

    Accumulates the Pearson sums in exact integer arithmetic, so the result
    is independent of edge iteration order.
    """
    return degree_assortativity_csr(csr)
