"""Average degree, degree distributions, and their power-law tails (Fig 1c).

Beyond the paper's average-degree series, this module provides the degree
CCDF and a tail-exponent fit — the standard companions for checking that a
trace's degree structure is OSN-like (heavy-tailed with exponent ~2-3).
"""

from __future__ import annotations

import numpy as np

from repro.edges.powerlaw import PowerLawFit, fit_power_law_mle
from repro.kernels.csr import CSRGraph
from repro.util.binning import histogram_counts

__all__ = [
    "average_degree",
    "degree_distribution",
    "degree_ccdf",
    "fit_degree_tail",
]


def average_degree(graph: CSRGraph) -> float:
    """Mean node degree, ``2E / N``; 0.0 for an empty graph."""
    if graph.num_nodes == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_nodes


def degree_distribution(graph: CSRGraph) -> dict[int, int]:
    """Map of degree → number of nodes with that degree."""
    return histogram_counts(graph.degrees.tolist())


def degree_ccdf(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF of degrees: ``(degrees, P(D >= degree))``.

    Only degrees present in the graph appear; the CCDF is right-continuous
    and starts at 1.0.  Returns empty arrays for an empty graph.
    """
    dist = degree_distribution(graph)
    if not dist:
        return np.array([]), np.array([])
    degrees = np.array(sorted(dist))
    counts = np.array([dist[d] for d in degrees], dtype=float)
    total = counts.sum()
    # P(D >= d): reverse cumulative sum.
    ccdf = counts[::-1].cumsum()[::-1] / total
    return degrees, ccdf


def fit_degree_tail(graph: CSRGraph, xmin: float | None = None) -> PowerLawFit:
    """MLE power-law fit of the degree tail.

    ``xmin`` defaults to the median positive degree (tail-only fit).
    Raises :class:`ValueError` when the graph has too few positive-degree
    nodes.
    """
    degrees = graph.degrees.astype(float)
    degrees = degrees[degrees > 0]
    if degrees.size < 10:
        raise ValueError("need at least 10 positive-degree nodes for a tail fit")
    if xmin is None:
        xmin = float(np.median(degrees))
    return fit_power_law_mle(degrees, xmin=xmin)
