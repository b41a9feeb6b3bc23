"""Sampled effective diameter (90th-percentile hop distance).

The paper's related work ([Leskovec et al. 2005], which motivates its
densification reading of Figure 1) characterizes graphs over time by the
*effective diameter*: the smallest ``g`` such that at least 90% of
connected node pairs are within ``g`` hops.  Computed here by BFS from a
node sample of the largest component, with linear interpolation between
integer hop counts (the standard smoothed definition).

Sources are drawn from the sorted largest-component pool, the convention
of :mod:`repro.metrics.paths`, so the sample depends on the node set
alone.  The hop counts come from the bit-parallel BFS the path-length
kernel runs (:func:`~repro.kernels.traversal.hop_counts_csr`), 64 sources
at a time.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import hop_counts_csr, largest_component_csr
from repro.util.rng import make_rng

__all__ = ["effective_diameter_sampled"]


def effective_diameter_sampled(
    graph: CSRGraph,
    quantile: float = 0.9,
    sample_size: int = 400,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Smoothed ``quantile`` effective diameter of the largest component.

    Returns ``nan`` when the largest component has fewer than two nodes.
    """
    if not 0 < quantile <= 1:
        raise ValueError("quantile must be in (0, 1]")
    generator = make_rng(rng)
    members = largest_component_csr(graph)
    if members.size < 2:
        return float("nan")
    k = min(sample_size, members.size)
    sources = generator.choice(members, size=k, replace=False)
    # Pairs per hop distance (depth 1 first).  The component is connected
    # and has two or more nodes, so every source reaches some node and the
    # last entry is the largest distance reached.
    cumulative = np.cumsum(hop_counts_csr(graph, graph.positions_of(sources)), dtype=np.int64)
    total = cumulative[-1]
    target = quantile * total
    # Smallest integer g with cumulative(g) >= target, interpolated.
    g = int(np.searchsorted(cumulative, target) + 1)
    below = cumulative[g - 2] if g >= 2 else 0
    at = cumulative[g - 1]
    if at == below:
        return float(g)
    fraction = (target - below) / (at - below)
    return float(g - 1 + fraction)
