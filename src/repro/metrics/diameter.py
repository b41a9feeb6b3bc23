"""Sampled effective diameter (90th-percentile hop distance).

The paper's related work ([Leskovec et al. 2005], which motivates its
densification reading of Figure 1) characterizes graphs over time by the
*effective diameter*: the smallest ``g`` such that at least 90% of
connected node pairs are within ``g`` hops.  Computed here by BFS from a
node sample of the largest component, with linear interpolation between
integer hop counts (the standard smoothed definition).

Sources are drawn from the sorted largest-component pool, the convention
of :mod:`repro.metrics.paths`, so the sample depends on the node set
alone.  Each source's hop counts come from
:func:`~repro.kernels.traversal.distance_to_set_csr` with the source as
the only target: hop distance is symmetric.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import distance_to_set_csr, largest_component_csr
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
    # Histogram of pairwise distances from the sampled sources.
    n = graph.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    one_hot = np.zeros(n, dtype=bool)
    everywhere = np.ones(n, dtype=bool)
    for source in graph.positions_of(sources).tolist():
        one_hot[source] = True
        distance = distance_to_set_csr(graph, one_hot, everywhere)
        one_hot[source] = False
        counts += np.bincount(distance[distance > 0], minlength=n)
    # The component is connected and has two or more nodes, so every
    # source reaches some node and ``counts`` has a nonzero entry.
    max_d = int(np.flatnonzero(counts)[-1])
    cumulative = np.cumsum(counts[1 : max_d + 1], dtype=np.int64)
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
