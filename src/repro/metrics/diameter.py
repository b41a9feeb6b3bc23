"""Sampled effective diameter (90th-percentile hop distance).

The paper's related work ([Leskovec et al. 2005], which motivates its
densification reading of Figure 1) characterizes graphs over time by the
*effective diameter*: the smallest ``g`` such that at least 90% of
connected node pairs are within ``g`` hops.  Computed here by BFS from a
node sample of the largest component, with linear interpolation between
integer hop counts (the standard smoothed definition).
"""

from __future__ import annotations

import numpy as np

from repro.graph.components import bfs_distances, largest_component
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.util.rng import make_rng

__all__ = ["effective_diameter_sampled"]


def effective_diameter_sampled(
    graph: GraphSnapshot,
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
    component = largest_component(CSRGraph.from_snapshot(graph))
    if len(component) < 2:
        return float("nan")
    members = np.fromiter(component, dtype=np.int64, count=len(component))
    k = min(sample_size, members.size)
    sources = generator.choice(members, size=k, replace=False)
    # Histogram of pairwise distances from the sampled sources.
    counts: dict[int, int] = {}
    for source in sources:
        for node, dist in bfs_distances(graph, int(source)).items():
            if node != source:
                counts[dist] = counts.get(dist, 0) + 1
    if not counts:
        return float("nan")
    max_d = max(counts)
    cumulative = np.cumsum([counts.get(d, 0) for d in range(1, max_d + 1)], dtype=np.int64)
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
