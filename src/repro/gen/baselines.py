"""Baseline generative graph models emitting the same event-stream format.

The paper positions its measurements against the classic generative models
(§1, §6): Barabási-Albert preferential attachment [5], uniform random
attachment, and the forest-fire model of [Leskovec et al. 2005].  These
baselines let the analyses in this library be contrasted against
known-dynamics graphs:

* :func:`barabasi_albert_stream` — pure PA; measured α(t) stays ≈ 1 and
  clustering is low;
* :func:`uniform_attachment_stream` — pure random; α(t) ≈ 0;
* :func:`forest_fire_stream` — recursive "burning" produces densification
  and heavy-tailed degrees with high clustering.

All three spread node arrivals uniformly over ``days`` so the time-based
analyses (inter-arrival, minimal age, growth) remain applicable, and all
emit validated :class:`~repro.graph.events.EventStream` objects.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.events import EventStream
from repro.util.rng import make_rng

__all__ = [
    "barabasi_albert_stream",
    "uniform_attachment_stream",
    "forest_fire_stream",
]

# Event records as EventStream.from_records takes them.
_Node = tuple[float, int]
_Edge = tuple[float, int, int]


def barabasi_albert_stream(
    n: int,
    m: int = 4,
    days: float = 100.0,
    seed: int | np.random.Generator | None = 0,
) -> EventStream:
    """Barabási-Albert growth: each arrival attaches to ``m`` nodes by PA.

    Degree-proportional sampling uses the endpoint-list trick (uniform
    draws from the list of all edge endpoints).  Raises
    :class:`ValueError` if ``n <= m``.
    """
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = make_rng(seed)
    nodes, edges = _seed_clique(m + 1, days, n)
    endpoints: list[int] = [e for _, u, v in edges for e in (u, v)]
    for node in range(m + 1, n):
        t = days * node / n
        nodes.append((t, node))
        chosen: set[int] = set()
        while len(chosen) < m:
            candidate = endpoints[int(rng.integers(len(endpoints)))]
            if candidate != node:
                chosen.add(candidate)
        for dest in sorted(chosen):
            edges.append((t, node, dest))
            endpoints.append(node)
            endpoints.append(dest)
    return _finalize(nodes, edges)


def uniform_attachment_stream(
    n: int,
    m: int = 4,
    days: float = 100.0,
    seed: int | np.random.Generator | None = 0,
) -> EventStream:
    """Uniform random attachment: each arrival links to ``m`` uniform nodes."""
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = make_rng(seed)
    nodes, edges = _seed_clique(m + 1, days, n)
    for node in range(m + 1, n):
        t = days * node / n
        nodes.append((t, node))
        targets = rng.choice(node, size=m, replace=False)
        for dest in sorted(int(d) for d in targets):
            edges.append((t, node, dest))
    return _finalize(nodes, edges)


def forest_fire_stream(
    n: int,
    forward_probability: float = 0.35,
    days: float = 100.0,
    seed: int | np.random.Generator | None = 0,
    max_burn: int = 500,
) -> EventStream:
    """Forest-fire model [Leskovec et al. 2005], undirected variant.

    Each arrival picks a uniform ambassador, links to it, then "burns"
    outward: from each burned node, a geometrically distributed number of
    its unburned neighbors (mean ``p/(1-p)``) are burned and linked.
    ``max_burn`` caps the fire so a single arrival cannot touch the whole
    graph.  Produces densification and heavy tails.
    """
    if not 0 <= forward_probability < 1:
        raise ValueError("forward_probability must be in [0, 1)")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = make_rng(seed)
    adjacency: dict[int, set[int]] = {0: set()}
    nodes: list[_Node] = [(0.0, 0)]
    edges: list[_Edge] = []
    p = forward_probability
    for node in range(1, n):
        t = days * node / n
        nodes.append((t, node))
        adjacency[node] = set()
        ambassador = int(rng.integers(node))
        burned = {node, ambassador}
        queue = deque([ambassador])
        links = [ambassador]
        while queue and len(links) < max_burn:
            current = queue.popleft()
            neighbors = [v for v in adjacency[current] if v not in burned]
            if not neighbors:
                continue
            # Geometric(1-p) - 1 has mean p/(1-p), the paper's formulation.
            count = min(len(neighbors), int(rng.geometric(1 - p)) - 1)
            if count <= 0:
                continue
            picks = rng.choice(len(neighbors), size=count, replace=False)
            for idx in picks:
                target = neighbors[int(idx)]
                burned.add(target)
                queue.append(target)
                links.append(target)
        for dest in links:
            adjacency[node].add(dest)
            adjacency[dest].add(node)
            edges.append((t, node, dest))
    return _finalize(nodes, edges)


def _seed_clique(size: int, days: float, n: int) -> tuple[list[_Node], list[_Edge]]:
    nodes = [(days * i / max(n, 1), i) for i in range(size)]
    last = nodes[-1][0]
    edges = [(last, i, j) for i in range(size) for j in range(i + 1, size)]
    return nodes, edges


def _finalize(nodes: list[_Node], edges: list[_Edge]) -> EventStream:
    stream = EventStream.from_records(nodes, edges)
    stream.validate()
    return stream
