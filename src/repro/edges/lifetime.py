"""Edge creation over each user's normalized lifetime (Figure 2b).

A user's lifetime runs from their join time to their last edge creation
(§4.4's definition).  For each qualifying user the edge times are
normalized into [0, 1] and histogrammed; the Figure 2(b) curve is the mean
histogram across users, showing the early-life burst of friendship
building.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream

__all__ = ["NodeLifetime", "node_lifetimes", "edge_creation_over_lifetime"]


@dataclass(frozen=True)
class NodeLifetime:
    """Join time, last-edge time, and derived lifetime of one node."""

    node: int
    joined: float
    last_edge: float
    degree: int

    @property
    def lifetime(self) -> float:
        """Days from joining until the last edge creation."""
        return self.last_edge - self.joined


def node_lifetimes(stream: EventStream) -> dict[int, NodeLifetime]:
    """Lifetime records for all nodes that created at least one edge."""
    columns = stream.node_edge_columns()
    last = columns.time[columns.indptr[1:] - 1]
    return {
        node: NodeLifetime(node=node, joined=joined, last_edge=last_edge, degree=degree)
        for node, joined, last_edge, degree in zip(
            columns.node.tolist(),
            columns.born.tolist(),
            last.tolist(),
            columns.degree().tolist(),
            strict=True,
        )
    }


def edge_creation_over_lifetime(
    stream: EventStream,
    bins: int = 10,
    min_history_days: float = 30.0,
    min_degree: int = 20,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean fraction of a user's edges created per normalized-lifetime bin.

    Mirrors the paper's outlier filter: only nodes with at least
    ``min_history_days`` of history and degree >= ``min_degree`` count.
    Returns ``(bin_centers, mean_fractions, n_users)``; the fractions sum
    to 1 across bins.  Each user's histogram follows ``np.histogram``'s
    uniform-bin rule over ``[0, 1]`` exactly, and the mean is taken over
    the users' histograms stacked in node-row order.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    columns = stream.node_edge_columns()
    degree = columns.degree()
    last = columns.time[columns.indptr[1:] - 1]
    span = last - columns.born
    keep = (stream.end_time - columns.born >= min_history_days) & (degree >= min_degree)
    keep &= span > 0
    centers = (np.arange(bins) + 0.5) / bins
    users = np.flatnonzero(keep)
    if not users.size:
        return centers, np.zeros(bins), 0
    rows = columns.rows()
    entries = np.flatnonzero(keep[rows])
    row = rows[entries]
    normalized = (columns.time[entries] - columns.born[row]) / span[row]
    index = _uniform_bin_index(np.clip(normalized, 0.0, 1.0), bins)
    user = np.cumsum(keep, dtype=np.int64) - 1
    counts = np.bincount(user[row] * bins + index, minlength=users.size * bins)
    fractions = counts.reshape(users.size, bins) / degree[users][:, None]
    return centers, np.mean(fractions, axis=0), int(users.size)


def _uniform_bin_index(values: np.ndarray, bins: int) -> np.ndarray:
    """Bin of each value in ``[0, 1]`` under ``np.histogram(range=(0, 1))``.

    Same arithmetic as numpy's uniform-bin path (its shift by 0 and
    division by 1 are exact): scale and truncate, put 1.0 in the last bin,
    then correct the index by one against the ``linspace`` edges where the
    scaled value rounded across one.
    """
    edges = np.linspace(0.0, 1.0, bins + 1)
    index = (values * bins).astype(np.intp)
    index[index == bins] -= 1
    index[values < edges[index]] -= 1
    index[(values >= edges[index + 1]) & (index != bins - 1)] += 1
    return index
