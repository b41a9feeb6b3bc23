"""Minimal-age composition of daily edge creation (Figure 2c).

For every edge the *minimal age* is the age of its younger endpoint at
creation time.  The paper stacks the daily fractions of edges with minimal
age <= 1, <= 10 and <= 30 days, showing that new-node-driven edge creation
dominates early but steadily gives way to edges between mature users.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.graph.events import EventStream

__all__ = ["minimal_age_fractions", "PAPER_AGE_THRESHOLDS"]

#: The thresholds used in the paper's Figure 2(c), in days.
PAPER_AGE_THRESHOLDS: tuple[float, ...] = (1.0, 10.0, 30.0)


def minimal_age_fractions(
    stream: EventStream,
    thresholds: Sequence[float] = PAPER_AGE_THRESHOLDS,
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Per-day fraction of new edges whose minimal age is below each threshold.

    Returns ``(days, {threshold: fractions})``; days with no edge creation
    hold ``nan``.  Thresholds must be ascending (stacked percentages).
    """
    thresholds = tuple(thresholds)
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be ascending")
    n_days = int(math.floor(stream.end_time)) + 1
    time = stream.edges.time
    born = stream.nodes.time[stream.node_edge_columns().ends]
    min_age = time - np.maximum(born[:, 0], born[:, 1])
    day = time.astype(np.int64)
    totals = np.bincount(day, minlength=n_days).astype(np.float64)
    below = {
        thr: np.bincount(day[min_age <= thr], minlength=n_days).astype(np.float64)
        for thr in thresholds
    }
    days = np.arange(n_days)
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = {
            thr: np.where(totals > 0, counts / totals, np.nan)
            for thr, counts in below.items()
        }
    return days, fractions
