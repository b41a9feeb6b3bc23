"""Per-day post-merge edge counts by class and their ratios (Figs 8c, 9a, 9b).

All series are indexed by integer days after the merge.  Per-OSN ratios
follow the paper's accounting: internal edges belong to one OSN, while
every external edge counts for *both* OSNs (which is why the less active
5Q population's internal/external ratio sinks below 1 even though both
populations prefer internal edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.events import ORIGIN_5Q, ORIGIN_XIAONEI, EventStream
from repro.osnmerge.classify import EXTERNAL, INTERNAL, NEW, edge_class_codes

__all__ = [
    "EdgeRateSeries",
    "edges_per_day_by_type",
    "internal_external_ratio",
    "new_external_ratio",
]


@dataclass(frozen=True)
class EdgeRateSeries:
    """Daily post-merge edge counts, total and split by pre-merge OSN.

    ``internal[origin]`` counts edges inside that OSN; ``new[origin]``
    counts edges linking that OSN to post-merge users; ``external`` is
    shared.  ``*_total`` aggregate across origins (plus new↔new edges for
    ``new_total``).
    """

    days: np.ndarray
    internal: dict[str, np.ndarray]
    new: dict[str, np.ndarray]
    external: np.ndarray
    internal_total: np.ndarray
    new_total: np.ndarray


def edges_per_day_by_type(stream: EventStream, merge_day: float) -> EdgeRateSeries:
    """Count organic post-merge edges per day and class (Figure 8c)."""
    horizon = int(math.floor(stream.end_time - merge_day))
    if horizon < 0:
        raise ValueError("merge_day is past the end of the stream")
    days = np.arange(horizon + 1)
    edges = stream.edges
    day = (edges.time - merge_day).astype(np.int64)
    kept = (edges.time > merge_day + 1.0) & (day <= horizon)
    kind = edge_class_codes(stream)
    ends = stream.node_edge_columns().ends

    def per_day(rows: np.ndarray) -> np.ndarray:
        return np.bincount(day[kept & rows], minlength=horizon + 1).astype(np.float64)

    internal, new = {}, {}
    for origin in (ORIGIN_XIAONEI, ORIGIN_5Q):
        from_origin = stream.nodes.origin_is(origin)[ends]
        internal[origin] = per_day((kind == INTERNAL) & from_origin[:, 0])
        new[origin] = per_day((kind == NEW) & from_origin.any(axis=1))
    external = per_day(kind == EXTERNAL)
    new_total = per_day(kind == NEW)
    internal_total = internal[ORIGIN_XIAONEI] + internal[ORIGIN_5Q]
    return EdgeRateSeries(
        days=days,
        internal=internal,
        new=new,
        external=external,
        internal_total=internal_total,
        new_total=new_total,
    )


def internal_external_ratio(
    rates: EdgeRateSeries,
    window: int = 7,
) -> dict[str, np.ndarray]:
    """Figure 9(a): rolling internal/external ratio for each OSN and both.

    External edges count for both OSNs.  Days whose smoothed external
    count is zero yield ``nan``.
    """
    ext = _rolling_sum(rates.external, window)
    out: dict[str, np.ndarray] = {}
    for origin, series in rates.internal.items():
        out[origin] = _safe_ratio(_rolling_sum(series, window), ext)
    out["both"] = _safe_ratio(_rolling_sum(rates.internal_total, window), ext)
    return out


def new_external_ratio(
    rates: EdgeRateSeries,
    window: int = 7,
) -> dict[str, np.ndarray]:
    """Figure 9(b): rolling (edges to new users)/external ratio per OSN."""
    ext = _rolling_sum(rates.external, window)
    out: dict[str, np.ndarray] = {}
    for origin, series in rates.new.items():
        out[origin] = _safe_ratio(_rolling_sum(series, window), ext)
    both = rates.new[ORIGIN_XIAONEI] + rates.new[ORIGIN_5Q]
    out["both"] = _safe_ratio(_rolling_sum(both, window), ext)
    return out


def _rolling_sum(values: np.ndarray, window: int) -> np.ndarray:
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1:
        return values.astype(float)
    kernel = np.ones(window)
    return np.convolve(values, kernel, mode="same")


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, np.nan)
