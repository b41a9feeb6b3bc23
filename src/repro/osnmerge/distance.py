"""Cross-OSN distance after the merge (paper §5.2, Figure 9c).

For sampled days after the merge, sample users from each pre-merge OSN and
measure the shortest hop distance to *any* user of the opposite OSN,
ignoring post-merge users entirely (they are neither traversed nor counted
as targets).  The paper samples 1000 users per OSN per day and observes the
average dropping below 2 hops within ~47 days.

Each snapshot runs one multi-source BFS per side, from every user of the
target OSN (:func:`repro.kernels.traversal.distance_to_set_csr`), and reads
the sampled users' distances out of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.dynamic import DynamicGraph
from repro.graph.events import ORIGIN_5Q, ORIGIN_NEW, ORIGIN_XIAONEI, EventStream
from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import distance_to_set_csr
from repro.util.rng import make_rng

__all__ = ["CrossDistanceSeries", "cross_network_distance"]


@dataclass(frozen=True)
class CrossDistanceSeries:
    """Average hop distance between the two OSNs over days after the merge.

    ``xiaonei_to_5q[i]`` is the mean distance from sampled Xiaonei users to
    the nearest 5Q user at ``days_after_merge[i]`` (``nan`` when no sampled
    user could reach the other OSN).
    """

    days_after_merge: np.ndarray
    xiaonei_to_5q: np.ndarray
    fivq_to_xiaonei: np.ndarray
    unreachable_fraction: np.ndarray


def cross_network_distance(
    stream: EventStream,
    merge_day: float,
    sample_size: int = 1000,
    interval: float = 3.0,
    seed: int | np.random.Generator | None = 0,
) -> CrossDistanceSeries:
    """Measure cross-OSN distances every ``interval`` days after the merge."""
    rng = make_rng(seed)
    origins = stream.node_origins()
    xiaonei = np.array([n for n, o in origins.items() if o == ORIGIN_XIAONEI])
    fivq = np.array([n for n, o in origins.items() if o == ORIGIN_5Q])
    new_users = np.array([n for n, o in origins.items() if o == ORIGIN_NEW], dtype=np.int64)
    if xiaonei.size == 0 or fivq.size == 0:
        raise ValueError("stream lacks one of the pre-merge populations")
    replay = DynamicGraph(stream)
    # Start just after the import day so both populations are present.
    days: list[float] = []
    x_to_f: list[float] = []
    f_to_x: list[float] = []
    unreachable: list[float] = []
    for view in replay.snapshots(interval=interval, start=merge_day + 1.0):
        if view.time <= merge_day:
            continue
        csr = view.graph
        allowed = ~np.isin(csr.node_ids, new_users)
        to_fivq = distance_to_set_csr(csr, np.isin(csr.node_ids, fivq), allowed)
        to_xiaonei = distance_to_set_csr(csr, np.isin(csr.node_ids, xiaonei), allowed)
        x_mean, x_fail = _mean_distance(csr, xiaonei, to_fivq, sample_size, rng)
        f_mean, f_fail = _mean_distance(csr, fivq, to_xiaonei, sample_size, rng)
        days.append(view.time - merge_day)
        x_to_f.append(x_mean)
        f_to_x.append(f_mean)
        unreachable.append((x_fail + f_fail) / 2.0)
    return CrossDistanceSeries(
        days_after_merge=np.asarray(days),
        xiaonei_to_5q=np.asarray(x_to_f),
        fivq_to_xiaonei=np.asarray(f_to_x),
        unreachable_fraction=np.asarray(unreachable),
    )


def _mean_distance(
    csr: CSRGraph,
    sources: np.ndarray,
    distance: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean of ``distance`` over sampled present ``sources`` and the unreached share."""
    present = sources[np.isin(sources, csr.node_ids)]
    if present.size == 0:
        return float("nan"), 1.0
    k = min(sample_size, present.size)
    sample = rng.choice(present, size=k, replace=False)
    reached = distance[csr.positions_of(sample)]
    reached = reached[reached >= 0]
    mean = float(np.mean(reached)) if reached.size else float("nan")
    return mean, (k - reached.size) / k
