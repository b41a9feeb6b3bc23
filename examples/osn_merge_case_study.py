#!/usr/bin/env python3
"""Case study of the Xiaonei/5Q network merge (paper §5, Figures 8-9).

    python examples/osn_merge_case_study.py [--nodes 10000] [--seed 7]

Simulates two independently grown OSNs merged in a single day, then walks
through the paper's §5 pipeline: duplicate-account estimation, active-user
decay, edge-type dynamics, and the collapse of the cross-network distance.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.events import ORIGIN_5Q, ORIGIN_XIAONEI
from repro.osnmerge.activity import (
    active_users_over_time,
    activity_threshold,
    duplicate_account_estimate,
)
from repro.osnmerge.distance import cross_network_distance
from repro.osnmerge.edge_rates import (
    edges_per_day_by_type,
    internal_external_ratio,
    new_external_ratio,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = presets.merge_study(target_nodes=args.nodes)
    merge_day = float(int(config.merge.merge_day))
    stream = generate_trace(config, seed=args.seed)
    origins = stream.node_origins()
    n_xi = sum(1 for o in origins.values() if o == ORIGIN_XIAONEI)
    n_fq = sum(1 for o in origins.values() if o == ORIGIN_5Q)
    print(f"Merged networks on day {merge_day:g}: Xiaonei={n_xi} users, 5Q={n_fq} users "
          f"(paper: 624K vs 670K)\n")

    threshold = min(activity_threshold(stream), (stream.end_time - merge_day) / 4)
    print(f"Activity threshold (99th-pct mean inter-arrival): {threshold:.1f} days "
          f"(paper: 94 days at full scale)")

    for origin, label, paper in ((ORIGIN_XIAONEI, "Xiaonei", "11%"), (ORIGIN_5Q, "5Q", "28%")):
        series = active_users_over_time(stream, merge_day, origin, threshold)
        dup = duplicate_account_estimate(series)
        active = series.percent_active["all"]
        print(f"  {label:<8s} immediately inactive = {100 * dup:4.1f}%  (paper: {paper}); "
              f"active {active[0]:.0f}% -> {active[-1]:.0f}% over {series.days[-1]} days")

    print("\nPost-merge edge dynamics:")
    rates = edges_per_day_by_type(stream, merge_day)
    ie = internal_external_ratio(rates)
    ne = new_external_ratio(rates)
    print(f"  totals: internal={int(rates.internal_total.sum())}, "
          f"external={int(rates.external.sum())}, to-new={int(rates.new_total.sum())}")
    print(f"  internal/external ratio: Xiaonei={np.nanmean(ie[ORIGIN_XIAONEI][1:]):.2f}, "
          f"5Q={np.nanmean(ie[ORIGIN_5Q][1:]):.2f}, both={np.nanmean(ie['both'][1:]):.2f} "
          f"(paper: Xiaonei >1, 5Q <1 after day 16)")
    xi_hits = np.nan_to_num(ne[ORIGIN_XIAONEI], nan=-1) >= 1
    fq_hits = np.nan_to_num(ne[ORIGIN_5Q], nan=-1) >= 1
    tip_xi = np.nanmin(np.nonzero(xi_hits)[0]) if np.any(xi_hits) else None
    tip_fq = np.nanmin(np.nonzero(fq_hits)[0]) if np.any(fq_hits) else None
    print(f"  new/external tips >= 1: Xiaonei day {tip_xi}, 5Q day {tip_fq} "
          f"(paper: day 5 vs day 32)")

    print("\nCross-network distance (new users excluded, paper Fig 9c):")
    distances = cross_network_distance(
        stream, merge_day, sample_size=200, interval=4.0, seed=args.seed
    )
    stride = max(1, distances.days_after_merge.size // 8)
    for i in range(0, distances.days_after_merge.size, stride):
        d = distances.days_after_merge[i]
        print(f"  day {d:5.1f}: Xiaonei->5Q = {distances.xiaonei_to_5q[i]:.2f} hops, "
              f"5Q->Xiaonei = {distances.fivq_to_xiaonei[i]:.2f} hops")
    both = np.maximum(distances.xiaonei_to_5q, distances.fivq_to_xiaonei)
    below = np.nonzero(np.nan_to_num(both, nan=np.inf) < 2.0)[0]
    if below.size:
        print(f"  both below 2 hops from day {distances.days_after_merge[below[0]]:.0f} "
              f"(paper: within ~47 days) — the two OSNs are one network.")


if __name__ == "__main__":
    main()
