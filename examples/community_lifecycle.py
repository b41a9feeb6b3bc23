#!/usr/bin/env python3
"""Community lifecycle study: tracking, churn, and merge prediction (§4).

    python examples/community_lifecycle.py [--nodes 6000] [--seed 7]

Tracks communities across 3-day snapshots with incremental Louvain, prints
the event timeline (births / deaths / merges / splits), the lifetime
distribution, the strongest-tie merge rule, and — when the trace produced
enough merge events — trains the SVM merge predictor.
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from repro.community.merge_split import size_ratio_cdfs, strongest_tie_rate
from repro.community.stats import community_lifetimes
from repro.community.tracking import track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.ml.prediction import predict_merges


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--delta", type=float, default=0.04, help="Louvain stop threshold")
    args = parser.parse_args()

    config = presets.small(target_nodes=args.nodes)
    stream = generate_trace(config, seed=args.seed)
    print(f"Tracking communities over {stream.num_nodes} nodes "
          f"(3-day snapshots, delta={args.delta}) ...")
    tracker = track_stream(stream, interval=3.0, delta=args.delta, seed=args.seed)

    print(f"\n{len(tracker.snapshots)} snapshots tracked; per-snapshot summary (every 5th):")
    for snap in tracker.snapshots[::5]:
        print(f"  day {snap.time:6.1f}: {snap.num_communities:3d} communities, "
              f"Q={snap.modularity:.2f}, similarity={snap.avg_similarity:.2f}")

    events = Counter(e.kind for e in tracker.events)
    print(f"\nLifecycle events: {dict(events)}")

    lifetimes = community_lifetimes(tracker)
    if lifetimes.size:
        print(f"Observed community lifetimes: median={np.median(lifetimes):.1f}d, "
              f"max={lifetimes.max():.1f}d over {lifetimes.size} deaths")

    cdfs = size_ratio_cdfs(tracker)
    for kind, (xs, _) in cdfs.items():
        if xs.size:
            print(f"Size ratio of {kind}s: median={np.median(xs):.3f} over {xs.size} events "
                  f"(paper: merges tiny, splits balanced)")

    ties = strongest_tie_rate(tracker)
    if ties.with_tie_info:
        print(f"Strongest-tie merge rule: {ties.strongest_tie_hits}/{ties.with_tie_info} "
              f"hits ({100 * ties.hit_rate:.0f}%; paper: 99%)")

    try:
        outcome = predict_merges(tracker, folds=5, seed=args.seed)
        print(f"\nSVM merge prediction (5-fold CV over {outcome.n_test} samples, "
              f"{100 * outcome.positive_rate:.1f}% positives):")
        print(f"  merge accuracy    = {outcome.overall.merge_accuracy:.2f}  (paper: ~0.75)")
        print(f"  no-merge accuracy = {outcome.overall.no_merge_accuracy:.2f}  (paper: ~0.77)")
    except ValueError as exc:
        print(f"\nMerge predictor skipped: {exc} (increase --nodes for more events)")


if __name__ == "__main__":
    main()
