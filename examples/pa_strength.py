#!/usr/bin/env python3
"""Preferential-attachment strength over network growth (paper §3.2, Fig 3).

    python examples/pa_strength.py [--nodes 5000] [--seed 7]

Measures the edge probability pe(d), fits pe(d) ∝ d^α at checkpoints under
both destination rules (higher-degree / random endpoint), and prints the
α(t) decay plus its polynomial approximation — the full Figure 3 pipeline.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.gen import generate_trace
from repro.gen.config import presets
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = presets.small(target_nodes=args.nodes)
    stream = generate_trace(config, seed=args.seed)
    checkpoint = max(1000, stream.num_edges // 16)
    print(f"Trace: {stream.num_edges} edges; checkpoint every {checkpoint} edges\n")

    print("pe(d) fit quality at mid-growth (paper Fig 3a/3b):")
    for rule in (DestinationRule.HIGHER_DEGREE, DestinationRule.RANDOM):
        tracker = EdgeProbabilityTracker(rule=rule, mode="cumulative", seed=args.seed)
        mid = tracker.process(stream, checkpoint_every=checkpoint)[-1]
        print(f"  rule={rule.value:<13s} alpha={mid.alpha:.3f}  MSE={mid.mse:.3g}  "
              f"({mid.degrees.size} degree points)")

    print("\nalpha(t) over network growth (paper Fig 3c):")
    print(f"  {'edges':>9s}  {'alpha(higher)':>13s}  {'alpha(random)':>13s}  {'gap':>6s}")
    hi = alpha_series(
        stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=checkpoint, seed=args.seed
    )
    rd = alpha_series(stream, DestinationRule.RANDOM, checkpoint_every=checkpoint, seed=args.seed)
    for e, a_hi, a_rd in zip(hi.edge_counts, hi.alphas, rd.alphas):
        gap = a_hi - a_rd
        print(f"  {e:>9d}  {a_hi:>13.3f}  {a_rd:>13.3f}  {gap:>6.2f}")

    print(f"\n  peak alpha (higher-degree rule)  = {np.nanmax(hi.alphas):.3f}   (paper: ~1.25)")
    print(f"  final alpha (higher-degree rule) = {hi.alphas[-1]:.3f}   (paper: ~0.65)")
    mean_gap = np.nanmean(hi.alphas - rd.alphas)
    print(f"  mean rule gap                    = {mean_gap:.3f}   (paper: ~0.2)")
    coeffs = hi.polynomial_fit(degree=5)
    pretty = " + ".join(f"{c:.3g}·x^{5 - i}" for i, c in enumerate(coeffs[:-1]))
    print(f"  poly5 fit: alpha(x) ≈ {pretty} + {coeffs[-1]:.3g}  (x = normalized edge count)")


if __name__ == "__main__":
    main()
