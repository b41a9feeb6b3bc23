#!/usr/bin/env python3
"""Contrast the Renren-like trace with classic generative models.

    python examples/model_comparison.py [--nodes 2500] [--seed 3]

The paper argues (§1, §3.3) that a single-process generative model cannot
capture the observed multi-scale dynamics.  This example pushes four
traces — the library's decaying-mixture generator, Barabási-Albert,
uniform attachment, and forest fire — through identical analyses and
prints their signatures side by side, including the estimated PA mixture
weight (the §3.3 hypothesis quantified).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.gen import generate_trace
from repro.gen.baselines import (
    barabasi_albert_stream,
    forest_fire_stream,
    uniform_attachment_stream,
)
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.diameter import effective_diameter_sampled
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule
from repro.pa.mixture import mixture_series


def signatures(stream, seed: int) -> dict[str, float]:
    graph = DynamicGraph(stream).final()
    checkpoint = max(500, stream.num_edges // 8)
    alphas = alpha_series(
        stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=checkpoint, seed=seed
    ).alphas
    weights = mixture_series(
        stream, rule=DestinationRule.HIGHER_DEGREE, checkpoint_every=checkpoint, seed=seed
    ).weights
    return {
        "nodes": stream.num_nodes,
        "edges": stream.num_edges,
        "alpha": float(np.nanmean(alphas[1:])) if alphas.size > 1 else float("nan"),
        "alpha_drift": float(alphas[1] - alphas[-1]) if alphas.size > 2 else float("nan"),
        "pa_weight": float(np.nanmean(weights[1:])) if weights.size > 1 else float("nan"),
        "clustering": average_clustering(graph, 400, rng=0),
        "assortativity": degree_assortativity(graph),
        "eff_diameter": effective_diameter_sampled(graph, sample_size=200, rng=0),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2500)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    models = {
        "renren-like mixture": generate_trace(
            presets.tiny(days=50, target_nodes=max(400, args.nodes // 2)), seed=args.seed
        ),
        "barabasi-albert": barabasi_albert_stream(args.nodes, m=4, seed=args.seed),
        "uniform attachment": uniform_attachment_stream(args.nodes, m=4, seed=args.seed),
        "forest fire": forest_fire_stream(args.nodes, forward_probability=0.35, seed=args.seed),
    }

    columns = ("nodes", "edges", "alpha", "alpha_drift", "pa_weight", "clustering",
               "assortativity", "eff_diameter")
    header = f"{'model':<22s}" + "".join(f"{c:>14s}" for c in columns)
    print(header)
    print("-" * len(header))
    for name, stream in models.items():
        sig = signatures(stream, args.seed)
        row = f"{name:<22s}"
        for c in columns:
            value = sig[c]
            row += f"{value:14.3f}" if isinstance(value, float) else f"{value:14d}"
        print(row)

    print(
        "\nReading: only the mixture generator combines decaying preferential\n"
        "attachment (alpha_drift > 0, pa_weight < 1) with strong clustering —\n"
        "the multi-scale signature the paper measures on Renren."
    )


if __name__ == "__main__":
    main()
