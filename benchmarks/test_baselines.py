"""Benchmark: the paper's dynamics signatures vs classic generative models.

Not a paper figure — a model-comparison harness supporting the paper's §1
claim that single-process generative models (pure PA, uniform attachment,
forest fire) cannot reproduce the multi-scale dynamics Renren exhibits.
Each model's trace is pushed through the same analyses as the synthetic
Renren trace; the rows contrast their signatures.
"""

import numpy as np

from repro.gen import generate_trace
from repro.gen.baselines import (
    barabasi_albert_stream,
    forest_fire_stream,
    uniform_attachment_stream,
)
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.metrics.clustering import average_clustering
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule
from repro.pa.mixture import mixture_series

_N = 2500


def _signatures(stream):
    graph = DynamicGraph(stream).final()
    checkpoint = max(500, stream.num_edges // 6)
    alphas = alpha_series(
        stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=checkpoint
    ).alphas
    weights = mixture_series(
        stream, rule=DestinationRule.HIGHER_DEGREE, checkpoint_every=checkpoint
    ).weights
    return {
        "alpha_mean": float(np.nanmean(alphas[1:])) if alphas.size > 1 else float("nan"),
        "pa_weight_mean": float(np.nanmean(weights[1:])) if weights.size > 1 else float("nan"),
        "clustering": average_clustering(graph, 400, rng=0),
    }


def test_baseline_signature_comparison(benchmark):
    def run():
        return {
            "renren_like": _signatures(
                generate_trace(presets.tiny(days=50, target_nodes=1200), seed=3)
            ),
            "barabasi_albert": _signatures(barabasi_albert_stream(_N, m=4, seed=3)),
            "uniform": _signatures(uniform_attachment_stream(_N, m=4, seed=3)),
            "forest_fire": _signatures(forest_fire_stream(_N, forward_probability=0.35, seed=3)),
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  {'model':<16s} {'alpha':>7s} {'pa_w':>6s} {'clust':>7s}")
    for model, sig in rows.items():
        print(f"  {model:<16s} {sig['alpha_mean']:7.2f} {sig['pa_weight_mean']:6.2f} "
              f"{sig['clustering']:7.3f}")
    # Pure PA: alpha ~ 1 but no clustering.
    assert rows["barabasi_albert"]["alpha_mean"] > 0.75
    assert rows["barabasi_albert"]["clustering"] < 0.1
    # Uniform: no preferential attachment at all.
    assert rows["uniform"]["pa_weight_mean"] < 0.3
    # Forest fire: clustering without the Renren-like mixture's PA decay.
    assert rows["forest_fire"]["clustering"] > 0.15
    # The Renren-like trace combines moderate-to-high alpha AND clustering —
    # the multi-scale signature none of the single-process models shows.
    renren = rows["renren_like"]
    assert renren["alpha_mean"] > 0.6
    assert renren["clustering"] > 0.12
