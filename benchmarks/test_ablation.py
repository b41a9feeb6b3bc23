"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

These are not paper figures; they justify the generator's mechanism mix
and the tracking design:

* attachment-mixture ablation — measured α under pure PA, pure random, and
  the decaying mixture (the paper's §3.3 hypothesis);
* incremental-Louvain ablation — inter-snapshot community similarity with
  and without seeding the previous partition.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.community.louvain import louvain
from repro.community.tracking import jaccard
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.pa.alpha import alpha_series
from repro.pa.edge_probability import DestinationRule


@pytest.fixture(scope="module")
def ablation_config():
    return presets.tiny(days=50, target_nodes=900)


def _mean_alpha(config, seed=3):
    stream = generate_trace(config, seed=seed)
    series = alpha_series(
        stream, DestinationRule.HIGHER_DEGREE, checkpoint_every=max(500, stream.num_edges // 8)
    )
    return float(np.nanmean(series.alphas))


def test_ablation_attachment_mixture(benchmark, ablation_config):
    """Pure PA sustains high alpha; pure random collapses it; the decaying
    mixture sits in between — the paper's §3.3 model-class argument."""

    def run():
        pure_pa = replace(
            ablation_config, pa_start=1.0, pa_end=1.0, triadic_probability=0.0,
            spotlight_start=0.0, local_probability=0.0, local_decay=0.0,
        )
        pure_random = replace(
            ablation_config, pa_start=0.0, pa_end=0.0, triadic_probability=0.0,
            spotlight_start=0.0, local_probability=0.0, local_decay=0.0,
        )
        mixture = ablation_config
        return {
            "pure_pa": _mean_alpha(pure_pa),
            "pure_random": _mean_alpha(pure_random),
            "decaying_mixture": _mean_alpha(mixture),
        }

    alphas = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, value in alphas.items():
        print(f"  mean alpha [{name:<17s}] = {value:.3f}")
    assert alphas["pure_pa"] > alphas["decaying_mixture"] > alphas["pure_random"]
    assert alphas["pure_pa"] > 0.8
    assert alphas["pure_random"] < 0.6


def test_ablation_incremental_louvain(benchmark, ablation_config):
    """Seeding Louvain with the previous partition tracks communities more
    stably than independent runs (the paper's §4.1 design choice)."""
    stream = generate_trace(ablation_config, seed=5)
    replay = DynamicGraph(stream)
    g1 = replay.advance_to(35.0).graph
    g2 = replay.advance_to(40.0).graph

    def similarity(seeded: bool) -> float:
        base = louvain(g1, delta=0.04, seed=0)
        kwargs = {"seed_partition": base.partition} if seeded else {"seed": 999}
        after = louvain(g2, delta=0.04, **kwargs)
        groups_a = [m for m in _groups(base.partition) if len(m) >= 10]
        groups_b = [m for m in _groups(after.partition) if len(m) >= 10]
        if not groups_a or not groups_b:
            return 0.0
        return float(
            np.mean([max(jaccard(a, b) for b in groups_b) for a in groups_a])
        )

    def run():
        return {"seeded": similarity(True), "unseeded": similarity(False)}

    sims = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, value in sims.items():
        print(f"  avg best-match similarity [{name:<8s}] = {value:.3f}")
    assert sims["seeded"] >= sims["unseeded"] - 0.02


def _groups(partition):
    groups = {}
    for node, c in partition.items():
        groups.setdefault(c, set()).add(node)
    return list(groups.values())


def test_bench_generator_throughput(benchmark):
    """Raw generator throughput at test scale (events/second)."""
    cfg = presets.tiny(days=40, target_nodes=500)
    stream = benchmark(lambda: generate_trace(cfg, seed=1))
    assert stream.num_edges > 500
