"""Tests for the trace generator (`repro.gen.fast`).

Two contracts are pinned here:

* **Determinism** — same config + seed gives a byte-identical content
  digest, in memory and through the store writer.
* **Distribution fidelity** — the statistics the paper measures (degree
  tail, clustering, arrival burstiness, post-merge edge-class ratios) stay
  near the values the retired per-event reference engine measured on the
  same preset and seed (``_REFERENCE``), within the tolerances that used to
  gate the two engines against each other.
"""

import numpy as np
import pytest

from repro.gen import presets
from repro.gen.fast import FastGenerator, generate_store, generate_trace
from repro.graph.events import ORIGIN_5Q, ORIGIN_NEW, ORIGIN_XIAONEI
from repro.metrics.clustering import average_clustering
from repro.metrics.degree import average_degree, fit_degree_tail
from repro.osnmerge.edge_rates import edges_per_day_by_type
from repro.store.reader import EventStore
from tests.oracles import csr_of

# presets.small(), seed 11, as measured by the per-event reference engine.
_REFERENCE = {
    "nodes": 8768,
    "average_degree": 15.472,
    "tail_exponent": 2.726,
    "clustering": 0.1449,
    "burst_cv": 3.462,
    "internal_to_external": 3.536,
    "new_to_internal": 2.460,
}


@pytest.fixture(scope="module")
def small_trace():
    cfg = presets.small()
    return cfg, generate_trace(cfg, seed=11)


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def test_fast_stream_valid_and_deterministic():
    cfg = presets.tiny_merge()
    first = generate_trace(cfg, seed=5)
    second = generate_trace(cfg, seed=5)
    assert first.content_digest() == second.content_digest()
    origins = set(first.nodes.origin_labels())
    assert origins == {ORIGIN_XIAONEI, ORIGIN_5Q, ORIGIN_NEW}
    # A different seed must actually change the trace.
    assert generate_trace(cfg, seed=6).content_digest() != first.content_digest()


def test_store_digest_matches_stream_digest(tmp_path):
    cfg = presets.tiny_merge()
    manifest = generate_store(cfg, tmp_path / "fast.store", seed=5)
    stream = generate_trace(cfg, seed=5)
    assert manifest.content_digest == stream.content_digest()
    store = EventStore(tmp_path / "fast.store")
    store.verify()
    decoded = store.to_stream()
    decoded.validate()
    assert decoded.num_nodes == stream.num_nodes
    assert decoded.num_edges == stream.num_edges


def test_generate_to_store_streams_without_stream_build(tmp_path):
    manifest = FastGenerator(presets.tiny(), seed=3).generate_to_store(
        tmp_path / "tiny.store", chunk_events=512
    )
    # Chunked output: ~5k edges at 512 events per chunk means many chunks.
    assert len(manifest.edge_chunks) >= 8
    assert sum(c.count for c in manifest.node_chunks) > 0


def test_engines_distribution_equivalent(small_trace):
    _, stream = small_trace
    ref = _REFERENCE
    csr = csr_of(zip(stream.edges.u.tolist(), stream.edges.v.tolist(), strict=True))

    # Population and density.
    assert _relative_gap(stream.num_nodes, ref["nodes"]) < 0.05
    assert _relative_gap(average_degree(csr), ref["average_degree"]) < 0.15

    # Degree-tail exponent (paper Fig 1c regime).
    assert abs(fit_degree_tail(csr).exponent - ref["tail_exponent"]) < 0.35

    # Clustering (paper Fig 1e regime) — triadic closure must survive
    # vectorization, not collapse toward a random graph's ~1e-3.
    clustering = average_clustering(csr, sample_size=2000, rng=3)
    assert _relative_gap(clustering, ref["clustering"]) < 0.30
    assert clustering > 0.05

    # Arrival burstiness: coefficient of variation of node inter-arrivals
    # (batched sampling must not smooth the seasonal/Poisson gaps).
    gaps = np.diff(stream.nodes.time)
    gaps = gaps[gaps > 0]
    assert _relative_gap(float(gaps.std() / gaps.mean()), ref["burst_cv"]) < 0.25


def test_post_merge_edge_ratios_equivalent(small_trace):
    cfg, stream = small_trace
    rates = edges_per_day_by_type(stream, cfg.merge.merge_day)
    window = slice(1, 31)
    internal = float(rates.internal_total[window].sum())
    external = float(rates.external[window].sum())
    new = float(rates.new_total[window].sum())
    internal_to_external = internal / max(1.0, external)
    # Internal edges dominate external ones post-merge (Fig 8c), by a
    # factor near the reference engine's.
    assert internal_to_external > 1.0
    assert _relative_gap(internal_to_external, _REFERENCE["internal_to_external"]) < 0.40
    assert _relative_gap(new / max(1.0, internal), _REFERENCE["new_to_internal"]) < 0.40


def test_cli_generate_fast_round_trip(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cli.store"
    assert main([
        "generate", "--preset", "tiny", "--seed", "3", "--out", str(out),
    ]) == 0
    assert "(store)" in capsys.readouterr().out
    store = EventStore(out)
    store.verify()
    first_digest = store.manifest.content_digest
    out2 = tmp_path / "cli2.store"
    assert main([
        "generate", "--preset", "tiny", "--seed", "3", "--out", str(out2),
    ]) == 0
    assert EventStore(out2).manifest.content_digest == first_digest


def test_huge_preset_shape():
    cfg = presets.huge()
    assert cfg.target_nodes >= 1_000_000
    assert cfg.merge is None
    assert cfg.seasonal_dips
    # Budget arithmetic must leave room for >= 10M edges.
    assert cfg.target_nodes * cfg.mean_budget >= 10_000_000
