"""Parity harness for the delta engine (RPL005 manifest).

The incremental engine (:mod:`repro.kernels.delta`) is a second
implementation of the runtime's metric suite.  Its contract, pinned here
across ~30 generated replays (plain and merge traces, several seeds,
compaction thresholds from pathological to never-compacts):

* degree distribution, average degree, average clustering (sampled and
  full), and assortativity are **bit-identical** to the batch kernels at
  every snapshot — including across compaction boundaries and across a
  pickled checkpoint/resume cycle;
* :meth:`DeltaCSRGraph.to_csr` reproduces the batch
  :meth:`CSRGraph.from_snapshot` arrays exactly;
* the runtime timeseries on the delta engine equals the csr run
  bit-for-bit, serially and with a process pool;
* the runtime picks the engine from the replay's shape
  (:func:`repro.runtime.parallel.select_engine`).
"""

import functools
import math
import pickle

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.clustering import average_clustering_csr
from repro.kernels.csr import CSRGraph
from repro.kernels.delta import DeltaCSRGraph, DeltaMetricEngine
from repro.metrics.degree import average_degree, degree_distribution
from repro.runtime import parallel
from repro.runtime.api import compute_timeseries
from repro.runtime.parallel import DELTA_MIN_SNAPSHOTS, evaluate_timeseries, select_engine
from repro.runtime.spec import MetricSpec

# -- replay corpus ---------------------------------------------------------
#
# 2 trace shapes x 5 seeds x 3 compaction thresholds = 30 replays.
# compact_min=8 forces a compaction every few events (boundary churn),
# 64 compacts a handful of times, 4096 never compacts at this scale
# (pure log-overlay path).

_COMPACT_MINS = (8, 64, 4096)
_SEEDS = (0, 1, 2, 3, 4)
CASES = [
    (kind, seed, cmin)
    for kind in ("tiny", "tiny_merge")
    for seed in _SEEDS
    for cmin in _COMPACT_MINS
]
CASE_IDS = [f"{kind}-s{seed}-c{cmin}" for kind, seed, cmin in CASES]

_INTERVALS = {"tiny": 6.0, "tiny_merge": 8.0}


@functools.lru_cache(maxsize=None)
def _stream(kind: str, seed: int) -> EventStream:
    if kind == "tiny":
        cfg = presets.tiny(days=45.0, target_nodes=420)
    else:
        cfg = presets.tiny_merge(days=60.0, target_nodes=650)
    return generate_trace(cfg, seed=seed)


def _windows(kind: str, seed: int):
    """Non-empty snapshot views of the replay, with grid indices."""
    replay = DynamicGraph(_stream(kind, seed))
    out = []
    for index, view in enumerate(replay.snapshots(interval=_INTERVALS[kind])):
        if view.graph.num_nodes:
            out.append((index, view.graph.copy(), view.new_nodes, view.new_edges))
    return out


def _feq(a: float, b: float) -> bool:
    """Exact float equality with nan == nan."""
    return (math.isnan(a) and math.isnan(b)) or a == b


def _assert_engine_matches_batch(
    engine: DeltaMetricEngine, graph: GraphSnapshot, index: int
) -> None:
    """Every engine metric must equal its batch twin bit-for-bit."""
    assert engine.average_degree() == average_degree(graph)
    assert engine.degree_distribution() == degree_distribution(graph)
    csr = CSRGraph.from_snapshot(graph)
    sample = min(40, max(1, graph.num_nodes // 3))
    got = engine.average_clustering(sample, np.random.default_rng((77, index)))
    want = average_clustering_csr(csr, sample, np.random.default_rng((77, index)))
    assert _feq(got, want)
    assert _feq(engine.average_clustering(None, None), average_clustering_csr(csr, None, None))
    assert _feq(engine.assortativity(), degree_assortativity_csr(csr))


# -- engine metric parity (incl. compaction boundaries + checkpoint) -------


@pytest.mark.parametrize(("kind", "seed", "cmin"), CASES, ids=CASE_IDS)
def test_engine_metrics_bit_identical(kind: str, seed: int, cmin: int) -> None:
    windows = _windows(kind, seed)
    engine = DeltaMetricEngine(graph=DeltaCSRGraph(compact_min=cmin))
    mid = len(windows) // 2
    frozen = None
    for step, (index, graph, new_nodes, new_edges) in enumerate(windows):
        engine.apply_view(new_nodes, new_edges)
        _assert_engine_matches_batch(engine, graph, index)
        if step == mid:
            frozen = pickle.dumps(engine.state())
    if cmin == min(_COMPACT_MINS):
        assert engine.graph.compactions > 0  # the boundary path really ran
    # Checkpoint/resume: an engine revived from the mid-replay pickle and
    # fed the remaining windows must land bit-identical to the continuous
    # run — metrics *and* frozen CSR arrays.
    assert frozen is not None
    resumed = DeltaMetricEngine.from_state(pickle.loads(frozen))
    for index, graph, new_nodes, new_edges in windows[mid + 1 :]:
        resumed.apply_view(new_nodes, new_edges)
    final_index, final_graph, _, _ = windows[-1]
    _assert_engine_matches_batch(resumed, final_graph, final_index)
    a, b = engine.to_csr(), resumed.to_csr()
    assert np.array_equal(a.node_ids, b.node_ids)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.num_edges == b.num_edges


@pytest.mark.parametrize(("kind", "seed", "cmin"), CASES, ids=CASE_IDS)
def test_delta_csr_matches_batch_build(kind: str, seed: int, cmin: int) -> None:
    """to_csr() == CSRGraph.from_snapshot, mid-replay and at the end."""
    windows = _windows(kind, seed)
    delta = DeltaCSRGraph(compact_min=cmin)
    checkpoints = {len(windows) // 2, len(windows) - 1}
    for step, (_, graph, new_nodes, new_edges) in enumerate(windows):
        for node in new_nodes:
            delta.add_node(node)
        for u, v in new_edges:
            delta.add_edge(u, v)
        if step in checkpoints:
            got, want = delta.to_csr(), CSRGraph.from_snapshot(graph)
            assert np.array_equal(got.node_ids, want.node_ids)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.num_edges == want.num_edges


# -- runtime timeseries ----------------------------------------------------


def _force_engine(monkeypatch, name: str) -> None:
    """Substitute the runtime's engine selector with a constant choice."""
    monkeypatch.setattr(parallel, "select_engine", lambda spec, snapshots: name)


@pytest.mark.parametrize("kind", ["tiny", "tiny_merge"])
def test_timeseries_delta_bit_identical(kind: str, monkeypatch) -> None:
    """csr == delta(serial) == delta(workers=2), bit-for-bit."""
    stream = _stream(kind, 0)
    interval = _INTERVALS[kind]
    spec = MetricSpec(path_sample=60, clustering_sample=80, seed=3)
    _force_engine(monkeypatch, "csr")
    ts_csr = evaluate_timeseries(stream, spec, interval=interval)
    _force_engine(monkeypatch, "delta")
    ts_serial = evaluate_timeseries(stream, spec, interval=interval)
    ts_parallel = evaluate_timeseries(stream, spec, interval=interval, workers=2)
    assert ts_serial.times == ts_csr.times
    assert ts_serial.values == ts_csr.values
    assert ts_parallel.times == ts_csr.times
    assert ts_parallel.values == ts_csr.values
    assert ts_csr.profile is not None and ts_csr.profile["backend"] == "csr"
    assert ts_serial.profile is not None and ts_serial.profile["backend"] == "delta"


# -- engine selection ------------------------------------------------------


def test_selection_follows_replay_shape(tmp_path) -> None:
    """Figures' metric replay runs on delta; serve's cold /metrics on csr."""
    figures = AnalysisContext(presets.tiny(days=40.0, target_nodes=300), seed=3)
    profile = figures.metrics.profile
    assert profile is not None
    assert len(figures.metrics.times) >= DELTA_MIN_SNAPSHOTS
    assert profile["backend"] == "delta"
    # Serve's cold shape: a few metrics over four snapshots, cache on.
    stream = figures.stream
    cold = MetricSpec(names=("average_degree", "average_clustering"), path_sample=50, seed=9)
    for _ in range(2):  # a miss, then a hit: both report the same engine
        series = compute_timeseries(
            stream, cold, interval=stream.end_time / 4.0 + 0.1, cache_dir=tmp_path
        )
        assert len(series.times) == 4
        assert series.profile is not None and series.profile["backend"] == "csr"
    # Clustering is what delta wins on: a long replay without it stays csr.
    no_clustering = MetricSpec(names=("average_degree", "average_path_length"))
    assert select_engine(no_clustering, 10 * DELTA_MIN_SNAPSHOTS) == "csr"
    assert select_engine(MetricSpec(), DELTA_MIN_SNAPSHOTS) == "delta"
    assert select_engine(MetricSpec(), DELTA_MIN_SNAPSHOTS - 1) == "csr"
