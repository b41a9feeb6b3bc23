"""Parity harness for the delta engine (RPL005 manifest).

The incremental engine (:mod:`repro.kernels.delta`) is a second
implementation of the runtime's metric suite.  Its contract, pinned here
across 30 generated replays (plain and merge traces, several seeds,
three checkpoint positions):

* degree distribution, average degree, average clustering (sampled and
  full), and assortativity are **bit-identical** to the batch kernels at
  every snapshot — including across a pickled checkpoint/resume cycle;
* the replay's CSR, which the engine reads for sampled path length,
  equals the per-event dict replay frozen by ``CSRGraph.from_snapshot``,
  for a fresh replay and for a window resumed from a checkpoint graph
  plus the window's own columns;
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
from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.clustering import average_clustering_csr
from repro.kernels.csr import CSRGraph
from repro.kernels.delta import DeltaMetricEngine
from repro.metrics.degree import average_degree
from repro.runtime import parallel
from repro.runtime.api import compute_timeseries
from repro.runtime.parallel import DELTA_MIN_SNAPSHOTS, evaluate_timeseries, select_engine
from repro.runtime.spec import MetricSpec
from repro.util.binning import histogram_counts
from tests.oracles import DictReplay, assert_same_csr

# -- replay corpus ---------------------------------------------------------
#
# 2 trace shapes x 5 seeds x 3 checkpoint positions = 30 replays.  Case
# ``c{n}`` checkpoints at the first snapshot holding at least n edges: 8
# is the first few windows, 64 a little later, 4096 late in the merge
# traces and the middle window of the plain ones, which never reach it.

_CHECKPOINT_EDGES = (8, 64, 4096)
_SEEDS = (0, 1, 2, 3, 4)
CASES = [
    (kind, seed, edges)
    for kind in ("tiny", "tiny_merge")
    for seed in _SEEDS
    for edges in _CHECKPOINT_EDGES
]
CASE_IDS = [f"{kind}-s{seed}-c{edges}" for kind, seed, edges in CASES]

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
            out.append((index, view))
    return out


def _checkpoint_step(windows, edges: int) -> int:
    """The first window holding at least ``edges`` edges, else the middle one."""
    return next(
        (step for step, (_, view) in enumerate(windows) if view.graph.num_edges >= edges),
        len(windows) // 2,
    )


def _feq(a: float, b: float) -> bool:
    """Exact float equality with nan == nan."""
    return (math.isnan(a) and math.isnan(b)) or a == b


def _assert_engine_matches_batch(engine: DeltaMetricEngine, csr: CSRGraph, index: int) -> None:
    """Every engine metric must equal its batch twin bit-for-bit."""
    assert engine.average_degree() == average_degree(csr)
    assert engine.degree_distribution() == histogram_counts(csr.degrees.tolist())
    sample = min(40, max(1, csr.num_nodes // 3))
    got = engine.average_clustering(sample, np.random.default_rng((77, index)))
    want = average_clustering_csr(csr, sample, np.random.default_rng((77, index)))
    assert _feq(got, want)
    assert _feq(engine.average_clustering(None, None), average_clustering_csr(csr, None, None))
    assert _feq(engine.assortativity(), degree_assortativity_csr(csr))


# -- engine metric parity (incl. checkpoint/resume) --------------------------


@pytest.mark.parametrize(("kind", "seed", "edges"), CASES, ids=CASE_IDS)
def test_engine_metrics_bit_identical(kind: str, seed: int, edges: int) -> None:
    windows = _windows(kind, seed)
    engine = DeltaMetricEngine()
    mid = _checkpoint_step(windows, edges)
    frozen = None
    for step, (index, view) in enumerate(windows):
        engine.apply_view(view.new_nodes, view.new_edges)
        _assert_engine_matches_batch(engine, view.graph, index)
        if step == mid:
            frozen = pickle.dumps((engine.state(), view.graph))
    # Checkpoint/resume: an engine revived from the pickled accumulators
    # and the checkpoint's graph, fed the remaining windows, must land
    # bit-identical to the continuous run.
    assert frozen is not None
    resumed = DeltaMetricEngine.from_state(*pickle.loads(frozen))
    for _, view in windows[mid + 1 :]:
        resumed.apply_view(view.new_nodes, view.new_edges)
    final_index, final_view = windows[-1]
    _assert_engine_matches_batch(resumed, final_view.graph, final_index)
    assert resumed.degree_distribution() == engine.degree_distribution()


@pytest.mark.parametrize(("kind", "seed", "edges"), CASES, ids=CASE_IDS)
def test_delta_csr_matches_batch_build(kind: str, seed: int, edges: int) -> None:
    """The replay CSR the engine reads == dict replay + from_snapshot.

    Checked on a fresh replay at every snapshot, and on a window resumed
    from the checkpoint at step ``c`` with only the window's own columns,
    as a parallel worker runs it.
    """
    stream = _stream(kind, seed)
    interval = _INTERVALS[kind]
    replay, oracle = DynamicGraph(stream), DictReplay(stream)
    views = []
    for view in replay.snapshots(interval=interval):
        new_nodes, new_edges = oracle.advance_to(view.time)
        assert_same_csr(view.graph, CSRGraph.from_snapshot(oracle.graph))
        assert (view.new_nodes, view.new_edges) == (new_nodes, new_edges)
        views.append((view, oracle.node_cursor, oracle.edge_cursor))
    step = _checkpoint_step([(None, v) for v, _, _ in views], edges)
    entry, node_lo, edge_lo = views[step]
    window = EventStream(nodes=stream.nodes[node_lo:], edges=stream.edges[edge_lo:])
    checkpoint = ReplayCheckpoint(time=entry.time, node_index=0, edge_index=0, csr=entry.graph)
    resumed = DynamicGraph.from_checkpoint(window, checkpoint)
    for view, _, _ in views[step + 1 :]:
        got = resumed.advance_to(view.time)
        assert_same_csr(got.graph, view.graph)
        assert (got.new_nodes, got.new_edges) == (view.new_nodes, view.new_edges)


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
