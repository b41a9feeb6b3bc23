"""Exact-parity tests: every CSR kernel against its Python reference.

The kernel layer's contract is bit-identical floats for identical RNG
draws (docs/kernels.md).  These tests sweep ~50 random graphs — an
Erdős–Rényi grid over sizes/densities/seeds plus snapshots of a generated
Renren trace — including empty, singleton, and disconnected graphs, and
assert *exact* equality (``==``, never ``pytest.approx``) between every
kernel-enabled function and its ``*_reference`` twin.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import tracking
from repro.community.louvain import LouvainResult, louvain
from repro.community.tracking import CommunityState, track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.dynamic import DynamicGraph
from repro.graph.events import ORIGIN_5Q, ORIGIN_NEW, ORIGIN_XIAONEI
from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import count_communities
from repro.kernels.matching import Lineages, match_communities_csr
from repro.kernels.traversal import (
    connected_components_csr,
    distance_to_set_csr,
    largest_component_csr,
)
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering, local_clustering
from repro.metrics.paths import average_path_length_sampled
from repro.obs import TraceRecorder, use_recorder
from tests.oracles import (
    DictReplay,
    GraphSnapshot,
    _match_python,
    average_clustering_reference,
    average_path_length_reference,
    bfs_distance_to_set,
    connected_components_reference,
    degree_assortativity_reference,
    dict_replay,
    from_snapshot,
    largest_component_reference,
    local_clustering_reference,
    louvain_reference,
    modularity,
    snapshot_of,
)

# -- graph corpus ----------------------------------------------------------

_ER_GRID = [
    (n, p, seed)
    for n in (0, 1, 2, 5, 12, 30, 60)
    for p in (0.0, 0.08, 0.3)
    for seed in (1, 2)
]
_RENREN_TIMES = (10.0, 25.0, 45.0, 60.0)

CASES = [f"er-{n}-{p}-{s}" for n, p, s in _ER_GRID]
CASES += [f"renren-{t}" for t in _RENREN_TIMES]
CASES += ["two-cliques", "path-with-isolates", "star-forest"]


def _erdos_renyi(n: int, p: float, seed: int) -> GraphSnapshot:
    rng = np.random.default_rng((97, seed, n))
    g = GraphSnapshot()
    for u in range(n):
        g.add_node(u)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@functools.lru_cache(maxsize=None)
def _renren_snapshot(time: float) -> GraphSnapshot:
    stream = generate_trace(presets.tiny(), seed=23)
    return dict_replay(stream, time)


@functools.lru_cache(maxsize=None)
def _build(case: str) -> GraphSnapshot:
    kind, _, rest = case.partition("-")
    if kind == "er":
        n, p, s = rest.split("-")
        return _erdos_renyi(int(n), float(p), int(s))
    if kind == "renren":
        return _renren_snapshot(float(rest))
    if case == "two-cliques":
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(10, 15) for v in range(u + 1, 15)]
        return GraphSnapshot.from_edges(edges, nodes=[99, 42])
    if case == "path-with-isolates":
        return GraphSnapshot.from_edges([(i, i + 1) for i in range(20)], nodes=[100, 200, 300])
    if case == "star-forest":
        edges = [(hub, hub + leaf) for hub in (0, 50, 100) for leaf in (1, 2, 3, 4)]
        return GraphSnapshot.from_edges(edges)
    raise AssertionError(case)


def _csr(g: GraphSnapshot) -> CSRGraph:
    return from_snapshot(g)


def _identical(a: float, b: float) -> bool:
    """Exact equality, with nan == nan (both undefined is parity too)."""
    return a == b or (math.isnan(a) and math.isnan(b))


# -- per-snapshot kernels --------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_components_parity(case):
    g = _build(case)
    assert connected_components_csr(_csr(g)) == connected_components_reference(g)


@pytest.mark.parametrize("case", CASES)
def test_largest_component_parity(case):
    g = _build(case)
    assert set(largest_component_csr(_csr(g)).tolist()) == largest_component_reference(g)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [4, 10_000])
def test_path_length_parity(case, sample):
    g = _build(case)
    py = average_path_length_reference(g, sample, rng=5)
    kr = average_path_length_sampled(_csr(g), sample, rng=5)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [7, None])
def test_average_clustering_parity(case, sample):
    g = _build(case)
    py = average_clustering_reference(g, sample, rng=9)
    kr = average_clustering(_csr(g), sample, rng=9)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
def test_local_clustering_parity(case):
    g = _build(case)
    for node in list(g.nodes())[:12]:
        py = local_clustering_reference(g, node)
        kr = local_clustering(_csr(g), node)
        assert py == kr, node


@pytest.mark.parametrize("case", CASES)
def test_assortativity_parity(case):
    g = _build(case)
    py = degree_assortativity_reference(g)
    kr = degree_assortativity(_csr(g))
    assert _identical(py, kr), (py, kr)


# -- bit-parallel path length: word and block edges ------------------------

#: Sample sizes around the 64-source word: one bit, a word less one, a
#: full word, a word plus one, and multi-block samples.
_BLOCK_SAMPLES = (1, 63, 64, 65, 130, 200)


def _ring_with_chords(ids: range, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    nodes = list(ids)
    edges = list(zip(nodes, nodes[1:] + nodes[:1], strict=True))
    for _ in range(len(nodes) // 3):
        u, v = rng.choice(nodes, size=2, replace=False).tolist()
        edges.append((u, v))
    return edges


def _isolated_tail(n: int, isolates: int) -> GraphSnapshot:
    """A connected ring whose last positions are isolated nodes."""
    g = GraphSnapshot.from_edges(_ring_with_chords(range(n), seed=n))
    for node in range(n, n + isolates):
        g.add_node(node)
    return g


def _tied_components() -> GraphSnapshot:
    """Two 90-node components; the one inserted second has the smaller ids."""
    return GraphSnapshot.from_edges(
        _ring_with_chords(range(1000, 1090), seed=1) + _ring_with_chords(range(90), seed=2)
    )


_BLOCK_GRAPHS = {
    "renren-45": lambda: _renren_snapshot(45.0),
    "ring-300": lambda: _isolated_tail(300, 0),
    # 130 and 200 sources exceed this component: every member is drawn.
    "ring-100-isolated-tail": lambda: _isolated_tail(100, 4),
    "tied-90": _tied_components,
}


@pytest.mark.parametrize("case", sorted(_BLOCK_GRAPHS))
@pytest.mark.parametrize("sample", _BLOCK_SAMPLES)
def test_path_length_parity_at_block_edges(case, sample):
    g = _BLOCK_GRAPHS[case]()
    for seed in (5, 17):
        py = average_path_length_reference(g, sample, rng=seed)
        kr = average_path_length_sampled(_csr(g), sample, rng=seed)
        assert _identical(py, kr), (seed, py, kr)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda e: e[0] != e[1]),
        max_size=120,
    ),
    isolates=st.integers(0, 3),
    sample=st.integers(1, 90),
    seed=st.integers(0, 2**16),
)
def test_path_length_parity_property(edges, isolates, sample, seed):
    g = GraphSnapshot.from_edges(edges)
    for node in range(100, 100 + isolates):
        g.add_node(node)
    py = average_path_length_reference(g, sample, rng=seed)
    kr = average_path_length_sampled(_csr(g), sample, rng=seed)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize(
    ("sample", "sources", "pairs"), [(130, 130, 33_280), (10_000, 257, 65_792)]
)
def test_path_length_counters_pinned(sample, sources, pairs):
    """The trace counters keep their per-source meaning: sources and reached pairs."""
    with use_recorder(TraceRecorder()) as rec:
        average_path_length_sampled(_csr(_renren_snapshot(45.0)), sample, rng=5)
    assert rec.counters["kernels.bfs_sources"] == sources
    assert rec.counters["kernels.bfs_frontier_nodes"] == pairs


# -- distance to a node set (F9c) ------------------------------------------


def _distance_pair(g: GraphSnapshot, targets, forbidden):
    """Kernel and oracle distances per node, in position order (None = unreachable)."""
    csr = from_snapshot(g)
    target_mask = np.isin(csr.node_ids, np.fromiter(targets, dtype=np.int64))
    allowed = ~np.isin(csr.node_ids, np.fromiter(forbidden, dtype=np.int64))
    kernel = [None if d < 0 else d for d in distance_to_set_csr(csr, target_mask, allowed).tolist()]
    oracle = [bfs_distance_to_set(g, node, targets, forbidden) for node in csr.node_ids.tolist()]
    return kernel, oracle


@pytest.mark.parametrize("seed", [13, 14])
def test_distance_to_set_parity_per_node(seed):
    stream = generate_trace(presets.tiny_merge(), seed=seed)
    merge_day = presets.tiny_merge().merge.merge_day
    origins = stream.node_origins()
    sides = {
        label: {n for n, o in origins.items() if o == label}
        for label in (ORIGIN_XIAONEI, ORIGIN_5Q, ORIGIN_NEW)
    }
    for offset in (1.0, 8.0, 30.0):
        g = dict_replay(stream, merge_day + offset)
        for target in (ORIGIN_XIAONEI, ORIGIN_5Q):
            kernel, oracle = _distance_pair(g, sides[target], sides[ORIGIN_NEW])
            assert kernel == oracle, (offset, target)
            assert any(d is None for d in oracle) and any(d and d > 1 for d in oracle)


_PATH = [(0, 1), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize(
    ("targets", "forbidden", "expected"),
    [
        # A forbidden node cuts the only path, and is unreachable itself.
        ({4}, {2}, [None, None, None, 1, 0]),
        # Sources inside the target set are at distance 0.
        ({0, 3}, set(), [0, 1, 1, 0, 1]),
        # Every target forbidden: nothing is reachable.
        ({1, 3}, {1, 3}, [None] * 5),
        # Targets absent from the snapshot are ignored.
        ({4, 99}, set(), [4, 3, 2, 1, 0]),
        ({99}, set(), [None] * 5),
    ],
)
def test_distance_to_set_hand_cases(targets, forbidden, expected):
    with use_recorder(TraceRecorder()) as rec:
        kernel, oracle = _distance_pair(GraphSnapshot.from_edges(_PATH), targets, forbidden)
    assert kernel == oracle == expected
    assert [span.name for span in rec.spans] == ["kernels.distance_to_set"]


# -- Louvain ---------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_louvain_parity(case, delta):
    g = _build(case)
    py = louvain_reference(g, delta=delta, seed=3)
    kr = louvain(_csr(g), delta=delta, seed=3)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


@pytest.mark.parametrize("case", CASES)
def test_louvain_seeded_parity(case):
    """Incremental mode: kernel and reference honour a seed partition identically."""
    g = _build(case)
    seed_partition = louvain_reference(g, delta=0.04, seed=11).partition
    py = louvain_reference(g, delta=0.04, seed_partition=seed_partition, seed=4)
    kr = louvain(_csr(g), delta=0.04, seed_partition=seed_partition, seed=4)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


@pytest.mark.parametrize("seed", [11, 13])
def test_louvain_modularity_matches_dict_on_tracker_partitions(seed):
    """The kernel's Q equals dict ``modularity`` on each tracked partition.

    The partitions chain as the tracker's do (each seeds the next), over
    3-day replay snapshots; equality is exact.
    """
    stream = generate_trace(presets.tiny_merge(), seed=seed)
    oracle = DictReplay(stream)
    previous = None
    for view in DynamicGraph(stream).snapshots(interval=3.0):
        oracle.advance_to(view.time)
        result = louvain(view.graph, delta=0.04, seed_partition=previous, seed=seed)
        assert result.modularity == modularity(oracle.graph, result.partition)
        previous = result.partition


# -- community matcher -----------------------------------------------------


def _states(prev_sets):
    """Previous lineages as the reference matcher reads them."""
    return {
        lin: CommunityState(
            lineage=lin,
            time=0.0,
            members=members,
            internal_edges=0,
            degree_sum=0,
            similarity=float("nan"),
        )
        for lin, members in prev_sets.items()
    }


def _flat(groups):
    """The member ids of ``key → member set`` groups, with each member's group index."""
    ids = np.array([node for members in groups.values() for node in members], dtype=np.int64)
    sizes = [len(members) for members in groups.values()]
    return ids, np.repeat(np.arange(len(groups), dtype=np.int64), sizes)


def _as_arrays(raw, prev_sets):
    """``label → member set`` and ``lineage → member set`` as the kernel matcher takes them."""
    previous = Lineages.of(np.array(list(prev_sets), dtype=np.int64), *_flat(prev_sets))
    return list(raw), *_flat(raw), previous


def _match_reference(labels, ids, community, previous):
    """``match_communities_csr``'s signature over the reference matcher."""
    raw = {label: frozenset(ids[community == c].tolist()) for c, label in enumerate(labels)}
    prev_sets = {
        lin: frozenset(previous.ids[previous.rank == rank].tolist())
        for rank, lin in enumerate(previous.lineages.tolist())
    }
    return _match_python(raw, _states(prev_sets))


def _louvain_reference(csr, seed_partition=None, **kwargs):
    """:func:`louvain`'s signature over the reference, its partition as arrays."""
    if seed_partition is not None:
        seed_partition = seed_partition.partition
    ref = louvain_reference(snapshot_of(csr), seed_partition=seed_partition, **kwargs)
    order = csr.positions_of(np.array(list(ref.partition), dtype=np.int64))
    labels = np.empty(csr.num_nodes, dtype=np.int64)
    labels[order] = list(ref.partition.values())
    counts = count_communities(csr, labels)
    assert counts[-1] == ref.modularity
    return LouvainResult(csr.node_ids, labels, order, *counts, levels=ref.levels)


def _random_membership(rng, labels, pool, max_size):
    used = set()
    out = {}
    for label in labels:
        size = int(rng.integers(1, max_size))
        members = [int(v) for v in rng.choice(pool, size=size, replace=False)]
        out[label] = frozenset(members) - used
        used |= set(members)
    return {label: m for label, m in out.items() if m}


@pytest.mark.parametrize("seed", range(8))
def test_matcher_parity(seed):
    rng = np.random.default_rng((31, seed))
    pool = np.arange(120)
    raw = _random_membership(rng, [3, 7, 8, 15], pool, 30)
    prev_sets = _random_membership(rng, [0, 1, 2, 5], pool, 30)
    py_parent, py_overlaps = _match_python(raw, _states(prev_sets))
    kr_parent, kr_overlaps = match_communities_csr(*_as_arrays(raw, prev_sets))
    assert list(kr_parent) == list(py_parent)
    for label in raw:
        assert kr_parent[label] == py_parent[label], label
        assert kr_overlaps[label] == py_overlaps[label], label


def test_matcher_empty_sides():
    assert match_communities_csr(*_as_arrays({}, {1: frozenset({1})})) == ({}, {})
    parent, overlaps = match_communities_csr(*_as_arrays({5: frozenset({1, 2})}, {}))
    assert parent == {5: None}
    assert overlaps[5] == {}
    # No shared nodes at all.
    parent, overlaps = match_communities_csr(*_as_arrays({5: frozenset({1})}, {0: frozenset({9})}))
    assert parent == {5: None}
    assert overlaps[5] == {}


# -- end-to-end tracking ---------------------------------------------------


def test_tracking_parity(monkeypatch):
    """The tracker on the kernels equals the tracker on the references."""
    stream = generate_trace(presets.tiny(), seed=11)
    kr = track_stream(stream, interval=4.0, min_nodes=32, seed=5)
    monkeypatch.setattr(tracking, "louvain", _louvain_reference)
    monkeypatch.setattr(tracking, "match_communities_csr", _match_reference)
    py = track_stream(stream, interval=4.0, min_nodes=32, seed=5)
    assert len(py.snapshots) == len(kr.snapshots) > 0
    for a, b in zip(py.snapshots, kr.snapshots, strict=True):
        assert a.time == b.time
        assert a.modularity == b.modularity
        assert _identical(a.avg_similarity, b.avg_similarity)
        assert set(a.states) == set(b.states)
        for lin in a.states:
            x, y = a.states[lin], b.states[lin]
            assert x.members == y.members
            assert x.internal_edges == y.internal_edges
            assert x.degree_sum == y.degree_sum
            assert _identical(x.similarity, y.similarity)
    assert len(py.events) == len(kr.events)
    for ea, eb in zip(py.events, kr.events, strict=True):
        assert (ea.kind, ea.time, ea.subject, ea.other, ea.children) == (
            eb.kind,
            eb.time,
            eb.subject,
            eb.other,
            eb.children,
        )
        assert _identical(ea.size_ratio, eb.size_ratio)
        assert ea.strongest_tie == eb.strongest_tie
    assert set(py.lineages) == set(kr.lineages)
    for lin in py.lineages:
        assert py.lineages[lin].death_time == kr.lineages[lin].death_time
        assert py.lineages[lin].death_reason == kr.lineages[lin].death_reason
