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

from repro.community import tracking
from repro.community.louvain import louvain, louvain_reference
from repro.community.tracking import CommunityState, _match_python, track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.graph.components import (
    connected_components,
    connected_components_reference,
    largest_component,
    largest_component_reference,
)
from repro.graph.dynamic import DynamicGraph
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.matching import match_communities_csr
from repro.metrics.assortativity import degree_assortativity, degree_assortativity_reference
from repro.metrics.clustering import (
    average_clustering,
    average_clustering_reference,
    local_clustering,
    local_clustering_reference,
)
from repro.metrics.paths import average_path_length_reference, average_path_length_sampled

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
    return DynamicGraph(stream).advance_to(time).graph.copy()


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


def _identical(a: float, b: float) -> bool:
    """Exact equality, with nan == nan (both undefined is parity too)."""
    return a == b or (math.isnan(a) and math.isnan(b))


# -- per-snapshot kernels --------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_components_parity(case):
    g = _build(case)
    assert connected_components(g) == connected_components_reference(g)


@pytest.mark.parametrize("case", CASES)
def test_largest_component_parity(case):
    g = _build(case)
    assert largest_component(g) == largest_component_reference(g)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [4, 10_000])
def test_path_length_parity(case, sample):
    g = _build(case)
    py = average_path_length_reference(g, sample, rng=5)
    kr = average_path_length_sampled(g, sample, rng=5)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [7, None])
def test_average_clustering_parity(case, sample):
    g = _build(case)
    py = average_clustering_reference(g, sample, rng=9)
    kr = average_clustering(g, sample, rng=9)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
def test_local_clustering_parity(case):
    g = _build(case)
    for node in list(g.nodes())[:12]:
        py = local_clustering_reference(g, node)
        kr = local_clustering(g, node)
        assert py == kr, node


@pytest.mark.parametrize("case", CASES)
def test_assortativity_parity(case):
    g = _build(case)
    py = degree_assortativity_reference(g)
    kr = degree_assortativity(g)
    assert _identical(py, kr), (py, kr)


# -- Louvain ---------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_louvain_parity(case, delta):
    g = _build(case)
    py = louvain_reference(g, delta=delta, seed=3)
    kr = louvain(g, delta=delta, seed=3)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


@pytest.mark.parametrize("case", CASES)
def test_louvain_seeded_parity(case):
    """Incremental mode: kernel and reference honour a seed partition identically."""
    g = _build(case)
    seed_partition = louvain_reference(g, delta=0.04, seed=11).partition
    py = louvain_reference(g, delta=0.04, seed_partition=seed_partition, seed=4)
    kr = louvain(g, delta=0.04, seed_partition=seed_partition, seed=4)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


# -- community matcher -----------------------------------------------------


def _match_reference(raw, prev_sets):
    """``match_communities_csr``'s signature over the reference matcher."""
    prev_states = {
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
    return _match_python(raw, prev_states)


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
    py_parent, py_overlaps = _match_reference(raw, prev_sets)
    kr_parent, kr_overlaps = match_communities_csr(raw, prev_sets)
    assert list(kr_parent) == list(py_parent)
    for label in raw:
        assert kr_parent[label] == py_parent[label], label
        assert kr_overlaps[label] == py_overlaps[label], label


def test_matcher_empty_sides():
    assert match_communities_csr({}, {1: frozenset({1})}) == ({}, {})
    parent, overlaps = match_communities_csr({5: frozenset({1, 2})}, {})
    assert parent == {5: None}
    assert overlaps[5] == {}
    # No shared nodes at all.
    parent, overlaps = match_communities_csr({5: frozenset({1})}, {0: frozenset({9})})
    assert parent == {5: None}
    assert overlaps[5] == {}


# -- end-to-end tracking ---------------------------------------------------


def test_tracking_parity(monkeypatch):
    """The tracker on the kernels equals the tracker on the references."""
    stream = generate_trace(presets.tiny(), seed=11)
    kr = track_stream(stream, interval=4.0, min_nodes=32, seed=5)
    monkeypatch.setattr(tracking, "louvain", louvain_reference)
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
