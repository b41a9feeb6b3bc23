"""One Louvain level in C against the numpy level, and the δ-sweep's shared replay.

A ``louvain_level`` call (weighted degrees, community totals, the scan
and the aggregation) must give the bits of ``_one_level_arrays``
followed by ``_aggregate_arrays`` on every output array, and
``louvain_order`` the partition order of the per-level stable sorts.
The δ-sweep steps its five trackers from one replay; each must equal a
tracker run alone.  Per-call results on perfbench's ``figures`` trace
are pinned to digests taken before the level loop moved to C.
"""

import hashlib
import importlib
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisContext
from repro.analysis.fig4 import DELTA_SWEEP
from repro.community.tracking import CommunityTracker, track_deltas, track_stream
from repro.gen import generate_trace
from repro.gen.config import presets
from repro.kernels import louvain as kernel
from repro.obs import TraceRecorder, use_recorder
from tests.oracles import initial_assignment

community_louvain = importlib.import_module("repro.community.louvain")

#: perfbench's ``figures`` trace.
FIGURES = presets.small(target_nodes=2500)

#: sha256 of the ``(partition items, modularity.hex(), levels)`` reprs of
#: every Louvain call on the ``figures`` trace, per δ: the main tracker
#: (δ = 0.04) and the δ-sweep, as the numpy level loop computed them.
PINNED = {
    1: {
        0.0001: "2d65e5e5047995986d0f43635694b5e355016aeaf10007b105d98d801b9331e1",
        0.001: "36c9cba566d09d985f9d16b056c9b128116300e3732efe24a47d87fdea931a46",
        0.01: "2431447c1368aa247cf98f22c6a6d037843c07eb3da3c1e14a0dd63f7cb62a52",
        0.04: "555aaca8c84253b8ec3ae6e18ddf3268259ca2f3d9af145fc545bd42a7ff8b5f",
        0.1: "8ff3912520932f819a99fbf6e4c11f8582fc94ce4b33b44d17a32eca091bda8f",
        0.3: "0decf4c9db8085073632ca84e97afe18cd505ee8236f36bab0ec4f7644bdbe7d",
    },
    3: {
        0.0001: "3ce561a47dc271fdb24742569a652211dbec03f64cf3017173dcb7732860f01f",
        0.001: "7e2f7461925148be653cadcce5c35d0029141845da6ea4dbd6b18d31974057ae",
        0.01: "9c2a16a426ff30269a46d3f1824eeba2654cd596a5db63c3636154a3aee47038",
        0.04: "14b794935090b83fcaa4b045bface97f7a9ab3e7177ebc3285844044fe6e0007",
        0.1: "41160cba5d1f5398104dfad8dfaa85b6a913936f78dffad6edcc68d322611000",
        0.3: "596932e3b28a9b38c76787a6a0226e5f1668f8d06df36953696d57a262b51727",
    },
}


@pytest.fixture(scope="module")
def library():
    loaded = kernel._library()
    if loaded is None:
        pytest.skip("the C level did not build")
    return loaded


def _bits(array):
    """An array's exact contents: dtype and 64-bit patterns."""
    return array.dtype.str, np.ascontiguousarray(array).view(np.int64).tolist()


# -- one level -------------------------------------------------------------


@st.composite
def _levels(draw):
    """A level graph as aggregation leaves it, plus labels over its positions.

    Rows are coalesced with ascending columns; a weight is ``units *
    2**-level``.  Isolated positions, self-loops on them, and labels
    shared by edge-free positions (edge-free communities) all occur.
    """
    n = draw(st.integers(1, 30))
    level = draw(st.integers(0, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 16))
    merged: dict[tuple[int, int], int] = {}
    for u, v, units in draw(st.lists(pairs, max_size=3 * n)):
        if u != v:
            key = (min(u, v), max(u, v))
            merged[key] = merged.get(key, 0) + units
    loops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 16)), max_size=n))
    labels = draw(st.lists(st.integers(0, n + 5), min_size=n, max_size=n))
    scale = 2.0**-level
    rows = [u for u, v in merged] + [v for u, v in merged]
    cols = [v for u, v in merged] + [u for u, v in merged]
    units = list(merged.values()) * 2
    by_entry = np.lexsort((np.asarray(cols, dtype=np.int64), np.asarray(rows, dtype=np.int64)))
    indices = np.asarray(cols, dtype=np.int64)[by_entry]
    weights = np.asarray(units, dtype=np.float64)[by_entry] * scale
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.asarray(rows, dtype=np.int64), minlength=n), out=indptr[1:])
    self_w = np.zeros(n, dtype=np.float64)
    for u, loop_units in loops:
        self_w[u] += loop_units * scale
    return level, indptr, indices, weights, self_w, np.asarray(labels, dtype=np.int64)


def _assert_dyadic(weights, level):
    """Every weight of ``level`` is a whole number of ``2**-level`` units."""
    units = weights * 2.0**level
    assert np.array_equal(units, np.floor(units)), (level, weights)


@settings(max_examples=400, deadline=None)
@given(
    graph=_levels(),
    delta=st.sampled_from([0.0, 1e-4, 0.04, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(1, 3),
)
def test_c_level_matches_the_numpy_level(library, graph, delta, seed, spread):
    """Scan plus aggregation in one C call, bit for bit, with sparse ranks.

    The C level reads ranks, not labels: ``spread`` spaces them out as
    ranks carried past the first level are, keeping their order.
    """
    level, indptr, indices, weights, self_w, labels = graph
    _assert_dyadic(weights, level)
    _assert_dyadic(self_w, level)
    want = kernel._one_level_arrays(
        indptr, indices, weights, self_w, labels, delta, np.random.default_rng(seed)
    )
    improved, want_labels, want_passes, want_moves = want

    uniq = np.unique(labels)
    ncomm = uniq.size * spread
    comm = np.searchsorted(uniq, labels).astype(np.int64) * spread
    n = labels.size
    start = kernel._first_level(indptr, indices, weights, self_w, comm)
    fscratch = np.full(n + 2 * ncomm, np.nan)
    iscratch = np.full(3 * ncomm + 2 * n + 1, -7, dtype=np.int64)
    order = np.random.default_rng(seed).permutation(n)
    passes, moves, moved, node_pos, following = kernel._c_level(
        library.level,
        start,
        ncomm,
        order,
        delta,
        (fscratch.ctypes.data, iscratch.ctypes.data),
    )
    assert (moved, passes, moves) == (improved, want_passes, want_moves)
    assert _bits(uniq[start.comm // spread]) == _bits(want_labels)
    if not improved:
        assert node_pos.size == following.comm.size == following.indices.size == 0
        return
    aggregated = kernel._aggregate_arrays(indptr, indices, weights, self_w, want_labels)
    new_indptr, new_indices, new_weights, new_self, new_label, want_pos = aggregated
    assert _bits(node_pos) == _bits(want_pos)
    assert _bits(following.indptr) == _bits(new_indptr)
    assert _bits(following.indices) == _bits(new_indices)
    assert _bits(following.weights) == _bits(new_weights)
    assert _bits(following.self_w) == _bits(new_self)
    assert _bits(uniq[following.comm // spread]) == _bits(new_label)
    _assert_dyadic(new_weights, level + 1)
    _assert_dyadic(new_self, level + 1)


def test_aggregated_weights_stay_dyadic_on_a_tracked_trace(monkeypatch, library):
    """Every level's weights are whole ``2**-level`` units on a real replay:
    what makes the order-free sums (m2, totals, coalesced rows) exact."""
    inner = kernel._c_level
    depth = {"level": 0, "last": None}
    checked: list[int] = []

    def recording(function, level, *rest):
        depth["level"] = depth["level"] + 1 if level is depth["last"] else 0
        _assert_dyadic(level.weights, depth["level"])
        _assert_dyadic(level.self_w, depth["level"])
        result = inner(function, level, *rest)
        depth["last"] = result[-1]
        checked.append(depth["level"])
        return result

    monkeypatch.setattr(kernel, "_c_level", recording)
    track_stream(generate_trace(presets.tiny_merge(), seed=14), seed=7)
    assert max(checked) >= 2


@st.composite
def _chains(draw):
    """Node-position arrays of a few aggregations: each maps onto all of the next level."""
    size = draw(st.integers(1, 40))
    chain = []
    for _ in range(draw(st.integers(0, 4))):
        raw = np.asarray(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        _, first, dense = np.unique(raw, return_index=True, return_inverse=True)
        # Number super-nodes in a drawn order, not by value: aggregation
        # numbers them by first edge-bearing member.
        shuffle = np.asarray(draw(st.permutations(list(range(first.size)))), dtype=np.int64)
        chain.append(shuffle[dense].astype(np.int64))
        size = first.size
    return chain, size


@settings(max_examples=200, deadline=None)
@given(chain=_chains())
def test_c_order_matches_the_per_level_stable_sorts(library, chain):
    node_positions, top = chain
    n = node_positions[0].size if node_positions else top
    membership = np.arange(n, dtype=np.int64)
    order = np.arange(n, dtype=np.int64)
    for node_pos in node_positions:  # what _python_levels does per level
        membership = node_pos[membership]
        order = order[np.argsort(membership[order], kind="stable")]
    got_order, got_membership = kernel._c_order(library.order, node_positions, n, top)
    assert got_order.tolist() == order.tolist()
    assert got_membership.tolist() == membership.tolist()


# -- initial labels ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.integers(-50, 10**12), unique=True, max_size=40),
    seed_ids=st.lists(st.integers(-50, 10**12), max_size=40),
    seed_labels=st.lists(st.integers(-5, 8), min_size=80, max_size=80),
    overlap=st.integers(0, 40),
    seeded=st.booleans(),
)
def test_initial_labels_match_the_dict_assignment(ids, seed_ids, seed_labels, overlap, seeded):
    keys = ids[:overlap] + seed_ids
    seed = dict(zip(keys, seed_labels, strict=False)) if seeded else None
    node_ids = np.asarray(ids, dtype=np.int64)
    want = initial_assignment(ids, seed)
    arrays = None
    if seed is not None:
        keys, labels = list(seed), list(seed.values())
        arrays = (np.array(keys, dtype=np.int64), np.array(labels, dtype=np.int64))
    got = kernel.initial_labels(node_ids, arrays)
    assert got.dtype == np.int64
    assert got.tolist() == [want[u] for u in ids]


# -- robustness ----------------------------------------------------------------


#: A two-node level with one edge, as :func:`kernel._first_level` takes it.
_LEVEL = {
    "indptr": np.array([0, 1, 2], dtype=np.int64),
    "indices": np.array([1, 0], dtype=np.int64),
    "weights": np.ones(2),
    "self_w": np.zeros(2),
    "comm": np.zeros(2, dtype=np.int64),
}


def _unreachable(*_):
    pytest.fail("the array reached C")


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("comm", np.zeros(2, dtype=np.float32), TypeError),
        ("comm", np.zeros(4, dtype=np.int64)[::2], ValueError),
    ],
)
def test_c_scan_rejects_arrays_it_would_write_out_of_bounds(field, value, error):
    """Checks that ``python -O`` keeps: C must never see these arrays.

    The scan writes ``comm``; its length is the level's node count, so only
    its dtype and stride can be wrong.
    """
    case = {**_LEVEL, field: value}
    with pytest.raises(error, match=field):
        level = kernel._first_level(*case.values())
        kernel._c_level(_unreachable, level, 2, np.arange(2, dtype=np.int64), 0.0, (0, 0))


@pytest.mark.parametrize("field", ["indptr", "indices", "weights", "self_w", "order"])
def test_c_level_rejects_arrays_it_would_access_out_of_bounds(field):
    """Checks that ``python -O`` keeps: C must never see these arrays.

    Each field in turn has the wrong dtype, a stride, or the wrong length.
    """
    arrays = {**_LEVEL, "order": np.arange(2, dtype=np.int64)}
    good = arrays[field]
    bad = [
        (good.astype(np.float32), TypeError),
        (np.repeat(good, 2)[::2], ValueError),
        (np.append(good, good[:1]), ValueError),
    ]
    for value, error in bad:
        case = {**arrays, field: value}
        with pytest.raises(error, match=field):
            level = kernel._first_level(*(case[name] for name in _LEVEL))
            kernel._c_level(_unreachable, level, 2, case["order"], 0.0, (0, 0))


def test_c_level_rejects_a_float32_comm():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    with pytest.raises(TypeError, match="comm"):
        kernel._first_level(
            indptr,
            np.array([1, 0], dtype=np.int64),
            np.ones(2),
            np.zeros(2),
            np.zeros(2, dtype=np.float32),
        )


# -- the δ-sweep's shared replay ---------------------------------------------------


def _fingerprint(tracker: CommunityTracker):
    """Everything a tracker computed, with floats as exact bits."""
    snapshots = [
        (
            s.time.hex(),
            s.modularity.hex(),
            s.avg_similarity.hex(),
            s.num_communities,
            [
                (lin, sorted(st.members), st.internal_edges, st.degree_sum, st.similarity.hex())
                for lin, st in s.states.items()
            ],
        )
        for s in tracker.snapshots
    ]
    lineages = [
        (lin.lineage, [st.time for st in lin.states], lin.death_time, lin.death_reason)
        for lin in tracker.lineages.values()
    ]
    return snapshots, repr(tracker.events), lineages


@pytest.mark.parametrize(
    "config,seed,interval",
    [(FIGURES, 1, FIGURES.days / 14.0), (presets.tiny_merge(), 14, 3.0)],
    ids=["figures-1", "tiny_merge-14"],
)
def test_shared_replay_sweep_equals_independent_runs(config, seed, interval):
    stream = generate_trace(config, seed=seed)
    shared = track_deltas(stream, DELTA_SWEEP, interval=interval, seed=seed)
    assert list(shared) == list(DELTA_SWEEP)
    for delta, tracker in shared.items():
        alone = track_stream(stream, interval=interval, delta=delta, seed=seed)
        assert len(tracker.snapshots) > 5
        assert _fingerprint(tracker) == _fingerprint(alone)


def _digests(monkeypatch, seed):
    """Per-δ digests of every Louvain call of the main tracker and the δ-sweep."""
    calls = defaultdict(list)
    inner = kernel.louvain_csr

    def recording(csr, delta, seed, rng):
        labels, order, levels = inner(csr, delta, seed, rng)
        pairs = list(zip(csr.node_ids[order].tolist(), labels[order].tolist(), strict=True))
        *_, quality = kernel.count_communities(csr, labels)
        calls[delta].append(repr((pairs, quality.hex(), levels)))
        return labels, order, levels

    with monkeypatch.context() as patch:
        patch.setattr(community_louvain, "louvain_csr", recording)
        ctx = AnalysisContext(FIGURES, seed=seed, workers=1, cache_dir=None)
        _ = ctx.tracker
        _ = ctx.delta_sweep
    return {
        delta: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for delta, lines in calls.items()
    }


@pytest.mark.parametrize("seed", [1, 3])
def test_per_call_results_are_pinned_on_the_figures_trace(monkeypatch, seed):
    with use_recorder(TraceRecorder()) as rec:
        digests = _digests(monkeypatch, seed)
    assert digests == PINNED[seed]
    scans = {dict(s.attrs)["scan"] for s in rec.spans if s.name == "kernels.louvain"}
    assert scans == ({"python"} if kernel._library() is None else {"c"})


def test_python_levels_give_the_pinned_results(monkeypatch):
    """With the C library off, the numpy level loop gives the same bits."""
    monkeypatch.setattr(kernel, "_library", lambda: None)
    assert _digests(monkeypatch, 1) == PINNED[1]


# -- observability ----------------------------------------------------------------


def test_tracker_replay_has_its_own_spans():
    stream = generate_trace(presets.tiny_merge(), seed=14)
    with use_recorder(TraceRecorder()) as rec:
        trackers = track_deltas(stream, DELTA_SWEEP[:2], interval=5.0, seed=1)
    advances = [s for s in rec.spans if s.name == "replay.advance"]
    assert [dict(s.attrs)["snapshot"] for s in advances] == list(range(len(advances)))
    stepped = len(next(iter(trackers.values())).snapshots)
    assert 0 < stepped <= len(advances)
    louvain_calls = [s for s in rec.spans if s.name == "kernels.louvain"]
    assert len(louvain_calls) == 2 * stepped
    assert {s.parent for s in louvain_calls}.isdisjoint({"replay.advance"})
