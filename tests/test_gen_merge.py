"""Tests for the generator's one-day network merge (§5)."""

from collections import Counter

import numpy as np

from repro.gen.config import presets
from repro.gen.fast import FastGenerator
from repro.graph.events import ORIGIN_5Q, ORIGIN_NEW, ORIGIN_XIAONEI


def node_rows(stream):
    """``(time, node, origin)`` per node arrival."""
    nodes = stream.nodes
    return list(zip(nodes.time.tolist(), nodes.node.tolist(), nodes.origin_labels()))


def edge_rows(stream):
    """``(time, u, v)`` per edge arrival."""
    edges = stream.edges
    return list(zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist()))


def test_merge_stream_valid(merge_stream):
    merge_stream.validate()


def test_three_origins_present(merge_stream):
    origins = Counter(merge_stream.nodes.origin_labels())
    assert set(origins) == {ORIGIN_XIAONEI, ORIGIN_5Q, ORIGIN_NEW}


def test_populations_comparable(merge_stream):
    origins = Counter(merge_stream.nodes.origin_labels())
    ratio = origins[ORIGIN_5Q] / origins[ORIGIN_XIAONEI]
    assert 0.6 < ratio < 1.8


def test_5q_nodes_arrive_on_merge_day(merge_stream, merge_day):
    times = [t for t, _, o in node_rows(merge_stream) if o == ORIGIN_5Q]
    assert all(merge_day <= t < merge_day + 1.0 for t in times)


def test_new_users_only_after_merge(merge_stream, merge_day):
    times = [t for t, _, o in node_rows(merge_stream) if o == ORIGIN_NEW]
    assert min(times) >= merge_day


def test_xiaonei_only_before_merge(merge_stream, merge_day):
    pre_merge = [o for t, _, o in node_rows(merge_stream) if t < merge_day]
    assert all(o == ORIGIN_XIAONEI for o in pre_merge)


def test_edge_jump_on_merge_day(merge_stream, merge_day):
    day_counts = Counter(int(t) for t in merge_stream.edges.time.tolist())
    day = int(merge_day)
    prior = [day_counts.get(d, 0) for d in range(day - 7, day)]
    assert day_counts[day] > 3 * max(1, int(np.median(prior)))


def test_duplicates_are_silent(merge_stream, merge_day):
    """Some pre-merge accounts create no edges at all after the merge."""
    origins = merge_stream.node_origins()
    post_merge_active = set()
    for t, u, v in edge_rows(merge_stream):
        if t > merge_day + 1:
            post_merge_active.add(u)
            post_merge_active.add(v)
    fivq = {n for n, o in origins.items() if o == ORIGIN_5Q}
    silent_fraction = 1 - len(fivq & post_merge_active) / len(fivq)
    assert silent_fraction > 0.15


def test_external_edges_exist(merge_stream):
    origins = merge_stream.node_origins()
    kinds = Counter()
    for _, u, v in edge_rows(merge_stream):
        ou, ov = origins[u], origins[v]
        if ORIGIN_NEW in (ou, ov):
            kinds["new"] += 1
        elif ou == ov:
            kinds["internal"] += 1
        else:
            kinds["external"] += 1
    assert kinds["external"] > 0
    assert kinds["internal"] > kinds["external"]


def test_no_5q_edges_before_merge(merge_stream, merge_day):
    origins = merge_stream.node_origins()
    for t, u, v in edge_rows(merge_stream):
        if t < merge_day:
            assert ORIGIN_5Q not in (origins[u], origins[v])


def test_5q_internal_structure_imported(merge_stream, merge_day):
    """The bulk of 5Q's pre-merge topology lands within the merge day."""
    origins = merge_stream.node_origins()
    imported = sum(
        1
        for t, u, v in edge_rows(merge_stream)
        if merge_day <= t < merge_day + 1.0
        and origins[u] == origins[v] == ORIGIN_5Q
    )
    fivq_count = sum(1 for o in origins.values() if o == ORIGIN_5Q)
    assert imported > fivq_count  # mean degree of the import exceeds 2


def test_deterministic_merge():
    cfg = presets.tiny_merge(days=60, target_nodes=600)
    a = FastGenerator(cfg, seed=9).generate()
    b = FastGenerator(cfg, seed=9).generate()
    assert a.edges == b.edges
