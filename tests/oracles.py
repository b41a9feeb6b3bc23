"""Per-event oracles the array implementations are pinned against.

:class:`DictReplay` applies a stream's events one by one to a
:class:`~repro.graph.snapshot.GraphSnapshot`, exactly as the replayer did
before snapshots became CSR arrays.  Parity tests compare
``CSRGraph.from_snapshot`` of its graph with the replay's own.

:func:`pe_checkpoints_reference` is the per-edge pe(d) replay that
``EdgeProbabilityTracker.process`` computes in closed form.

The ``*_reference`` functions of Figures 2, 7 and 8 are the per-node and
per-edge loops over a dict of node edge-time lists that the column
drivers (:meth:`EventStream.node_edge_columns`) replaced; parity tests
compare their outputs byte for byte.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence

import numpy as np

from repro.community.impact import SIZE_BUCKETS_PAPER, CommunityMembership, _bucket_label
from repro.edges.interarrival import AGE_BUCKETS_PAPER, node_interarrival_times
from repro.edges.lifetime import NodeLifetime
from repro.graph.events import ORIGIN_5Q, ORIGIN_XIAONEI, EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.osnmerge.activity import ActiveUserSeries
from repro.osnmerge.classify import EdgeClass, classify_edge
from repro.osnmerge.edge_rates import EdgeRateSeries
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker, PeCheckpoint


class DictReplay:
    """Per-event replay: each advance adds its node arrivals, then its edges."""

    def __init__(self, stream: EventStream, graph: GraphSnapshot | None = None) -> None:
        self.stream = stream
        self.graph = GraphSnapshot() if graph is None else graph
        self.node_cursor = 0
        self.edge_cursor = 0

    def advance_to(self, time: float) -> None:
        """Apply the events with ``event.time <= time``."""
        nodes, edges = self.stream.nodes, self.stream.edges
        node_hi = max(self.node_cursor, int(np.searchsorted(nodes.time, time, side="right")))
        edge_hi = max(self.edge_cursor, int(np.searchsorted(edges.time, time, side="right")))
        for node in nodes.node[self.node_cursor : node_hi].tolist():
            self.graph.add_node(node)
        lo = self.edge_cursor
        for u, v in zip(edges.u[lo:edge_hi].tolist(), edges.v[lo:edge_hi].tolist(), strict=True):
            self.graph.add_edge(u, v)
        self.node_cursor, self.edge_cursor = node_hi, edge_hi


def dict_replay(stream: EventStream, time: float = float("inf")) -> GraphSnapshot:
    """The dict-of-sets graph after every event with ``time <= time``."""
    replay = DictReplay(stream)
    replay.advance_to(time)
    return replay.graph


def snapshot_of(csr: CSRGraph) -> GraphSnapshot:
    """The dict-of-sets graph of ``csr``, nodes in position order."""
    ids = csr.node_ids
    rows = np.repeat(np.arange(csr.num_nodes), csr.degrees)
    upper = rows < csr.indices
    edges = zip(ids[rows[upper]].tolist(), ids[csr.indices[upper]].tolist(), strict=True)
    return GraphSnapshot.from_edges(edges, nodes=ids.tolist())


def csr_of(edges, nodes=()) -> CSRGraph:
    """CSR of the graph with these edges (plus optional isolated nodes)."""
    return CSRGraph.from_snapshot(GraphSnapshot.from_edges(edges, nodes=nodes))


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    """Equal node order, rows and edge count."""
    assert np.array_equal(got.node_ids, want.node_ids)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.num_edges == want.num_edges


def pe_checkpoints_reference(
    tracker: EdgeProbabilityTracker,
    stream: EventStream,
    checkpoint_every: int = 5000,
    min_edges: int = 0,
) -> list[PeCheckpoint]:
    """Replay ``stream`` edge by edge with ``tracker``'s settings and generator."""
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    size = tracker.max_degree + 1
    degree = dict.fromkeys(stream.nodes.node.tolist(), 0)
    degree_count = np.zeros(size, dtype=np.int64)
    numerator = np.zeros(size, dtype=np.float64)
    denominator = np.zeros(size, dtype=np.float64)
    # Nodes exist from their arrival; replay interleaves arrivals and
    # edges chronologically so degree-0 counts are correct.
    checkpoints: list[PeCheckpoint] = []
    edges_seen = 0
    edges = stream.edges
    born_by_edge = np.searchsorted(stream.nodes.time, edges.time, side="right").tolist()
    arrived = 0
    for t, u, v, n_born in zip(
        edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), born_by_edge, strict=True
    ):
        if n_born > arrived:
            degree_count[0] += n_born - arrived
            arrived = n_born
        dest_degree = _destination_degree(tracker, degree[u], degree[v])
        d = min(dest_degree, tracker.max_degree)
        numerator[d] += 1
        denominator += degree_count
        _bump(tracker, degree, degree_count, u)
        _bump(tracker, degree, degree_count, v)
        edges_seen += 1
        if edges_seen % checkpoint_every == 0 and edges_seen >= min_edges:
            node_count = int(degree_count.sum())
            checkpoints.append(
                tracker._checkpoint(edges_seen, t, numerator, denominator, node_count)
            )
            if tracker.mode == "window":
                numerator[:] = 0
                denominator[:] = 0
    return checkpoints


def _destination_degree(tracker: EdgeProbabilityTracker, du: int, dv: int) -> int:
    if tracker.rule is DestinationRule.HIGHER_DEGREE:
        return max(du, dv)
    return du if tracker._rng.random() < 0.5 else dv


def _bump(
    tracker: EdgeProbabilityTracker, degree: dict[int, int], degree_count: np.ndarray, node: int
) -> None:
    d = degree[node]
    capped = min(d, tracker.max_degree)
    degree_count[capped] -= 1
    degree[node] = d + 1
    degree_count[min(d + 1, tracker.max_degree)] += 1


def node_edge_times_reference(stream: EventStream) -> dict[int, list[float]]:
    """Map each node to the sorted times of its edge creations."""
    times: dict[int, list[float]] = defaultdict(list)
    edges = stream.edges
    for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True):
        times[u].append(t)
        times[v].append(t)
    for values in times.values():
        values.sort()
    return times


def collect_interarrivals_by_age_reference(
    stream: EventStream,
    buckets: Sequence[tuple[str, float, float]] | None = None,
) -> dict[str, np.ndarray]:
    """Per node and gap: the first age bucket of the later edge's age."""
    if buckets is None:
        buckets = AGE_BUCKETS_PAPER
    arrival = stream.node_arrival_times()
    per_bucket: dict[str, list[float]] = {label: [] for label, _, _ in buckets}
    for node, times in node_edge_times_reference(stream).items():
        born = arrival[node]
        for t0, t1 in zip(times, times[1:], strict=False):
            gap = t1 - t0
            if gap <= 0:
                continue
            age = t1 - born
            for label, lo, hi in buckets:
                if lo <= age < hi:
                    per_bucket[label].append(gap)
                    break
    return {label: np.asarray(vals) for label, vals in per_bucket.items()}


def node_lifetimes_reference(stream: EventStream) -> dict[int, NodeLifetime]:
    """Lifetime records for all nodes that created at least one edge."""
    arrival = stream.node_arrival_times()
    return {
        node: NodeLifetime(node=node, joined=arrival[node], last_edge=times[-1], degree=len(times))
        for node, times in node_edge_times_reference(stream).items()
    }


def edge_creation_over_lifetime_reference(
    stream: EventStream,
    bins: int = 10,
    min_history_days: float = 30.0,
    min_degree: int = 20,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per node ``np.histogram`` of normalized edge times, averaged."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arrival = stream.node_arrival_times()
    end = stream.end_time
    histograms: list[np.ndarray] = []
    for node, times in node_edge_times_reference(stream).items():
        born = arrival[node]
        if end - born < min_history_days or len(times) < min_degree:
            continue
        span = times[-1] - born
        if span <= 0:
            continue
        normalized = (np.asarray(times) - born) / span
        hist, _ = np.histogram(np.clip(normalized, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
        histograms.append(hist / len(times))
    centers = (np.arange(bins) + 0.5) / bins
    if not histograms:
        return centers, np.zeros(bins), 0
    return centers, np.mean(histograms, axis=0), len(histograms)


def minimal_age_fractions_reference(
    stream: EventStream,
    thresholds: Sequence[float] = (1.0, 10.0, 30.0),
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Per edge: its day and whether its younger endpoint is below each threshold."""
    thresholds = tuple(thresholds)
    arrival = stream.node_arrival_times()
    n_days = int(math.floor(stream.end_time)) + 1
    totals = np.zeros(n_days)
    below = {thr: np.zeros(n_days) for thr in thresholds}
    edges = stream.edges
    for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True):
        day = int(t)
        min_age = t - max(arrival[u], arrival[v])
        totals[day] += 1
        for thr in thresholds:
            if min_age <= thr:
                below[thr][day] += 1
    days = np.arange(n_days)
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = {
            thr: np.where(totals > 0, counts / totals, np.nan) for thr, counts in below.items()
        }
    return days, fractions


def activity_threshold_reference(stream: EventStream, quantile: float = 0.99) -> float:
    """``quantile`` of per-user ``np.mean(np.diff(times))``."""
    means = [
        float(np.mean(np.diff(times)))
        for times in node_edge_times_reference(stream).values()
        if len(times) >= 2
    ]
    if not means:
        raise ValueError("no user created two or more edges")
    return float(np.quantile(means, quantile))


def classify_edges_reference(
    stream: EventStream,
    after: float,
    organic_after: float | None = None,
) -> list[tuple[float, int, int, EdgeClass]]:
    """Per edge after the cutoff: ``(time, u, v, class)``."""
    cutoff = after + 1.0 if organic_after is None else organic_after
    origin_of = stream.node_origins()
    edges = stream.edges
    return [
        (t, u, v, classify_edge(u, v, origin_of))
        for t, u, v in zip(edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), strict=True)
        if t > cutoff
    ]


def edges_per_day_by_type_reference(stream: EventStream, merge_day: float) -> EdgeRateSeries:
    """Per classified edge: bump its day's counter for its class and origins."""
    horizon = int(math.floor(stream.end_time - merge_day))
    if horizon < 0:
        raise ValueError("merge_day is past the end of the stream")
    days = np.arange(horizon + 1)
    origins = stream.node_origins()
    internal = {o: np.zeros(horizon + 1) for o in (ORIGIN_XIAONEI, ORIGIN_5Q)}
    new = {o: np.zeros(horizon + 1) for o in (ORIGIN_XIAONEI, ORIGIN_5Q)}
    external = np.zeros(horizon + 1)
    new_total = np.zeros(horizon + 1)
    for t, u, v, kind in classify_edges_reference(stream, after=merge_day):
        day = int(t - merge_day)
        if day > horizon:
            continue
        ou, ov = origins[u], origins[v]
        if kind is EdgeClass.INTERNAL:
            if ou in internal:
                internal[ou][day] += 1
        elif kind is EdgeClass.EXTERNAL:
            external[day] += 1
        else:
            new_total[day] += 1
            for o in {ou, ov}:
                if o in new:
                    new[o][day] += 1
    return EdgeRateSeries(
        days=days,
        internal=internal,
        new=new,
        external=external,
        internal_total=internal[ORIGIN_XIAONEI] + internal[ORIGIN_5Q],
        new_total=new_total,
    )


def active_users_over_time_reference(
    stream: EventStream,
    merge_day: float,
    origin: str,
    threshold: float,
) -> ActiveUserSeries:
    """Per user and class: merge the day windows of their edges, one by one."""
    t = threshold
    origins = stream.node_origins()
    group = {node for node, o in origins.items() if o == origin}
    if not group:
        raise ValueError(f"no nodes with origin {origin!r}")
    horizon = int(math.floor(stream.end_time - merge_day - t))
    if horizon < 0:
        raise ValueError("threshold exceeds the post-merge span of the trace")
    days = np.arange(horizon + 1)
    activity: dict[str, dict[int, list[float]]] = {
        "all": defaultdict(list),
        "new": defaultdict(list),
        "internal": defaultdict(list),
        "external": defaultdict(list),
    }
    for time, u, v, kind in classify_edges_reference(stream, after=merge_day):
        rel = time - merge_day
        for endpoint in (u, v):
            if endpoint in group:
                activity["all"][endpoint].append(rel)
                activity[kind.value][endpoint].append(rel)
    percent: dict[str, np.ndarray] = {}
    for kind, per_user in activity.items():
        counts = np.zeros(days.size + 1)
        for times in per_user.values():
            for lo, hi in _merged_intervals(times, t, days.size - 1):
                counts[lo] += 1
                counts[hi + 1] -= 1
        percent[kind] = 100.0 * np.cumsum(counts[:-1]) / len(group)
    return ActiveUserSeries(
        origin=origin, group_size=len(group), threshold=t, days=days, percent_active=percent
    )


def _merged_intervals(times: list[float], threshold: float, max_day: int) -> list[tuple[int, int]]:
    """Union of the day windows ``[time - t, time]`` clipped to [0, max_day]."""
    intervals: list[tuple[int, int]] = []
    for time in sorted(times):
        lo = max(0, int(math.ceil(time - threshold)))
        hi = min(max_day, int(math.floor(time)))
        if lo > max_day or hi < 0 or lo > hi:
            continue
        if intervals and lo <= intervals[-1][1] + 1:
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], hi))
        else:
            intervals.append((lo, hi))
    return intervals


def interarrival_by_membership_reference(
    stream: EventStream, membership: CommunityMembership
) -> dict[str, np.ndarray]:
    """Per node: its gaps, pooled by whether it is in a community."""
    members = membership.community_nodes()
    groups: dict[str, list[float]] = {"community": [], "non_community": []}
    for node, times in node_edge_times_reference(stream).items():
        gaps = node_interarrival_times(times)
        if gaps.size == 0:
            continue
        key = "community" if node in members else "non_community"
        groups[key].extend(gaps.tolist())
    return {key: np.asarray(vals) for key, vals in groups.items()}


def lifetime_by_community_size_reference(
    stream: EventStream,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """Per node: its lifetime, pooled by its community's size bucket."""
    arrival = stream.node_arrival_times()
    groups: dict[str, list[float]] = {"non_community": []}
    for lo, hi in buckets:
        groups[_bucket_label(lo, hi)] = []
    for node, times in node_edge_times_reference(stream).items():
        lifetime = times[-1] - arrival[node]
        label = membership.bucket_of(node, buckets)
        groups[label if label is not None else "non_community"].append(lifetime)
    return {key: np.asarray(vals) for key, vals in groups.items()}


def in_degree_ratio_by_size_reference(
    graph: CSRGraph,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """Per community member: its inside-edge share, pooled by size bucket."""
    groups: dict[str, list[float]] = {}
    for lo, hi in buckets:
        groups[_bucket_label(lo, hi)] = []
    nodes = np.fromiter(membership.community_of, dtype=np.int64, count=len(membership.community_of))
    present = np.isin(nodes, graph.node_ids)
    community = np.full(graph.num_nodes, -1, dtype=np.int64)
    labels = np.fromiter(membership.community_of.values(), dtype=np.int64, count=nodes.size)
    positions = graph.positions_of(nodes[present])
    community[positions] = labels[present]
    row = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    same = community[row] == community[graph.indices]
    inside = np.bincount(row[same], minlength=graph.num_nodes)
    degree = graph.degrees[positions].tolist()
    kept = inside[positions].tolist()
    for node, k, own in zip(nodes[present].tolist(), degree, kept, strict=True):
        if k == 0:
            continue
        label = membership.bucket_of(node, buckets)
        if label is None:
            continue
        groups[label].append(own / k)
    return {key: np.asarray(vals) for key, vals in groups.items()}
