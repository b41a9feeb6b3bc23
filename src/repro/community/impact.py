"""Impact of community membership on user activity (paper §4.4, Figure 7).

Users inside detected communities are compared against users outside any
community on three activity dimensions:

* edge inter-arrival times (community users create edges faster, Fig 7a);
* user lifetime — join time to last edge — bucketed by community size
  (larger communities → longer-lived users, Fig 7b);
* in-degree ratio — the fraction of a user's edges that stay inside their
  community (larger communities → more internal activity, Fig 7c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.community.tracking import TrackedSnapshot
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph

__all__ = [
    "SIZE_BUCKETS_PAPER",
    "CommunityMembership",
    "membership_of",
    "interarrival_by_membership",
    "lifetime_by_community_size",
    "in_degree_ratio_by_size",
]

#: The paper's community-size buckets for Figures 7(b) and 7(c).
SIZE_BUCKETS_PAPER: tuple[tuple[int, float], ...] = (
    (10, 100),
    (100, 1_000),
    (1_000, 100_000),
    (100_000, float("inf")),
)


@dataclass(frozen=True)
class CommunityMembership:
    """Node → community assignment derived from one tracked snapshot."""

    community_of: dict[int, int]
    size_of: dict[int, int]

    def community_nodes(self) -> set[int]:
        """All nodes belonging to some community."""
        return set(self.community_of)

    def bucket_of(self, node: int, buckets: tuple[tuple[int, float], ...]) -> str | None:
        """Label of the size bucket the node's community falls into."""
        community = self.community_of.get(node)
        if community is None:
            return None
        size = self.size_of[community]
        for lo, hi in buckets:
            if lo <= size < hi:
                return _bucket_label(lo, hi)
        return None

    def bucket_index(self, nodes: np.ndarray, buckets: tuple[tuple[int, float], ...]) -> np.ndarray:
        """Per node, the index of its community's size bucket; -1 if none applies.

        The first bucket with ``lo <= size < hi`` wins, as in :meth:`bucket_of`.
        """
        index = np.full(len(nodes), -1, dtype=np.int64)
        if not self.community_of:
            return index
        members = np.fromiter(self.community_of, dtype=np.int64)
        lineage = np.fromiter(self.community_of.values(), dtype=np.int64)
        lineages = np.fromiter(self.size_of, dtype=np.int64)
        sizes = np.fromiter(self.size_of.values(), dtype=np.float64)
        by_lineage = np.argsort(lineages)
        member_size = sizes[by_lineage[np.searchsorted(lineages[by_lineage], lineage)]]
        by_id = np.argsort(members)
        pos = by_id[np.minimum(np.searchsorted(members[by_id], nodes), members.size - 1)]
        size = np.where(members[pos] == nodes, member_size[pos], np.nan)
        for i, (lo, hi) in enumerate(buckets):
            index[(index < 0) & (lo <= size) & (size < hi)] = i
        return index


def _bucket_label(lo: int, hi: float) -> str:
    return f"[{lo},{int(hi)}]" if np.isfinite(hi) else f"{lo}+"


def membership_of(snapshot: TrackedSnapshot) -> CommunityMembership:
    """Extract node→community membership from a tracked snapshot."""
    community_of: dict[int, int] = {}
    size_of: dict[int, int] = {}
    for lineage, state in snapshot.states.items():
        size_of[lineage] = state.size
        for node in state.members:
            community_of[node] = lineage
    return CommunityMembership(community_of=community_of, size_of=size_of)


def interarrival_by_membership(
    stream: EventStream,
    membership: CommunityMembership,
) -> dict[str, np.ndarray]:
    """Pooled edge inter-arrival gaps for community vs non-community users."""
    columns = stream.node_edge_columns()
    gaps, closing = columns.gaps()
    members = np.fromiter(membership.community_of, dtype=np.int64)
    inside = np.isin(columns.node, members)[columns.rows()[closing]]
    return {"community": gaps[inside], "non_community": gaps[~inside]}


def lifetime_by_community_size(
    stream: EventStream,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """User lifetimes grouped by community-size bucket (plus non-community).

    Lifetime is the gap between a user's last edge creation and their join
    time (§4.4); users with no edges are skipped.
    """
    columns = stream.node_edge_columns()
    lifetime = columns.time[columns.indptr[1:] - 1] - columns.born
    bucket = membership.bucket_index(columns.node, buckets)
    groups = {"non_community": lifetime[bucket < 0]}
    for i, (lo, hi) in enumerate(buckets):
        groups[_bucket_label(lo, hi)] = lifetime[bucket == i]
    return groups


def in_degree_ratio_by_size(
    graph: CSRGraph,
    membership: CommunityMembership,
    buckets: tuple[tuple[int, float], ...] = SIZE_BUCKETS_PAPER,
) -> dict[str, np.ndarray]:
    """Per-user in-degree ratios grouped by community-size bucket (Fig 7c).

    A user's in-degree ratio is the fraction of their edges that stay
    inside their own community; zero-degree users and users absent from
    ``graph`` are skipped.
    """
    nodes = np.fromiter(membership.community_of, dtype=np.int64, count=len(membership.community_of))
    present = np.isin(nodes, graph.node_ids)
    # Position -> community id, -1 outside every community.
    community = np.full(graph.num_nodes, -1, dtype=np.int64)
    labels = np.fromiter(membership.community_of.values(), dtype=np.int64, count=nodes.size)
    positions = graph.positions_of(nodes[present])
    community[positions] = labels[present]
    row = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    same = community[row] == community[graph.indices]
    inside = np.bincount(row[same], minlength=graph.num_nodes)
    degree = graph.degrees[positions]
    bucket = np.where(degree > 0, membership.bucket_index(nodes[present], buckets), -1)
    ratio = inside[positions] / np.maximum(degree, 1)
    return {_bucket_label(lo, hi): ratio[bucket == i] for i, (lo, hi) in enumerate(buckets)}
