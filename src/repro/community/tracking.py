"""Similarity-based community tracking across snapshots (paper §4.1).

Communities are detected per snapshot with incremental Louvain (seeded by
the previous partition) and matched across consecutive snapshots by Jaccard
similarity, following [Greene et al. 2010] as modified by the paper:

* each new community's **parent** is the previous community with the
  highest Jaccard similarity;
* when one previous community is the best parent of two or more new
  communities, it **split**: the most similar child continues its lineage,
  the others are *born*;
* a previous community continued by no child has **died**; if most of its
  nodes moved into some new community it was **merged** into that
  community's lineage, otherwise it dissolved;
* when two or more previous communities merge into one new community, the
  one with the highest similarity survives (the paper's rule).

The tracker also records, per merge, whether the absorbing community was
the one with the most edges to the dying community in the previous
snapshot (the "strongest tie" analysis of Figure 6c), and per snapshot the
structural state of every tracked community (feeding Figure 6b's merge
predictor).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.community.louvain import LouvainResult, louvain
from repro.graph.dynamic import DynamicGraph, snapshot_times
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from repro.kernels.matching import Lineages, match_communities_csr
from repro.obs import get_recorder
from repro.util.rng import make_rng

__all__ = [
    "jaccard",
    "CommunityState",
    "CommunityEvent",
    "CommunityLineage",
    "TrackedSnapshot",
    "CommunityTracker",
    "track_deltas",
    "track_stream",
]


def jaccard(a: set[int] | frozenset[int], b: set[int] | frozenset[int]) -> float:
    """Jaccard coefficient |a ∩ b| / |a ∪ b| (0.0 when both are empty)."""
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


@dataclass(frozen=True)
class CommunityState:
    """One tracked community at one snapshot.

    ``in_degree_ratio`` is the paper's community feature: edges inside the
    community over the sum of its members' degrees.  ``similarity`` is the
    Jaccard similarity to the community's previous incarnation (``nan`` at
    birth).
    """

    lineage: int
    time: float
    members: frozenset[int]
    internal_edges: int
    degree_sum: int
    similarity: float

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    @property
    def in_degree_ratio(self) -> float:
        """Internal-edge mass over total degree mass (0 when degreeless)."""
        if self.degree_sum == 0:
            return 0.0
        return self.internal_edges / self.degree_sum


@dataclass(frozen=True)
class CommunityEvent:
    """A lifecycle event: ``kind`` ∈ {birth, death, merge, split}.

    * ``merge``: ``subject`` died by merging into ``other``;
      ``size_ratio`` = |second largest| / |largest| over the merging set;
      ``strongest_tie`` says whether ``other`` had the most edges to
      ``subject`` beforehand.
    * ``split``: ``subject`` split; ``children`` are the born lineages;
      ``size_ratio`` compares the two largest fragments.
    """

    kind: str
    time: float
    subject: int
    other: int | None = None
    children: tuple[int, ...] = ()
    size_ratio: float = float("nan")
    strongest_tie: bool | None = None


@dataclass
class CommunityLineage:
    """The full history of one tracked community."""

    lineage: int
    states: list[CommunityState] = field(default_factory=list)
    death_time: float | None = None
    death_reason: str | None = None  # "merge" | "dissolve"

    @property
    def born(self) -> float:
        """Time of the first snapshot this lineage appears in."""
        return self.states[0].time

    @property
    def last_seen(self) -> float:
        """Time of the lineage's final snapshot."""
        return self.states[-1].time

    def lifetime(self) -> float:
        """Days between birth and death (or last observation if alive)."""
        end = self.death_time if self.death_time is not None else self.last_seen
        return end - self.born


@dataclass(frozen=True)
class TrackedSnapshot:
    """Per-snapshot output: tracked states plus quality measures."""

    time: float
    states: dict[int, CommunityState]
    modularity: float
    avg_similarity: float
    num_communities: int


class CommunityTracker:
    """Feeds snapshots in chronological order; accumulates lineages/events."""

    def __init__(
        self,
        delta: float = 0.04,
        min_size: int = 10,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.delta = delta
        self.min_size = min_size
        self._rng = make_rng(seed)
        self._prev_result: LouvainResult | None = None
        self._prev_states: dict[int, CommunityState] = {}
        none = np.empty(0, dtype=np.int64)
        self._prev_lineages = Lineages(none, none, none)
        self._prev_graph: CSRGraph | None = None
        self._next_lineage = 0
        self.lineages: dict[int, CommunityLineage] = {}
        self.events: list[CommunityEvent] = []
        self.snapshots: list[TrackedSnapshot] = []

    # -- public API -----------------------------------------------------

    def step(self, time: float, graph: CSRGraph) -> TrackedSnapshot:
        """Process the next snapshot and return its tracked view."""
        result = louvain(
            graph,
            delta=self.delta,
            seed_partition=self._prev_result,
            seed=self._rng,
        )
        assigned, similarities, lineages = self._match(time, result)
        avg_sim = float(np.mean(similarities)) if similarities else float("nan")
        snapshot = TrackedSnapshot(
            time=time,
            states=assigned,
            modularity=result.modularity,
            avg_similarity=avg_sim,
            num_communities=len(assigned),
        )
        self.snapshots.append(snapshot)
        self._prev_result = result
        self._prev_states = assigned
        self._prev_lineages = lineages
        self._prev_graph = graph
        return snapshot

    # -- matching core ----------------------------------------------------

    def _match(
        self, time: float, result: LouvainResult
    ) -> tuple[dict[int, CommunityState], list[float], Lineages]:
        prev_states = self._prev_states
        # The communities of at least ``min_size`` nodes, numbered by
        # ascending label: iteration order over ``raw`` decides birth
        # lineage numbering and tie-breaks downstream, and label values
        # (unlike dict insertion order) are identical between kernel and
        # reference.
        tracked, positions, bounds = result.members(self.min_size)
        ids = result.node_ids[positions]
        community = np.repeat(np.arange(tracked.size, dtype=np.int64), np.diff(bounds))
        new_labels = result.labels[positions[bounds[:-1]]].tolist()
        # A set of the ids in partition order, then frozen: Figure 6c's
        # tie-breaks and Figure 7 iterate these sets, so their table layout
        # is pinned (tests/test_community_tracking.py).
        id_list, lo = ids.tolist(), bounds.tolist()
        raw = {
            label: frozenset(set(id_list[lo[c] : lo[c + 1]])) for c, label in enumerate(new_labels)
        }
        parent, overlaps = match_communities_csr(new_labels, ids, community, self._prev_lineages)

        # Winner child per lineage (continuation); the rest are split-born.
        claimants: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for label, best in parent.items():
            if best is not None:
                claimants[best[0]].append((label, best[1]))

        lineage_of: dict[int, int] = {}
        similarity_of: dict[int, float] = {}
        continued: set[int] = set()
        for lin, labels in claimants.items():
            # Most similar first; ties go to the smallest label so the
            # winner never depends on claimant insertion order.
            labels.sort(key=lambda pair: (-pair[1], pair[0]))
            winner, sim = labels[0]
            lineage_of[winner] = lin
            similarity_of[winner] = sim
            continued.add(lin)
        # Births: no parent, or lost the claim.
        born_children: dict[int, list[int]] = defaultdict(list)
        for label in raw:
            if label in lineage_of:
                continue
            new_lin = self._new_lineage()
            lineage_of[label] = new_lin
            similarity_of[label] = float("nan")
            best = parent[label]
            if best is not None and best[0] in continued:
                born_children[best[0]].append(new_lin)
            self.events.append(CommunityEvent(kind="birth", time=time, subject=new_lin))

        # Split events.
        for lin, children in born_children.items():
            sizes = sorted(
                (len(raw[label]) for label, owner in lineage_of.items()
                 if owner == lin or owner in children),
                reverse=True,
            )
            ratio = sizes[1] / sizes[0] if len(sizes) >= 2 else float("nan")
            self.events.append(
                CommunityEvent(
                    kind="split",
                    time=time,
                    subject=lin,
                    children=tuple(children),
                    size_ratio=ratio,
                )
            )

        # Deaths: merge or dissolve; also gather merge groups per target label.
        merge_groups: dict[int, list[int]] = defaultdict(list)
        for lin, state in prev_states.items():
            if lin in continued:
                continue
            target = self._merge_target(state, overlaps)
            if target is None:
                self._record_death(lin, time, "dissolve")
                self.events.append(CommunityEvent(kind="death", time=time, subject=lin))
            else:
                merge_groups[target].append(lin)

        # Each previously tracked node's lineage, for the strongest ties.
        node_lineage: dict[int, int] = {}
        if merge_groups:
            prev = self._prev_lineages
            lineage_ids = prev.lineages[prev.rank].tolist()
            node_lineage = dict(zip(prev.ids.tolist(), lineage_ids, strict=True))
        for label, absorbed in merge_groups.items():
            survivor = lineage_of[label]
            group_sizes = sorted(
                [prev_states[lin].size for lin in absorbed]
                + ([prev_states[survivor].size] if survivor in prev_states else []),
                reverse=True,
            )
            ratio = group_sizes[1] / group_sizes[0] if len(group_sizes) >= 2 else float("nan")
            for lin in absorbed:
                tie = self._strongest_tie(prev_states[lin], survivor, node_lineage)
                self._record_death(lin, time, "merge")
                self.events.append(
                    CommunityEvent(
                        kind="merge",
                        time=time,
                        subject=lin,
                        other=survivor,
                        size_ratio=ratio,
                        strongest_tie=tie,
                    )
                )

        # Build states and extend lineages.
        assigned: dict[int, CommunityState] = {}
        similarities: list[float] = []
        internal_edges = result.internal_edges[tracked].tolist()
        degree_sums = result.degree_sums[tracked].tolist()
        stats = zip(raw.items(), internal_edges, degree_sums, strict=True)
        for (label, members), internal, degree_sum in stats:
            lin = lineage_of[label]
            state = CommunityState(
                lineage=lin,
                time=time,
                members=members,
                internal_edges=internal,
                degree_sum=degree_sum,
                similarity=similarity_of[label],
            )
            assigned[lin] = state
            if lin not in self.lineages:
                self.lineages[lin] = CommunityLineage(lineage=lin)
            self.lineages[lin].states.append(state)
            if np.isfinite(state.similarity):
                similarities.append(state.similarity)
        # ``assigned`` is in community order, so its keys are each community's lineage.
        lineage = np.array(list(assigned), dtype=np.int64)
        return assigned, similarities, Lineages.of(lineage, ids, community)

    # -- helpers ---------------------------------------------------------

    def _new_lineage(self) -> int:
        lin = self._next_lineage
        self._next_lineage += 1
        self.lineages[lin] = CommunityLineage(lineage=lin)
        return lin

    def _merge_target(
        self,
        state: CommunityState,
        overlaps: Mapping[int, Counter],
    ) -> int | None:
        """The new community label that received the most of this community."""
        best_label, best_count = None, 0
        for label, counter in overlaps.items():
            count = counter.get(state.lineage, 0)
            if count > best_count:
                best_label, best_count = label, count
        return best_label

    def _strongest_tie(
        self, dying: CommunityState, survivor: int, node_lineage: Mapping[int, int]
    ) -> bool | None:
        """Whether ``survivor`` had the most edges to ``dying`` pre-merge.

        ``node_lineage`` maps each previously tracked node to its lineage.
        """
        graph = self._prev_graph
        if graph is None:
            return None
        ties: Counter = Counter()
        for node in dying.members:
            for nbr in _neighbor_set(graph, node):
                lin = node_lineage.get(nbr)
                if lin is not None and lin != dying.lineage:
                    ties[lin] += 1
        if not ties:
            return None
        strongest, _ = ties.most_common(1)[0]
        return strongest == survivor

    def _record_death(self, lineage: int, time: float, reason: str) -> None:
        record = self.lineages[lineage]
        record.death_time = time
        record.death_reason = reason


def track_stream(
    stream: EventStream,
    interval: float = 3.0,
    start: float | None = None,
    delta: float = 0.04,
    min_size: int = 10,
    min_nodes: int = 64,
    seed: int = 0,
) -> CommunityTracker:
    """Track communities over ``stream`` at a fixed snapshot cadence.

    Mirrors the paper's setup: 3-day snapshots, starting once the network
    has at least ``min_nodes`` nodes (the paper starts at day 20 / 64
    nodes), considering only communities larger than ``min_size``.
    """
    tracker = CommunityTracker(delta=delta, min_size=min_size, seed=seed)
    _replay(stream, [tracker], interval, start, min_nodes)
    return tracker


def track_deltas(
    stream: EventStream,
    deltas: Iterable[float],
    interval: float = 3.0,
    start: float | None = None,
    min_size: int = 10,
    min_nodes: int = 64,
    seed: int = 0,
) -> dict[float, CommunityTracker]:
    """One tracker per δ in ``deltas``, all stepped from one replay of ``stream``.

    Equal to ``{delta: track_stream(stream, ..., delta=delta, ...)}``: each
    tracker draws from its own RNG seeded with ``seed``, and the trackers
    share only the snapshots, which are immutable.
    """
    trackers = {
        delta: CommunityTracker(delta=delta, min_size=min_size, seed=seed) for delta in deltas
    }
    _replay(stream, list(trackers.values()), interval, start, min_nodes)
    return trackers


def _replay(
    stream: EventStream,
    trackers: list[CommunityTracker],
    interval: float,
    start: float | None,
    min_nodes: int,
) -> None:
    """Step each tracker, in order, on every snapshot of at least ``min_nodes`` nodes."""
    rec = get_recorder()
    replay = DynamicGraph(stream)
    for index, time in enumerate(snapshot_times(stream.end_time, interval, start)):
        with rec.span("replay.advance", snapshot=index):
            view = replay.advance_to(time)
        if view.graph.num_nodes >= min_nodes:
            for tracker in trackers:
                tracker.step(view.time, view.graph)


def _neighbor_set(graph: CSRGraph, node: int) -> set[int]:
    """``node``'s neighbor ids as the set the strongest-tie count iterates.

    The count's tie-break is ``Counter.most_common`` insertion order, which
    follows the iteration order of these sets.  The tracker used to keep a
    ``copy()`` of the replay's dict-of-sets graph, whose sets had grown by
    one ``add`` per edge in arrival order; ``set(set(...))`` of the
    neighbors in arrival order rebuilds that copy's layout, and with it
    the same tie-breaks.
    """
    p = int(graph.positions_of(np.array([node], dtype=np.int64))[0])
    lo, hi = int(graph.indptr[p]), int(graph.indptr[p + 1])
    neighbors = graph.indices[lo:hi]
    if graph.arrival is not None:
        neighbors = neighbors[np.argsort(graph.arrival[lo:hi], kind="stable")]
    return set(set(graph.node_ids[neighbors].tolist()))
