"""The trace generator: whole-day batches, streamed to memory or a store.

:class:`FastGenerator` simulates a Renren-like dynamic social network and
emits its timestamped node and edge arrivals.  The model:

* Poisson node arrivals under an exponential envelope with seasonal dips
  (:mod:`repro.gen.arrivals`);
* Pareto-tailed edge budgets, an arrival-day burst, background activity
  and power-law gaps whose clock slows as the user ages, so activity is
  front-loaded (:func:`schedule_initiations`);
* a destination mixture of triadic closure, preferential attachment that
  decays with the edge count (:func:`~repro.gen.config.pa_weight`), and
  uniform attachment, drawn from the initiator's home community with
  decaying locality;
* home communities from a dampened Chinese-restaurant process
  (:class:`HomeCommunities`) and loner invite clusters;
* an optional one-day merge with a second, independently grown network.

The engine samples *windows of days at a time* with numpy and never
constructs per-event Python objects: event batches stream straight into a
:class:`~repro.store.writer.StoreWriter` through ``append_arrays``.
Initiations are resolved in chunks; destination pools refresh once per
chunk of at most a few thousand events rather than after every edge.

Determinism contract
    Same ``(config, seed)`` → byte-identical event arrays, and therefore a
    byte-identical store content digest.  All randomness flows through one
    seeded PCG64 generator, batch boundaries are a pure function of the
    config and the arrival draws, and every reduction is order-stable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.gen.arrivals import arrival_counts
from repro.gen.config import GeneratorConfig, pa_weight, secondary_config, spotlight_weight
from repro.gen.pools import BucketPools, GrowingArray, HashKeySet, pack_edge_keys
from repro.gen.seasonal import seasonal_factor
from repro.graph.events import (
    ORIGIN_5Q,
    ORIGIN_NEW,
    ORIGIN_XIAONEI,
    EdgeColumns,
    EventStream,
    NodeColumns,
)
from repro.obs import get_recorder
from repro.util.arrays import AnyArray, BoolArray, FloatArray, IntArray, UInt16Array
from repro.util.rng import make_rng

if TYPE_CHECKING:
    from repro.store.format import Manifest
    from repro.store.writer import StoreWriter

__all__ = [
    "FastGenerator", "HomeCommunities", "draw_budgets", "generate_store", "generate_trace",
    "power_law_gaps", "schedule_initiations",
]

# Engine-internal origin codes (mapped to store codes lazily at the sink).
_XIAONEI, _5Q, _NEW = 0, 1, 2
_ORIGIN_LABELS = (ORIGIN_XIAONEI, ORIGIN_5Q, ORIGIN_NEW)

_MAX_ATTEMPTS = 16  # proposal rounds per initiation before the slot is dropped
# Unresolved initiations carried between chunks: (times, nodes, w_local, attempts).
_Carry = tuple[FloatArray, IntArray, FloatArray, IntArray]
# Initiations are committed in chunks: small chunks early (the PA weight
# decays fast on the first few thousand edges), capped later when pool
# staleness within a chunk is negligible relative to the network size.
_CHUNK_MIN = 128
_CHUNK_MAX = 16384
# A window accumulates whole days until roughly this many scheduled
# initiations, so per-window fixed numpy overhead amortizes at any scale.
_WINDOW_TARGET_MIN = 16384
_WINDOW_COUNT_HINT = 256
# Rejection rounds of the dampened CRP before a proposal is taken as is.
_CRP_REJECTIONS = 16


def draw_budgets(config: GeneratorConfig, count: int, rng: np.random.Generator) -> IntArray:
    """Draw ``count`` lifetime edge-initiation budgets.

    Pareto-tailed (shape ``budget_shape``) with mean ≈ ``mean_budget``,
    clipped to ``[1, budget_cap]``.  Heavy-tailed budgets create the
    "supernodes" whose visibility drives early preferential attachment.
    """
    shape = config.budget_shape
    if shape <= 1:
        raise ValueError("budget_shape must exceed 1 for a finite mean")
    scale = config.mean_budget * (shape - 1) / shape
    drawn = np.round(scale * (1.0 + rng.pareto(shape, count)))
    return np.clip(drawn, 1, config.budget_cap).astype(np.int64)


def power_law_gaps(
    count: int,
    exponent: float,
    min_gap: float,
    rng: np.random.Generator,
    max_gap: float = 365.0,
) -> FloatArray:
    """Draw ``count`` inter-arrival gaps with PDF ∝ gap^-``exponent``.

    Inverse-transform sampling of a Pareto with density exponent
    ``exponent`` (> 1) and minimum ``min_gap``; gaps are capped at
    ``max_gap`` so a single draw cannot stall a node past any realistic
    trace length.
    """
    if exponent <= 1:
        raise ValueError("exponent must exceed 1")
    u = rng.random(count)
    return np.minimum(min_gap * u ** (-1.0 / (exponent - 1.0)), max_gap)


# The post-burst gap clock slows with age: elapsed activity time ``s`` lands
# at trace time ``s + s**2 / (2 * tau)``, so the initiation rate falls as
# ``1 / sqrt(1 + 2 * age / tau)``.  ``tau`` is this share of the trace
# length, so compressed presets keep the same lifetime shape.
_ACTIVITY_DECAY_SHARE = 0.05


def _age_clock(elapsed: FloatArray, config: GeneratorConfig) -> FloatArray:
    """Map post-burst activity time to time since the day after arrival."""
    tau = _ACTIVITY_DECAY_SHARE * config.days
    return elapsed + elapsed * elapsed / (2.0 * tau)


def schedule_initiations(
    arrival_times: FloatArray,
    budgets: IntArray,
    config: GeneratorConfig,
    rng: np.random.Generator,
) -> tuple[FloatArray, IntArray]:
    """The times at which a batch of users will initiate edges.

    Returns ``(times, owners)``: one entry per initiation, ``owners``
    indexing ``arrival_times``.  Each user spends ``1 + Poisson(burst_mean)``
    initiations (capped at its budget) on its arrival day.  Of the rest,
    ``long_term_fraction`` is spread uniformly over the user's remaining
    trace lifetime (background sociality between mature users, Fig 2c) and
    the remainder follows cumulative power-law gaps from the day after
    arrival.  The gap clock slows as the user ages (:func:`_age_clock`), so
    the post-burst rate declines instead of running at a constant rate
    until the budget is spent (the front-loaded lifetime of Fig 2b), so a
    high-budget user does not stay a top initiator for the whole trace.
    Times past the trace end are kept; the simulator drops them, so
    truncation cannot bias early activity.
    """
    count = len(arrival_times)
    burst = np.minimum(budgets, rng.poisson(config.burst_mean, count) + 1)
    remaining = budgets - burst
    span = np.maximum(1.0, config.days - arrival_times)
    background = np.where(
        remaining > 0, np.round(remaining * config.long_term_fraction).astype(np.int64), 0
    )
    gap_count = np.maximum(remaining - background, 0)

    burst_times = np.repeat(arrival_times, burst) + rng.random(int(burst.sum()))
    bg_total = int(background.sum())
    bg_times = np.repeat(arrival_times, background) + np.repeat(
        span, background
    ) * rng.random(bg_total)
    gaps = power_law_gaps(
        int(gap_count.sum()), config.gap_exponent, config.gap_min_days, rng
    )
    elapsed = _segmented_cumsum(gaps, gap_count)
    gap_times = np.repeat(arrival_times + 1.0, gap_count) + _age_clock(elapsed, config)

    times = np.concatenate((burst_times, bg_times, gap_times))
    owners = np.arange(count, dtype=np.int64)
    return times, np.concatenate(
        (np.repeat(owners, burst), np.repeat(owners, background), np.repeat(owners, gap_count))
    )
class HomeCommunities:
    """Batched dampened Chinese-restaurant process over home communities.

    An arriving user founds a new community with probability ``new_prob``
    and otherwise joins an existing one with probability ∝
    ``size ** size_exponent``: sublinear, so a power-law size head leaves
    room for many mid-size communities (paper Fig 4c).  Joiners propose by
    a uniform draw from the flat membership list (size-proportional) and
    accept with probability ``size ** (size_exponent - 1)``.  A batch sees
    the membership as of its start, except the very first one.
    """

    def __init__(
        self, new_prob: float, size_exponent: float, rng: np.random.Generator
    ) -> None:
        if not 0 < new_prob <= 1:
            raise ValueError(f"new_prob must be in (0, 1], got {new_prob}")
        if not 0 < size_exponent <= 1:
            raise ValueError(f"size_exponent must be in (0, 1], got {size_exponent}")
        self.new_prob = new_prob
        self.size_exponent = size_exponent
        self._rng = rng
        #: Members per community id.
        self.sizes = np.zeros(64, dtype=np.int64)
        #: Community ids handed out so far (founded or reserved).
        self.num_communities = 0
        # One entry per member, holding its community: a uniform draw is a
        # size-proportional community choice.
        self._draws = GrowingArray(np.int64)

    def reserve(self, count: int) -> int:
        """Hand out ``count`` ids that newcomers never join; returns the first."""
        first = self.num_communities
        self._grow(first + count)
        self.num_communities += count
        return first

    def assign(self, count: int) -> IntArray:
        """Assign ``count`` newcomers to communities; returns their ids."""
        rng = self._rng
        exponent = self.size_exponent - 1.0
        out = np.empty(count, dtype=np.int64)
        if len(self._draws) == 0:
            # The first batch runs sequentially so its members can join
            # communities founded earlier in the batch.
            flat: list[int] = []
            for i in range(count):
                if not flat or rng.random() < self.new_prob:
                    comm = self.reserve(1)
                else:
                    comm = flat[int(rng.integers(len(flat)))]
                    for _ in range(_CRP_REJECTIONS):
                        if rng.random() < self.sizes[comm] ** exponent:
                            break
                        comm = flat[int(rng.integers(len(flat)))]
                self.sizes[comm] += 1
                flat.append(comm)
                out[i] = comm
            self._draws.extend(out)
            return out
        new_mask = rng.random(count) < self.new_prob
        join_idx = np.flatnonzero(~new_mask)
        if len(join_idx):
            # All proposals at once: each joiner takes its first accepted
            # proposal, or its last one when every test rejects.
            joiners = len(join_idx)
            cand = self._draws.sample(rng.random((joiners, _CRP_REJECTIONS + 1)))
            accept = (
                rng.random((joiners, _CRP_REJECTIONS))
                < self.sizes[cand[:, :-1]].astype(np.float64) ** exponent
            )
            pick = np.where(accept.any(axis=1), accept.argmax(axis=1), _CRP_REJECTIONS)
            out[join_idx] = cand[np.arange(joiners), pick]
        n_new = count - len(join_idx)
        if n_new:
            out[new_mask] = self.reserve(n_new) + np.arange(n_new, dtype=np.int64)
        np.add.at(self.sizes, out, 1)
        self._draws.extend(out)
        return out

    def _grow(self, count: int) -> None:
        if count > len(self.sizes):
            grown = np.zeros(max(count, 2 * len(self.sizes)), dtype=np.int64)
            grown[: len(self.sizes)] = self.sizes
            self.sizes = grown


class _WindowBuffer:
    """Per-window emission buffer; flushed time-sorted to the sink."""

    def __init__(self) -> None:
        self._node_times: list[FloatArray] = []
        self._node_ids: list[IntArray] = []
        self._node_codes: list[UInt16Array] = []
        self._edge_times: list[FloatArray] = []
        self._edge_us: list[IntArray] = []
        self._edge_vs: list[IntArray] = []

    def nodes(self, times: FloatArray, ids: IntArray, code: int) -> None:
        self._node_times.append(times)
        self._node_ids.append(ids)
        self._node_codes.append(np.full(len(ids), code, dtype=np.uint16))

    def edges(self, times: FloatArray, us: IntArray, vs: IntArray) -> None:
        self._edge_times.append(times)
        self._edge_us.append(us)
        self._edge_vs.append(vs)

    def flush(self, sink: _StreamSink | _StoreSink) -> tuple[int, int]:
        """Sort each event kind by time and hand the arrays to the sink."""
        emitted_nodes = emitted_edges = 0
        if self._node_times:
            times = np.concatenate(self._node_times)
            order = np.argsort(times)
            sink.nodes(
                times[order],
                np.concatenate(self._node_ids)[order],
                np.concatenate(self._node_codes)[order],
            )
            emitted_nodes = len(times)
        if self._edge_times:
            times = np.concatenate(self._edge_times)
            order = np.argsort(times)
            sink.edges(
                times[order],
                np.concatenate(self._edge_us)[order],
                np.concatenate(self._edge_vs)[order],
            )
            emitted_edges = len(times)
        return emitted_nodes, emitted_edges


class _StreamSink:
    """Collects emitted arrays; builds a validated EventStream at the end."""

    def __init__(self) -> None:
        self._nodes: list[tuple[FloatArray, IntArray, UInt16Array]] = []
        self._edges: list[tuple[FloatArray, IntArray, IntArray]] = []

    def nodes(self, times: FloatArray, ids: IntArray, codes: UInt16Array) -> None:
        self._nodes.append((times, ids, codes))

    def edges(self, times: FloatArray, us: IntArray, vs: IntArray) -> None:
        self._edges.append((times, us, vs))

    def build(self) -> EventStream:
        # Batches arrive time-sorted and in time order (the store sink's
        # writer enforces the same), so concatenation keeps emission order.
        times, ids, codes = _concat(self._nodes, (np.float64, np.int64, np.uint16))
        edge_times, us, vs = _concat(self._edges, (np.float64, np.int64, np.int64))
        stream = EventStream(
            nodes=NodeColumns(times, ids, codes, _ORIGIN_LABELS),
            edges=EdgeColumns(edge_times, us, vs),
        )
        stream.validate()
        return stream


def _concat(
    batches: Sequence[tuple[AnyArray, ...]], dtypes: tuple[type[np.generic], ...]
) -> list[AnyArray]:
    """Each column of ``batches`` concatenated (empty with ``dtypes`` if none)."""
    if not batches:
        return [np.empty(0, dtype=dtype) for dtype in dtypes]
    return [np.concatenate([batch[i] for batch in batches]) for i in range(len(dtypes))]


class _StoreSink:
    """Streams emitted arrays into a StoreWriter, interning origins lazily.

    Labels are interned on first use (in emission order), matching how
    ``write_store`` of the equivalent stream would build the origin table.
    """

    def __init__(self, writer: StoreWriter) -> None:
        self._writer = writer
        self._code_map = np.full(len(_ORIGIN_LABELS), -1, dtype=np.int64)

    def nodes(self, times: FloatArray, ids: IntArray, codes: UInt16Array) -> None:
        for code in np.unique(codes).tolist():
            if self._code_map[code] < 0:
                self._code_map[code] = int(
                    self._writer.intern_origins([_ORIGIN_LABELS[code]])[0]
                )
        # int64 codes: append_arrays owns the bounds-checked uint16 cast,
        # so a stale -1 in the code map raises instead of wrapping to 65535.
        self._writer.append_arrays(
            node_times=times,
            node_ids=ids,
            node_origins=self._code_map[codes],
        )

    def edges(self, times: FloatArray, us: IntArray, vs: IntArray) -> None:
        self._writer.append_arrays(edge_times=times, edge_us=us, edge_vs=vs)


class _FastUniverse:
    """Array-backed state of one evolving network (primary or secondary)."""

    def __init__(self, config: GeneratorConfig, emit: bool, rng: np.random.Generator) -> None:
        self.config = config
        self.emit = emit
        # Power-law degrees: most nodes stay near the median, so a small
        # pre-reserved slice per node skips the first relocation entirely.
        self.adjacency = BucketPools(default_cap=8)
        self.node_draws = GrowingArray(np.int64)
        self.endpoint_draws = GrowingArray(np.int64)
        self.comm_nodes = BucketPools(default_cap=8)
        self.comm_endpoints = BucketPools(default_cap=8)
        self.crp = HomeCommunities(
            config.community_new_prob, config.community_size_exponent, rng
        )
        self.clusters = BucketPools(default_cap=4)
        self.next_cluster = 0
        self._open_cluster = -1
        self._open_cap = 0
        self._open_fill = 0
        # Pre-size for the expected edge count (~budget per node, load
        # factor <= 1/4): skips every rehash along the way.
        expected_edges = int(config.target_nodes * config.mean_budget)
        self.edge_keys = HashKeySet(capacity=4 * max(1024, expected_edges))
        self.num_edges = 0
        self.seeded = False
        self.schedule: dict[int, list[tuple[FloatArray, IntArray]]] = defaultdict(list)
        # Arrivals are *assigned* (community, budget, schedule) as soon as a
        # window opens, but enter the sampling pools lazily, in time order —
        # otherwise a whole window of future nodes would dilute the early,
        # fast-decaying PA targeting.
        self._pend_reg: tuple[FloatArray, IntArray, IntArray] | None = None
        self._pend_lon: tuple[FloatArray, IntArray, IntArray] | None = None
        # Non-emitting universes record their edges for the merge import.
        self.edges_u = None if emit else GrowingArray(np.int64)
        self.edges_v = None if emit else GrowingArray(np.int64)

    def ensure_comms(self, count: int) -> None:
        self.comm_nodes.ensure_buckets(count)
        self.comm_endpoints.ensure_buckets(count)

    @staticmethod
    def _defer(
        pend: tuple[FloatArray, IntArray, IntArray] | None,
        times: FloatArray,
        ids: IntArray,
        groups: IntArray,
    ) -> tuple[FloatArray, IntArray, IntArray]:
        order = np.argsort(times)
        fresh = (times[order], ids[order], groups[order])
        if pend is None:
            return fresh
        all_times = np.concatenate((pend[0], fresh[0]))
        all_ids = np.concatenate((pend[1], fresh[1]))
        all_groups = np.concatenate((pend[2], fresh[2]))
        order = np.argsort(all_times)
        return (all_times[order], all_ids[order], all_groups[order])

    def defer_regular(self, times: FloatArray, ids: IntArray, comms: IntArray) -> None:
        self._pend_reg = self._defer(self._pend_reg, times, ids, comms)

    def defer_loner(self, times: FloatArray, ids: IntArray, clusters: IntArray) -> None:
        self._pend_lon = self._defer(self._pend_lon, times, ids, clusters)

    def flush_pools(self, up_to: float) -> None:
        """Move deferred arrivals with time <= ``up_to`` into the pools."""
        if self._pend_reg is not None:
            times, ids, comms = self._pend_reg
            k = int(np.searchsorted(times, up_to, side="right"))
            if k:
                self.comm_nodes.append(comms[:k], ids[:k])
                self.node_draws.extend(ids[:k])
                self._pend_reg = (times[k:], ids[k:], comms[k:]) if k < len(times) else None
        if self._pend_lon is not None:
            times, ids, clusters = self._pend_lon
            k = int(np.searchsorted(times, up_to, side="right"))
            if k:
                self.clusters.append(clusters[:k], ids[:k])
                self._pend_lon = (times[k:], ids[k:], clusters[k:]) if k < len(times) else None

    def push_schedule(self, times: FloatArray, nodes: IntArray, n_days: int) -> None:
        """Bucket future initiations by day, dropping times past the trace."""
        keep = times < n_days
        times, nodes = times[keep], nodes[keep]
        if len(times) == 0:
            return
        days = times.astype(np.int64)
        order = np.argsort(days)
        days, times, nodes = days[order], times[order], nodes[order]
        bounds = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.flatnonzero(np.diff(days)) + 1, [len(days)])
        )
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            self.schedule[int(days[lo])].append((times[lo:hi], nodes[lo:hi]))

    def pop_window(self, d0: int, d1: int) -> tuple[FloatArray, IntArray]:
        """Remove and return initiations scheduled in days [d0, d1), time-ordered."""
        parts: list[tuple[FloatArray, IntArray]] = []
        for day in range(d0, d1):
            parts.extend(self.schedule.pop(day, ()))
        if not parts:
            empty = np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
            return empty
        times = np.concatenate([p[0] for p in parts])
        nodes = np.concatenate([p[1] for p in parts])
        order = np.argsort(times)
        return times[order], nodes[order]


class FastGenerator:
    """Renren-like trace generator with in-memory or streaming store output.

    Usage::

        stream = FastGenerator(presets.small(), seed=7).generate()
        manifest = FastGenerator(presets.huge(), seed=7).generate_to_store("t.store")
    """

    def __init__(self, config: GeneratorConfig, seed: int | np.random.Generator | None = 0) -> None:
        self.config = config
        self.rng = make_rng(seed)
        capacity = max(1024, config.target_nodes // 4)
        self.arrival_time = np.zeros(capacity, dtype=np.float64)
        self.origin_code = np.zeros(capacity, dtype=np.uint8)
        self.loner = np.zeros(capacity, dtype=bool)
        self.degree = np.zeros(capacity, dtype=np.int64)
        self.community = np.full(capacity, -1, dtype=np.int64)
        self.cluster = np.full(capacity, -1, dtype=np.int64)
        self.inactive = np.zeros(capacity, dtype=bool)
        # Scratch for first-occurrence detection in _attach_batch; holds
        # only values written in the same round, so it never needs resetting.
        self._first_pos = np.zeros(capacity, dtype=np.int64)
        self._next_node = 0
        self._merged = False

    # -- public API -----------------------------------------------------

    def generate(self) -> EventStream:
        """Run the simulation and return a validated in-memory stream."""
        sink = _StreamSink()
        self._run(sink)
        return sink.build()

    def generate_to_store(
        self, path: str | Path, *, chunk_events: int | None = None
    ) -> Manifest:
        """Run the simulation streaming straight into a new store at ``path``.

        Returns the published :class:`~repro.store.format.Manifest`.  Peak
        memory is the generator state plus one window buffer and one store
        chunk per event kind — no full event list is ever materialized.
        """
        from repro.store.format import DEFAULT_CHUNK_EVENTS
        from repro.store.writer import StoreWriter

        writer = StoreWriter(path, chunk_events=chunk_events or DEFAULT_CHUNK_EVENTS)
        self._run(_StoreSink(writer))
        return writer.close()

    # -- simulation driver ----------------------------------------------

    def _run(self, sink: _StreamSink | _StoreSink) -> None:
        cfg = self.config
        rec = get_recorder()
        n_days = int(math.ceil(cfg.days))
        primary = _FastUniverse(cfg, emit=True, rng=self.rng)
        secondary = None
        sec_arrivals = None
        sec_start = merge_day = -1
        if cfg.merge is not None:
            sec_cfg = secondary_config(cfg)
            secondary = _FastUniverse(sec_cfg, emit=False, rng=self.rng)
            sec_start = int(cfg.merge.secondary_start_day)
            merge_day = int(cfg.merge.merge_day)

        primary_arrivals = arrival_counts(cfg, self.rng)
        if secondary is not None:
            sec_arrivals = arrival_counts(secondary.config, self.rng)
        factors = np.array([seasonal_factor(d, cfg.seasonal_dips) for d in range(n_days)])

        windows = self._window_bounds(
            n_days, primary_arrivals, sec_arrivals, sec_start, merge_day
        )
        with rec.span("gen.fast.generate", days=n_days, windows=len(windows)):
            for d0, d1 in windows:
                with rec.span("gen.fast.window", d0=d0, d1=d1):
                    buf = _WindowBuffer()
                    if secondary is not None and d0 >= merge_day:
                        self._execute_merge(primary, secondary, buf)
                        secondary = None
                    origin = _NEW if (cfg.merge is not None and d0 >= merge_day) else _XIAONEI
                    if not primary.seeded:
                        self._seed(primary, _XIAONEI, 0.0, buf)
                    self._run_window(
                        primary, d0, d1, primary_arrivals[d0:d1], factors, origin, buf
                    )
                    if secondary is not None and sec_arrivals is not None and d1 > sec_start:
                        lo = max(d0, sec_start)
                        hi = min(d1, sec_start + len(sec_arrivals))
                        if lo < hi:
                            if not secondary.seeded:
                                self._seed(secondary, _5Q, float(lo), None)
                            self._run_window(
                                secondary,
                                lo,
                                hi,
                                sec_arrivals[lo - sec_start : hi - sec_start],
                                None,
                                _5Q,
                                None,
                            )
                    nodes_out, edges_out = buf.flush(sink)
                    rec.count("gen.fast.nodes_emitted", nodes_out)
                    rec.count("gen.fast.edges_emitted", edges_out)

    def _window_bounds(
        self,
        n_days: int,
        primary_arrivals: IntArray,
        sec_arrivals: IntArray | None,
        sec_start: int,
        merge_day: int,
    ) -> list[tuple[int, int]]:
        """Split the trace into day windows of roughly equal event mass.

        Boundaries are forced at the secondary seed day and the merge day
        so both always land at a window start.
        """
        estimate = primary_arrivals.astype(np.float64) * max(1.0, self.config.mean_budget)
        if sec_arrivals is not None:
            sec_mass = sec_arrivals.astype(np.float64) * max(
                1.0, secondary_config(self.config).mean_budget
            )
            hi = min(n_days, sec_start + len(sec_mass))
            estimate[sec_start:hi] += sec_mass[: hi - sec_start]
        target = max(_WINDOW_TARGET_MIN, float(estimate.sum()) / _WINDOW_COUNT_HINT)
        forced = {day for day in (sec_start, merge_day) if day > 0}
        windows: list[tuple[int, int]] = []
        start, acc = 0, 0.0
        for day in range(n_days):
            acc += float(estimate[day])
            nxt = day + 1
            if nxt == n_days or nxt in forced or acc >= target:
                windows.append((start, nxt))
                start, acc = nxt, 0.0
        return windows

    # -- node arrivals ---------------------------------------------------

    def _ensure_nodes(self, count: int) -> None:
        have = len(self.arrival_time)
        if count <= have:
            return
        count = max(count, 2 * have)
        for name, fill in (
            ("arrival_time", 0.0),
            ("origin_code", 0),
            ("loner", False),
            ("degree", 0),
            ("community", -1),
            ("cluster", -1),
            ("inactive", False),
            ("_first_pos", 0),
        ):
            old = getattr(self, name)
            grown = np.full(count, fill, dtype=old.dtype)
            grown[:have] = old
            setattr(self, name, grown)

    def _alloc(self, count: int, origin: int) -> IntArray:
        ids = np.arange(self._next_node, self._next_node + count, dtype=np.int64)
        self._next_node += count
        self._ensure_nodes(self._next_node)
        self.origin_code[ids] = origin
        return ids

    def _register_arrivals(
        self,
        uni: _FastUniverse,
        ids: IntArray,
        times: FloatArray,
        loner_mask: BoolArray,
        n_days: int,
    ) -> None:
        """Assign communities/clusters, draw budgets, schedule activity."""
        self.arrival_time[ids] = times
        self.loner[ids] = loner_mask
        regular = ids[~loner_mask]
        if len(regular):
            # One CRP batch per arrival day: a community founded today can
            # attract tomorrow's newcomers, however long the window is.
            days = times[~loner_mask].astype(np.int64)
            cuts = np.flatnonzero(np.diff(days)) + 1
            communities = np.concatenate(
                [uni.crp.assign(len(part)) for part in np.split(regular, cuts)]
            )
            uni.ensure_comms(uni.crp.num_communities)
            self.community[regular] = communities
            uni.defer_regular(times[~loner_mask], regular, communities)
            self._schedule_regular(uni, regular, times[~loner_mask], n_days)
        loners = ids[loner_mask]
        if len(loners):
            clusters = self._assign_clusters(uni, len(loners))
            self.cluster[loners] = clusters
            uni.defer_loner(times[loner_mask], loners, clusters)
            self._schedule_loners(uni, loners, times[loner_mask], n_days)

    def _assign_clusters(self, uni: _FastUniverse, count: int) -> IntArray:
        """Fill loner invite clusters in arrival order, opening a new one when full."""
        rng = self.rng
        out = np.empty(count, dtype=np.int64)
        pos = 0
        while pos < count:
            if uni._open_fill >= uni._open_cap:
                uni._open_cluster = uni.next_cluster
                uni.next_cluster += 1
                # Capped at 8 members so no invite cluster ever reaches the
                # 10-node tracking threshold (they stay "non-community").
                uni._open_cap = 2 + min(int(rng.geometric(0.3)), 6)
                uni._open_fill = 0
            take = min(count - pos, uni._open_cap - uni._open_fill)
            out[pos : pos + take] = uni._open_cluster
            uni._open_fill += take
            pos += take
        return out

    def _schedule_regular(
        self, uni: _FastUniverse, ids: IntArray, times: FloatArray, n_days: int
    ) -> None:
        """Draw budgets and schedule the initiations of a batch of regular users."""
        budgets = draw_budgets(uni.config, len(ids), self.rng)
        when, owners = schedule_initiations(times, budgets, uni.config, self.rng)
        uni.push_schedule(when, ids[owners], n_days)

    def _schedule_loners(
        self, uni: _FastUniverse, ids: IntArray, times: FloatArray, n_days: int
    ) -> None:
        cfg = self.config
        rng = self.rng
        budget = 1 + rng.poisson(max(0.0, cfg.loner_budget_mean - 1.0), len(ids))
        total = int(budget.sum())
        gaps = rng.exponential(cfg.loner_gap_mean_days, total)
        loner_times = np.repeat(times, budget) + _segmented_cumsum(gaps, budget)
        uni.push_schedule(loner_times, np.repeat(ids, budget), n_days)

    # -- seeding ---------------------------------------------------------

    def _seed(
        self, uni: _FastUniverse, origin: int, at_day: float, buf: _WindowBuffer | None
    ) -> None:
        """Seed a universe with small disjoint 4-cliques.

        The paper observes that the very early network is "a large number
        of small groups with loose connections between them" (high early
        clustering and modularity); disjoint 4-cliques instead of one blob
        reproduce that starting condition.
        """
        count = uni.config.seed_nodes
        n_days = int(math.ceil(self.config.days))
        ids = self._alloc(count, origin)
        times = at_day + np.arange(count, dtype=np.float64) * 1e-3
        self._register_arrivals(uni, ids, times, np.zeros(count, dtype=bool), n_days)
        if buf is not None:
            buf.nodes(times, ids, origin)
        us: list[int] = []
        vs: list[int] = []
        for base in range(0, count, 4):
            group = ids[base : base + 4]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    us.append(int(group[i]))
                    vs.append(int(group[j]))
        if us:
            edge_t = np.full(len(us), at_day + 0.01)
            self._commit_edges(
                uni, edge_t, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), buf
            )
        uni.seeded = True

    # -- one window ------------------------------------------------------

    def _run_window(
        self,
        uni: _FastUniverse,
        d0: int,
        d1: int,
        arrivals: IntArray,
        factors: FloatArray | None,
        origin: int,
        buf: _WindowBuffer | None,
    ) -> None:
        cfg = uni.config
        rng = self.rng
        n_days = int(math.ceil(self.config.days))
        n_arrivals = int(arrivals.sum())
        if n_arrivals:
            ids = self._alloc(n_arrivals, origin)
            day_of = np.repeat(np.arange(d0, d1, dtype=np.float64), arrivals)
            times = day_of + rng.random(n_arrivals)
            # The loner split always follows the *primary* config (budgets
            # still use `uni.config`).
            loner_mask = rng.random(n_arrivals) < self.config.loner_fraction
            self._register_arrivals(uni, ids, times, loner_mask, n_days)
            if buf is not None:
                buf.nodes(times, ids, origin)

        times, nodes = uni.pop_window(d0, d1)
        if len(times) == 0:
            uni.flush_pools(np.inf)
            return
        keep = ~self.inactive[nodes]
        days = times.astype(np.int64)
        if factors is not None:
            f = factors[days]
            thin = f < 1.0
            if thin.any():
                keep &= ~thin | (rng.random(len(times)) < f)
        times, nodes, days = times[keep], nodes[keep], days[keep]
        if len(times) == 0:
            uni.flush_pools(np.inf)
            return

        if uni.emit:
            w_local = np.maximum(
                0.0, cfg.local_probability - cfg.local_decay * (days / cfg.days)
            )
            if self._merged:
                merge = self.config.merge
                assert merge is not None
                premerge = self.origin_code[nodes] != _NEW
                w_local = np.where(
                    premerge, np.minimum(w_local, merge.post_merge_local_probability), w_local
                )
        else:
            w_local = np.full(len(times), cfg.local_probability)

        pos = 0
        total = len(times)
        carry: _Carry | None = None
        while pos < total:
            chunk = int(np.clip(uni.num_edges // 8, _CHUNK_MIN, _CHUNK_MAX))
            end = min(total, pos + chunk)
            # Initiations are time-sorted: arrivals up to the chunk's end
            # become samplable for the whole chunk.
            uni.flush_pools(float(times[end - 1]))
            carry = self._attach_batch(
                uni, times[pos:end], nodes[pos:end], w_local[pos:end], buf, carry
            )
            pos = end
        uni.flush_pools(np.inf)
        # Give the stragglers their remaining attempts before the window
        # flushes, so carried edges stay inside their window's time range.
        self._attach_batch(uni, None, None, None, buf, carry, drain=True)

    # -- vectorized destination choice ------------------------------------

    def _attach_batch(
        self,
        uni: _FastUniverse,
        times: FloatArray | None,
        nodes: IntArray | None,
        w_local: FloatArray | None,
        buf: _WindowBuffer | None,
        carry: "_Carry | None",
        *,
        drain: bool = False,
    ) -> "_Carry | None":
        """Resolve one chunk of initiations through proposal/rejection rounds.

        Unresolved initiators are *carried* into the next chunk's batch
        instead of looping here with a shrinking tail — the tail rounds cost
        the same fixed numpy overhead as full ones, so amortizing them across
        chunks is what makes the engine fast.  ``drain=True`` (window end)
        gives every straggler its remaining attempts.
        """
        cfg = uni.config
        if nodes is not None and len(nodes):
            assert times is not None and w_local is not None
            fresh = self.degree[nodes] < cfg.friend_cap
            t, n, w = times[fresh], nodes[fresh], w_local[fresh]
            a = np.zeros(len(n), dtype=np.int64)
            if carry is not None:
                ct, cn, cw, ca = carry
                t = np.concatenate((ct, t))
                n = np.concatenate((cn, n))
                w = np.concatenate((cw, w))
                a = np.concatenate((ca, a))
        elif carry is not None:
            t, n, w, a = carry
        else:
            return None
        start_count = len(n)
        rounds_done = 0
        while len(n):
            # After the first round, carry small tails into the next chunk's
            # batch instead of paying a full round's fixed numpy overhead for
            # a handful of retries — they resolve there alongside fresh
            # initiations.  The first round always runs so every initiation
            # proposes against the freshest pool state at least once.
            if (
                not drain
                and rounds_done
                and (4 * len(n) <= start_count or len(n) < 256)
            ):
                break
            rounds_done += 1
            # Stagger a degree-0 node's repeat initiations: its second edge
            # this round would roll triadic closure against the pre-first-edge
            # degree, which a sequential simulation never does.  Once the
            # first edge lands the rest may share a round.  Held-back repeats
            # do not spend attempts.
            # First-occurrence mask without a sort: reversed scatter makes
            # each node's earliest index win, and we only read back slots
            # written this round, so stale scratch entries cannot leak in.
            ar = np.arange(len(n))
            self._first_pos[n[::-1]] = ar[::-1]
            first = self._first_pos[n] == ar
            if first.all():
                idx, ns, ws = ar, n, w
            else:
                active = self.degree[n] > 0
                active |= first
                idx = np.flatnonzero(active)
                ns, ws = n[idx], w[idx]
            if drain:
                # Window-end drain: give every straggler all its remaining
                # attempts in ONE vectorized burst instead of one proposal
                # per round — the shrinking-tail rounds cost the same fixed
                # numpy overhead whether they hold 3 initiators or 3000.
                resolved = np.zeros(len(n), dtype=bool)
                won = self._drain_burst(uni, ns, ws, _MAX_ATTEMPTS - a[idx], t[idx], buf)
                resolved[idx[won]] = True
                a[idx] = _MAX_ATTEMPTS
                keep = ~resolved & (a < _MAX_ATTEMPTS) & (self.degree[n] < cfg.friend_cap)
                t, n, w, a = t[keep], n[keep], w[keep], a[keep]
                continue
            cand, valid, keys = self._checked_proposals(uni, ns, ws)
            resolved = np.zeros(len(n), dtype=bool)
            hits = np.flatnonzero(valid)
            if len(hits):
                # Keep only the first of any duplicate (u, v) within the round;
                # losers retry next round against the refreshed edge set.
                _, first = np.unique(keys[hits], return_index=True)
                chosen = hits[np.sort(first)]
                chosen = chosen[self._within_cap(ns[chosen], cand[chosen], cfg.friend_cap)]
                self._commit_edges(
                    uni, t[idx[chosen]], ns[chosen], cand[chosen], buf
                )
                resolved[idx[chosen]] = True
            # Failed proposals retry (here or carried into the next chunk);
            # leftovers after the attempt budget are dropped, as are newly
            # capped initiators.
            a[idx] += 1
            keep = ~resolved & (a < _MAX_ATTEMPTS) & (self.degree[n] < cfg.friend_cap)
            t, n, w, a = t[keep], n[keep], w[keep], a[keep]
        return (t, n, w, a) if len(n) else None

    def _drain_burst(
        self,
        uni: _FastUniverse,
        ns: IntArray,
        ws: FloatArray,
        budget: IntArray,
        times: FloatArray,
        buf: "_WindowBuffer | None",
    ) -> IntArray:
        """Spend each initiator's remaining attempts at once; returns winners.

        All proposals see the burst-start pool state (the same staleness a
        chunk already accepts).  Each initiator takes its first valid
        proposal; duplicate (u, v) pairs across initiators keep the first
        and drop the rest — at the drain tail collisions are vanishingly
        rare, and losers have consumed their budget like initiators that
        never found a destination.  Returns indices into ``ns`` of the
        initiators whose edge was committed.
        """
        cfg = uni.config
        count = len(ns)
        m = int(budget.max())
        if m <= 0 or count == 0:
            return np.empty(0, dtype=np.int64)
        # Layout: proposal j*count + i is attempt j of initiator i.
        cand, valid, keys = self._checked_proposals(uni, np.tile(ns, m), np.tile(ws, m))
        # Attempts beyond an initiator's own remaining budget do not count.
        valid &= np.arange(m * count) // count < np.tile(budget, m)
        vsel = np.flatnonzero(valid)
        if len(vsel) == 0:
            return np.empty(0, dtype=np.int64)
        # First valid attempt per initiator via the reversed-scatter trick
        # (ascending vsel order is ascending attempt order).
        col = vsel % count
        first_of = np.full(count, -1, dtype=np.int64)
        first_of[col[::-1]] = vsel[::-1]
        winners = np.flatnonzero(first_of >= 0)
        pick = first_of[winners]
        # Cross-initiator duplicate (u, v) keys: keep the first initiator.
        _, keep = np.unique(keys[pick], return_index=True)
        keep.sort()
        winners, pick = winners[keep], pick[keep]
        fits = self._within_cap(ns[winners], cand[pick], cfg.friend_cap)
        winners, pick = winners[fits], pick[fits]
        self._commit_edges(uni, times[winners], ns[winners], cand[pick], buf)
        return winners

    def _checked_proposals(
        self, uni: _FastUniverse, initiators: IntArray, w_local: FloatArray
    ) -> tuple[IntArray, BoolArray, IntArray]:
        """One proposal per initiator: ``(candidates, valid, edge keys)``.

        A proposal is valid when it names another node, neither endpoint is
        at the friend cap, the edge does not exist yet, and (after the
        merge) the candidate passes the origin-homophily acceptance draw.
        """
        cfg = uni.config
        w_pa, w_spot = pa_weight(uni.num_edges, cfg), spotlight_weight(uni.num_edges, cfg)
        cand = self._propose(uni, initiators, w_local, w_pa, w_spot)
        valid = cand >= 0
        safe = np.where(valid, cand, 0)
        valid &= safe != initiators
        deg_n, deg_s = self.degree[initiators], self.degree[safe]
        valid &= deg_s < cfg.friend_cap
        valid &= deg_n < cfg.friend_cap
        keys = pack_edge_keys(initiators, safe)
        # An edge can only already exist when both endpoints have one —
        # probing just those pairs keeps the key-set search small early.
        probe = np.flatnonzero(valid & (deg_n > 0) & (deg_s > 0))
        if len(probe):
            valid[probe[uni.edge_keys.contains(keys[probe])]] = False
        if self._merged and uni.emit:
            valid &= self.rng.random(len(valid)) < self._bias_of(initiators, safe)
        return cand, valid, keys

    def _within_cap(self, us: IntArray, vs: IntArray, cap: int) -> BoolArray:
        """Which of a round's edges fit under ``friend_cap``, committed in order.

        Proposals are validated against round-start degrees, so several
        edges of one round can land on the same node; the cap then admits
        only as many as the node has room for, earliest first.  The rest
        count as failed proposals.
        """
        ends = np.empty(2 * len(us), dtype=np.int64)
        ends[0::2] = us
        ends[1::2] = vs
        # Validated endpoints have room for one edge, so only nodes that
        # occur again can overflow (reversed scatter marks first occurrences).
        pos = np.arange(len(ends))
        self._first_pos[ends[::-1]] = pos[::-1]
        again = ends[self._first_pos[ends] != pos]
        if len(again) == 0:
            return np.ones(len(us), dtype=bool)
        nodes, repeats = np.unique(again, return_counts=True)
        if (repeats < cap - self.degree[nodes]).all():
            return np.ones(len(us), dtype=bool)
        nodes, inverse, counts = np.unique(ends, return_inverse=True, return_counts=True)
        room = cap - self.degree[nodes]
        # Rank of each endpoint occurrence among its node's occurrences.
        order = np.argsort(inverse, kind="stable")
        rank = np.empty(len(ends), dtype=np.int64)
        starts = np.cumsum(counts, dtype=np.int64) - counts
        rank[order] = np.arange(len(ends), dtype=np.int64) - np.repeat(starts, counts)
        fits = rank < room[inverse]
        return fits[0::2] & fits[1::2]

    def _bias_of(self, initiators: IntArray, candidates: IntArray) -> FloatArray:
        """Vectorized post-merge origin-homophily acceptance probabilities."""
        merge = self.config.merge
        assert merge is not None
        top = max(merge.internal_bias, merge.external_bias, merge.new_bias)
        init_origin = self.origin_code[initiators]
        cand_origin = self.origin_code[candidates]
        prob = np.where(
            cand_origin == init_origin,
            merge.internal_bias / top,
            np.where(cand_origin == _NEW, merge.new_bias / top, merge.external_bias / top),
        )
        prob = np.where(init_origin == _NEW, 1.0, prob)
        return np.where(self.inactive[candidates], 0.0, prob)

    def _propose(
        self,
        uni: _FastUniverse,
        initiators: IntArray,
        w_local: FloatArray,
        w_pa: float,
        w_spot: float,
    ) -> IntArray:
        """One candidate per initiator (-1 when no pool can serve it)."""
        cfg = uni.config
        rng = self.rng
        count = len(initiators)
        out = np.full(count, -1, dtype=np.int64)
        loner_mask = self.loner[initiators]

        loner_idx = np.flatnonzero(loner_mask)
        if len(loner_idx):
            loners = initiators[loner_idx]
            clusters = self.cluster[loners]
            cluster_sizes = uni.clusters.sizes_of(clusters)
            peer = (cluster_sizes > 1) & (
                rng.random(len(loner_idx)) < cfg.loner_peer_probability
            )
            if peer.any():
                out[loner_idx[peer]] = uni.clusters.sample(
                    clusters[peer], rng.random(int(peer.sum()))
                )
            rest = loner_idx[~peer]
            if len(rest) and len(uni.node_draws):
                out[rest] = uni.node_draws.sample(rng.random(len(rest)))

        regular_idx = np.flatnonzero(~loner_mask)
        if len(regular_idx) == 0:
            return out
        regulars = initiators[regular_idx]
        triadic = (self.degree[regulars] > 0) & (
            rng.random(len(regular_idx)) < cfg.triadic_probability
        )
        tri_idx = regular_idx[triadic]
        if len(tri_idx):
            pivots = uni.adjacency.sample(initiators[tri_idx], rng.random(len(tri_idx)))
            out[tri_idx] = uni.adjacency.sample(pivots, rng.random(len(tri_idx)))

        pool_idx = regular_idx[~triadic]
        if len(pool_idx) == 0:
            return out
        communities = self.community[initiators[pool_idx]]
        local = (communities >= 0) & (rng.random(len(pool_idx)) < w_local[pool_idx])

        local_idx = pool_idx[local]
        if len(local_idx):
            comm = self.community[initiators[local_idx]]
            ep_sizes = uni.comm_endpoints.sizes_of(comm)
            use_pa = (rng.random(len(local_idx)) < w_pa) & (ep_sizes > 0)
            pa_sel = np.flatnonzero(use_pa)
            if len(pa_sel):
                self._pa_pick_buckets(
                    uni.comm_endpoints, comm[pa_sel], local_idx[pa_sel], w_spot, out
                )
            uniform_sel = local_idx[~use_pa]
            if len(uniform_sel):
                out[uniform_sel] = uni.comm_nodes.sample(
                    self.community[initiators[uniform_sel]], rng.random(len(uniform_sel))
                )

        global_idx = pool_idx[~local]
        if len(global_idx):
            use_pa = rng.random(len(global_idx)) < w_pa
            if len(uni.endpoint_draws) == 0:
                use_pa &= False
            pa_sel = global_idx[use_pa]
            if len(pa_sel):
                self._pa_pick_global(uni.endpoint_draws, pa_sel, w_spot, out)
            uniform_sel = global_idx[~use_pa]
            if len(uniform_sel) and len(uni.node_draws):
                out[uniform_sel] = uni.node_draws.sample(rng.random(len(uniform_sel)))
        return out

    def _pa_pick_buckets(
        self,
        pools: BucketPools,
        buckets: IntArray,
        targets: IntArray,
        w_spot: float,
        out: IntArray,
    ) -> None:
        """Degree-proportional draw per bucket, spotlight-amplified early."""
        rng = self.rng
        k = self.config.spotlight_samples
        spot = rng.random(len(targets)) < w_spot
        plain = ~spot
        if plain.any():
            out[targets[plain]] = pools.sample(buckets[plain], rng.random(int(plain.sum())))
        if spot.any():
            m = int(spot.sum())
            draws = pools.sample_block(buckets[spot], rng.random((m, k)))
            best = np.argmax(self.degree[draws], axis=1)
            out[targets[spot]] = draws[np.arange(m), best]

    def _pa_pick_global(
        self, endpoints: GrowingArray, targets: IntArray, w_spot: float, out: IntArray
    ) -> None:
        rng = self.rng
        k = self.config.spotlight_samples
        spot = rng.random(len(targets)) < w_spot
        plain = ~spot
        if plain.any():
            out[targets[plain]] = endpoints.sample(rng.random(int(plain.sum())))
        if spot.any():
            m = int(spot.sum())
            draws = endpoints.sample(rng.random(m * k)).reshape(m, k)
            best = np.argmax(self.degree[draws], axis=1)
            out[targets[spot]] = draws[np.arange(m), best]

    # -- edge commit ------------------------------------------------------

    def _commit_edges(
        self,
        uni: _FastUniverse,
        times: FloatArray,
        us: IntArray,
        vs: IntArray,
        buf: _WindowBuffer | None,
    ) -> None:
        """Register accepted edges in every pool and emit them (if emitting)."""
        count = len(us)
        if count == 0:
            return
        uni.edge_keys.add(pack_edge_keys(us, vs))
        interleaved = np.empty(2 * count, dtype=np.int64)
        interleaved[0::2] = us
        interleaved[1::2] = vs
        reverse = np.empty(2 * count, dtype=np.int64)
        reverse[0::2] = vs
        reverse[1::2] = us
        uni.adjacency.append(interleaved, reverse)
        np.add.at(self.degree, interleaved, 1)
        uni.endpoint_draws.extend(interleaved)
        cu = self.community[us]
        cv = self.community[vs]
        same = (cu >= 0) & (cu == cv)
        if same.any():
            pair = np.empty(2 * int(same.sum()), dtype=np.int64)
            pair[0::2] = us[same]
            pair[1::2] = vs[same]
            uni.comm_endpoints.append(np.repeat(cu[same], 2), pair)
        uni.num_edges += count
        if buf is not None:
            clamped = np.maximum(
                times, np.maximum(self.arrival_time[us], self.arrival_time[vs])
            )
            buf.edges(clamped, us, vs)
        if uni.edges_u is not None:
            uni.edges_u.extend(us)
            uni.edges_v.extend(vs)

    # -- the merge event --------------------------------------------------

    def _execute_merge(
        self, primary: _FastUniverse, secondary: _FastUniverse, buf: _WindowBuffer
    ) -> None:
        """Import the secondary network into the primary in a single day (§5).

        All secondary node arrivals are emitted in the first half of the
        merge day and their internal edges in the second half (the paper's
        one-day database import).  Duplicate accounts are chosen, one side
        of each pair is silenced, and every surviving pre-merge user gets a
        post-merge activity schedule.
        """
        merge = self.config.merge
        assert merge is not None
        rng = self.rng
        rec = get_recorder()
        merge_day = float(int(merge.merge_day))
        known = self._next_node
        primary_premerge = np.flatnonzero(self.origin_code[:known] == _XIAONEI)
        sec_nodes = np.flatnonzero(self.origin_code[:known] == _5Q)

        with rec.span("gen.fast.merge", secondary_nodes=len(sec_nodes)):
            if len(sec_nodes):
                times = merge_day + 0.5 * rng.random(len(sec_nodes))
                self.arrival_time[sec_nodes] = times
                buf.nodes(times, sec_nodes, _5Q)

                sec_loner = self.loner[sec_nodes]
                regular = sec_nodes[~sec_loner]
                primary.node_draws.extend(regular)
                # Imported communities get fresh primary ids that the primary
                # CRP never offers to newcomers.
                comm_offset = primary.crp.reserve(secondary.crp.num_communities)
                self.community[regular] += comm_offset
                primary.ensure_comms(primary.crp.num_communities)
                buckets, values = secondary.comm_nodes.flatten()
                primary.comm_nodes.append(buckets + comm_offset, values)
                buckets, values = secondary.comm_endpoints.flatten()
                primary.comm_endpoints.append(buckets + comm_offset, values)

                loners = sec_nodes[sec_loner]
                cluster_offset = primary.next_cluster
                self.cluster[loners] += cluster_offset
                primary.next_cluster += secondary.next_cluster
                buckets, values = secondary.clusters.flatten()
                primary.clusters.append(buckets + cluster_offset, values)

                # Re-home the secondary adjacency/edges; degrees are already
                # global, so only pool state moves.
                assert secondary.edges_u is not None and secondary.edges_v is not None
                edge_us = secondary.edges_u.view()
                edge_vs = secondary.edges_v.view()
                primary.edge_keys.add(pack_edge_keys(edge_us, edge_vs))
                buckets, values = secondary.adjacency.flatten()
                primary.adjacency.append(buckets, values)
                interleaved = np.empty(2 * len(edge_us), dtype=np.int64)
                interleaved[0::2] = edge_us
                interleaved[1::2] = edge_vs
                primary.endpoint_draws.extend(interleaved)
                primary.num_edges += len(edge_us)
                edge_times = merge_day + 0.5 + 0.5 * rng.random(len(edge_us))
                clamped = np.maximum(
                    edge_times,
                    np.maximum(self.arrival_time[edge_us], self.arrival_time[edge_vs]),
                )
                buf.edges(clamped, edge_us.copy(), edge_vs.copy())

            self._silence_duplicates(primary_premerge, sec_nodes)
            self._schedule_survivors(primary, primary_premerge, sec_nodes, merge_day)
            self._merged = True

    def _silence_duplicates(self, primary_nodes: IntArray, sec_nodes: IntArray) -> None:
        merge = self.config.merge
        assert merge is not None
        rng = self.rng
        pool = min(len(primary_nodes), len(sec_nodes))
        dup_count = int(merge.duplicate_fraction * pool)
        if dup_count == 0:
            return
        prim = rng.choice(primary_nodes, size=dup_count, replace=False)
        sec = rng.choice(sec_nodes, size=dup_count, replace=False)
        keep_primary = rng.random(dup_count) < merge.keep_primary_probability
        self.inactive[np.where(keep_primary, sec, prim)] = True

    def _schedule_survivors(
        self,
        primary: _FastUniverse,
        primary_nodes: IntArray,
        sec_nodes: IntArray,
        merge_day: float,
    ) -> None:
        merge = self.config.merge
        assert merge is not None
        rng = self.rng
        n_days = int(math.ceil(self.config.days))
        for group, multiplier, window_factor in (
            (primary_nodes, merge.primary_activity_multiplier, 1.5),
            (sec_nodes, 1.0, 1.0),
        ):
            active = group[~self.inactive[group]]
            if len(active) == 0:
                continue
            window = rng.exponential(
                merge.survivor_mean_active_days * window_factor, len(active)
            )
            mean_extra = max(0.0, merge.burst_edges_mean * multiplier - 1.0)
            counts = 1 + rng.poisson(mean_extra, len(active))
            total = int(counts.sum())
            bursty = rng.random(total) < 0.6
            gaps = np.where(
                bursty,
                rng.exponential(merge.burst_decay_days, total),
                rng.random(total) * np.repeat(window, counts),
            )
            times = merge_day + 1.0 + gaps
            nodes = np.repeat(active, counts)
            keep = times < self.config.days
            primary.push_schedule(times[keep], nodes[keep], n_days)


def _segmented_cumsum(values: FloatArray, seg_lengths: IntArray) -> FloatArray:
    """Per-segment running sums of ``values`` split into ``seg_lengths`` runs."""
    if len(values) == 0:
        return values
    cumulative = np.cumsum(values, dtype=np.float64)
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(seg_lengths, dtype=np.int64))
    )[:-1]
    seg_lengths = np.asarray(seg_lengths)
    nonzero = seg_lengths > 0
    base = np.zeros(len(seg_lengths))
    base[nonzero] = np.concatenate(([0.0], cumulative))[offsets[nonzero]]
    return cumulative - np.repeat(base, seg_lengths)


def generate_trace(
    config: GeneratorConfig, seed: int | np.random.Generator | None = 0
) -> EventStream:
    """Convenience wrapper: ``FastGenerator(config, seed).generate()``."""
    return FastGenerator(config, seed).generate()


def generate_store(
    config: GeneratorConfig,
    path: str | Path,
    seed: int | np.random.Generator | None = 0,
    *,
    chunk_events: int | None = None,
) -> Manifest:
    """Generate straight into a columnar store at ``path``; returns the manifest."""
    return FastGenerator(config, seed).generate_to_store(path, chunk_events=chunk_events)
