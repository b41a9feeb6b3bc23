"""Vectorized pool structures backing the generator.

:mod:`repro.gen.fast` keeps its sampling state (global node and endpoint
pools, per-community pools, adjacency, edge membership) in array-backed
structures that support *batch* updates and O(1) vectorized sampling:

* :class:`GrowingArray` — a 1-D append-only array with amortized doubling
  (the array analogue of ``list.append``), used for the global node and
  endpoint draw pools;
* :class:`BucketPools` — many append-only integer pools packed into one
  arena (per-node adjacency, per-community node/endpoint pools, loner
  invite clusters), with vectorized batch append and uniform sampling
  across many buckets at once;
* :class:`HashKeySet` — membership testing for packed ``(u, v)`` edge
  keys in a vectorized open-addressing table.

Everything here is deterministic and allocation-amortized: no per-event
Python objects, no Python-level hashing, no dict churn.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import DTypeLike

from repro.util.arrays import AnyArray, BoolArray, FloatArray, IntArray, UIntArray

__all__ = ["BucketPools", "GrowingArray", "HashKeySet", "pack_edge_keys"]


def _exclusive_cumsum(sizes: IntArray) -> IntArray:
    """Int64 running totals shifted right by one (``[0, s0, s0+s1, ...]``)."""
    return np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)))[:-1]


class GrowingArray:
    """A 1-D array with amortized-doubling batch append."""

    __slots__ = ("_data", "_size")

    def __init__(self, dtype: DTypeLike = np.int64, capacity: int = 1024) -> None:
        self._data = np.empty(max(1, capacity), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def view(self) -> AnyArray:
        """The live contents (a view — do not mutate)."""
        return self._data[: self._size]

    def extend(self, values: AnyArray) -> None:
        """Append ``values`` in order."""
        count = len(values)
        if count == 0:
            return
        need = self._size + count
        if need > len(self._data):
            capacity = len(self._data)
            while capacity < need:
                capacity *= 2
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : need] = values
        self._size = need

    def sample(self, u: FloatArray) -> AnyArray:
        """Uniform draws: one element per entry of ``u`` (floats in [0, 1))."""
        idx = (u * self._size).astype(np.int64)
        return self._data[np.minimum(idx, self._size - 1)]


class BucketPools:
    """Many append-only int64 pools packed into a single arena.

    Each bucket owns a contiguous ``[start, start + cap)`` slice of the
    arena with ``size`` live entries.  Batch appends scatter all values in
    a handful of array ops; buckets that outgrow their slice are relocated
    to the arena tail with doubled capacity (classic amortized doubling),
    and the arena itself is compacted — fully vectorized — when relocation
    garbage exceeds the live data.
    """

    def __init__(
        self, num_buckets: int = 0, capacity: int = 1024, default_cap: int = 0
    ) -> None:
        self._data = np.empty(max(1, capacity), dtype=np.int64)
        self._tail = 0
        self._live = 0
        self._default_cap = default_cap
        self._start = np.zeros(num_buckets, dtype=np.int64)
        self._size = np.zeros(num_buckets, dtype=np.int64)
        self._cap = np.zeros(num_buckets, dtype=np.int64)
        if num_buckets and default_cap:
            self._reserve_slices(0, num_buckets)

    @property
    def num_buckets(self) -> int:
        return len(self._size)

    @property
    def total_entries(self) -> int:
        """Live entries across all buckets."""
        return self._live

    def sizes_of(self, buckets: IntArray) -> IntArray:
        """Per-bucket live sizes for an array of bucket ids."""
        return self._size[buckets]

    def ensure_buckets(self, count: int) -> None:
        """Grow the bucket table to at least ``count`` buckets."""
        have = len(self._size)
        if count <= have:
            return
        count = max(count, 2 * have, 16)
        for name in ("_start", "_size", "_cap"):
            old = getattr(self, name)
            grown = np.zeros(count, dtype=np.int64)
            grown[:have] = old
            setattr(self, name, grown)
        if self._default_cap:
            self._reserve_slices(have, count)

    def _reserve_slices(self, lo: int, hi: int) -> None:
        """Pre-assign ``default_cap``-sized arena slices to buckets [lo, hi).

        Without this, a fresh bucket has capacity 0 and its very first
        append relocates it — for power-law pools (per-node adjacency)
        that first relocation dominates, since most buckets stay tiny.
        """
        added = hi - lo
        total = added * self._default_cap
        if self._tail + total > len(self._data):
            self._grow_arena(total)
        self._start[lo:hi] = self._tail + self._default_cap * np.arange(added)
        self._cap[lo:hi] = self._default_cap
        self._tail += total

    def values_of(self, bucket: int) -> IntArray:
        """Live contents of one bucket (a view — do not mutate)."""
        start = int(self._start[bucket])
        return self._data[start : start + int(self._size[bucket])]

    def flatten(self) -> tuple[IntArray, IntArray]:
        """All live entries as ``(bucket_ids, values)``, bucket-ordered."""
        sizes = self._size
        buckets = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return buckets, self._data[self._gather_indices()]

    def append(self, buckets: IntArray, values: AnyArray) -> None:
        """Append ``values[i]`` to pool ``buckets[i]`` (within-bucket order
        is deterministic but unspecified)."""
        count = len(buckets)
        if count == 0:
            return
        self.ensure_buckets(int(buckets.max()) + 1)
        # Quicksort, not stable: within-bucket order is irrelevant to the
        # uniform draws (and still deterministic), and stable/radix argsort
        # is 4-5x slower on the mid-sized int batches this path sees.
        order = np.argsort(buckets)
        sorted_buckets = buckets[order]
        group_starts = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1,
            )
        )
        bounds = np.empty(len(group_starts) + 1, dtype=np.int64)
        bounds[:-1] = group_starts
        bounds[-1] = count
        group_lengths = bounds[1:] - bounds[:-1]
        touched = sorted_buckets[group_starts]
        need = self._size[touched] + group_lengths
        overfull = need > self._cap[touched]
        if overfull.any():
            self._relocate_many(touched[overfull], need[overfull])
        within = np.arange(count, dtype=np.int64) - np.repeat(group_starts, group_lengths)
        positions = self._start[sorted_buckets] + self._size[sorted_buckets] + within
        self._data[positions] = np.asarray(values)[order]
        self._size[touched] += group_lengths
        self._live += count

    def sample(self, buckets: IntArray, u: FloatArray) -> IntArray:
        """One uniform draw per bucket id (caller guarantees non-empty buckets)."""
        sizes = self._size[buckets]
        idx = np.minimum((u * sizes).astype(np.int64), sizes - 1)
        return self._data[self._start[buckets] + idx]

    def sample_block(self, buckets: IntArray, u: FloatArray) -> IntArray:
        """``u`` of shape (m, k): k independent draws per bucket, shape (m, k)."""
        sizes = self._size[buckets][:, None]
        idx = np.minimum((u * sizes).astype(np.int64), sizes - 1)
        return self._data[self._start[buckets][:, None] + idx]

    # -- arena management ----------------------------------------------

    def _relocate_many(self, buckets: IntArray, need: IntArray) -> None:
        """Move overfull buckets to the arena tail with doubled capacity."""
        target = np.maximum(need * 2, 4)
        caps = np.int64(1) << np.ceil(np.log2(target)).astype(np.int64)
        caps = np.where(caps < target, caps * 2, caps)  # guard float log2 rounding
        total = int(caps.sum())
        if self._tail + total > len(self._data):
            self._grow_arena(total)  # may compact: re-read _start below
        new_starts = self._tail + np.cumsum(caps, dtype=np.int64) - caps
        sizes = self._size[buckets]
        moved = int(sizes.sum())
        if moved:
            before = np.cumsum(sizes, dtype=np.int64) - sizes
            within = np.arange(moved, dtype=np.int64) - np.repeat(before, sizes)
            src = np.repeat(self._start[buckets], sizes) + within
            self._data[np.repeat(new_starts, sizes) + within] = self._data[src]
        self._start[buckets] = new_starts
        self._cap[buckets] = caps
        self._tail += total

    def _grow_arena(self, extra: int) -> None:
        # Compact first when relocation garbage dominates the live data —
        # keeps the arena within a small constant of the live entry count.
        # Pre-reserved default slices are working capacity, not garbage, so
        # they count toward the allowance (else reservation-heavy pools
        # would compact on every growth step).
        reserved = self._default_cap * len(self._size)
        if self._tail > 2 * self._live + reserved + 1024:
            self._compact()
        need = self._tail + extra
        if need <= len(self._data):
            return
        capacity = len(self._data)
        while capacity < need:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._tail] = self._data[: self._tail]
        self._data = grown

    def _gather_indices(self) -> IntArray:
        sizes = self._size
        total = int(sizes.sum())
        before = _exclusive_cumsum(sizes)
        within = np.arange(total, dtype=np.int64) - np.repeat(before, sizes)
        return np.repeat(self._start, sizes) + within

    def _compact(self) -> None:
        src = self._gather_indices()
        caps = np.maximum(4, 2 * self._size)
        new_starts = _exclusive_cumsum(caps)
        within = np.arange(len(src), dtype=np.int64) - np.repeat(
            _exclusive_cumsum(self._size), self._size
        )
        dst = np.repeat(new_starts, self._size) + within
        tail = int(new_starts[-1] + caps[-1]) if len(caps) else 0
        arena = np.empty(max(len(self._data), tail), dtype=np.int64)
        arena[dst] = self._data[src]
        self._data = arena
        self._start = new_starts
        self._cap = caps
        self._tail = tail


def pack_edge_keys(us: AnyArray, vs: AnyArray) -> IntArray:
    """Pack undirected edges into sortable int64 keys (``min << 32 | max``).

    Each endpoint gets 32 bits, so node ids must stay below ``2**32`` —
    past that, distinct edges silently collide onto one key and the
    membership sets drop real edges.  Checking ``hi`` alone suffices
    (``lo <= hi`` elementwise); paper scale is ~19.4M nodes, ~2**24.5.
    """
    lo = np.minimum(us, vs).astype(np.int64)
    hi = np.maximum(us, vs).astype(np.int64)
    if len(hi) and int(hi.max()) >= 1 << 32:
        raise ValueError(
            f"node id {int(hi.max())} does not fit the 32-bit edge-key "
            "packing; ids must stay below 2**32"
        )
    return (lo << 32) | hi


class HashKeySet:
    """Set membership for nonzero int64 keys: vectorized open addressing.

    A power-of-two table with linear probing, batch ``add`` and batch
    ``contains``; slot 0 is the empty sentinel, so keys must be nonzero
    (packed edge keys always are — ``hi >= 1``).  Probes are whole-batch
    gathers, so membership costs a couple of table reads per key instead
    of the ``log n`` rounds a binary search over sorted keys pays; at load
    factor <= 1/2 probe chains stay short.  Fully deterministic.
    """

    _MULT = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing

    def __init__(self, capacity: int = 1 << 14) -> None:
        capacity = 1 << max(4, int(capacity - 1).bit_length())
        self._table = np.zeros(capacity, dtype=np.uint64)
        self._mask = np.uint64(capacity - 1)
        self._shift = np.uint64(64 - (capacity.bit_length() - 1))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _slots(self, keys: AnyArray) -> UIntArray:
        return (keys.astype(np.uint64) * self._MULT) >> self._shift

    def add(self, keys: AnyArray) -> None:
        """Insert ``keys`` (caller guarantees nonzero, unique, not present)."""
        if not len(keys):
            return
        if 2 * (self._count + len(keys)) > len(self._table):
            self._grow(self._count + len(keys))
        table, mask = self._table, self._mask
        pending = keys.astype(np.uint64)
        slots = self._slots(pending)
        while len(pending):
            free = table[slots] == 0
            # Claim free slots; batch-internal collisions mean the last
            # writer per slot wins, so verify and re-probe the losers.
            table[slots[free]] = pending[free]
            placed = table[slots] == pending
            if placed.all():
                break
            keep = ~placed
            pending = pending[keep]
            slots = (slots[keep] + np.uint64(1)) & mask
        self._count += len(keys)

    def contains(self, keys: AnyArray) -> BoolArray:
        """Boolean membership mask for ``keys``."""
        out = np.zeros(len(keys), dtype=bool)
        if not len(keys) or self._count == 0:
            return out
        table, mask = self._table, self._mask
        probe = keys.astype(np.uint64)
        idx = np.arange(len(keys))
        slots = self._slots(probe)
        while len(idx):
            cur = table[slots]
            hit = cur == probe
            out[idx[hit]] = True
            open_chain = ~hit & (cur != 0)
            probe = probe[open_chain]
            idx = idx[open_chain]
            slots = (slots[open_chain] + np.uint64(1)) & mask
        return out

    def _grow(self, need: int) -> None:
        live = self._table[self._table != 0]
        capacity = len(self._table)
        while capacity < 4 * need:
            capacity *= 2
        self._table = np.zeros(capacity, dtype=np.uint64)
        self._mask = np.uint64(capacity - 1)
        self._shift = np.uint64(64 - (capacity.bit_length() - 1))
        count, self._count = self._count, 0
        self.add(live)
        self._count = count
