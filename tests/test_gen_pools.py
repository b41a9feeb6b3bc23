"""Tests for the vectorized pool structures behind the fast engine."""

import numpy as np
import pytest

from repro.gen.pools import BucketPools, GrowingArray, HashKeySet, pack_edge_keys
from repro.util.rng import make_rng


def test_growing_array_extend_and_view():
    arr = GrowingArray(np.int64, capacity=2)
    arr.extend(np.array([1, 2, 3], dtype=np.int64))
    arr.extend(np.array([], dtype=np.int64))
    arr.extend(np.arange(100, dtype=np.int64))
    assert len(arr) == 103
    assert arr.view()[:3].tolist() == [1, 2, 3]
    assert arr.view()[3:].tolist() == list(range(100))


def test_growing_array_sample_uniform():
    arr = GrowingArray(np.int64)
    arr.extend(np.array([7], dtype=np.int64))
    u = make_rng(0).random(50)
    assert set(arr.sample(u).tolist()) == {7}
    arr.extend(np.array([9], dtype=np.int64))
    drawn = set(arr.sample(make_rng(1).random(200)).tolist())
    assert drawn == {7, 9}


def test_bucket_pools_matches_dict_reference():
    rng = make_rng(42)
    pools = BucketPools(capacity=4)
    reference: dict[int, list[int]] = {}
    for _ in range(30):
        count = int(rng.integers(0, 200))
        buckets = rng.integers(0, 37, size=count)
        values = rng.integers(0, 10_000, size=count)
        pools.append(buckets, values)
        for b, v in zip(buckets.tolist(), values.tolist()):
            reference.setdefault(b, []).append(v)
    # Within-bucket order is unspecified (append sorts with plain quicksort);
    # compare multisets per bucket.
    for b, want in reference.items():
        assert sorted(pools.values_of(b).tolist()) == sorted(want)
    assert pools.total_entries == sum(len(v) for v in reference.values())
    flat_buckets, flat_values = pools.flatten()
    for b, want in reference.items():
        assert sorted(flat_values[flat_buckets == b].tolist()) == sorted(want)


def test_bucket_pools_append_routes_to_buckets():
    pools = BucketPools()
    pools.append(np.array([5, 5, 2, 5, 2]), np.array([10, 11, 20, 12, 21]))
    assert sorted(pools.values_of(5).tolist()) == [10, 11, 12]
    assert sorted(pools.values_of(2).tolist()) == [20, 21]
    assert pools.values_of(0).tolist() == []
    assert pools.sizes_of(np.array([5, 2, 0])).tolist() == [3, 2, 0]


def test_bucket_pools_sample_and_block():
    pools = BucketPools()
    pools.append(np.array([0, 0, 1]), np.array([4, 5, 6]))
    buckets = np.array([0, 1, 0, 1])
    out = pools.sample(buckets, make_rng(3).random(4))
    assert out[1] == 6 and out[3] == 6
    assert out[0] in (4, 5) and out[2] in (4, 5)
    block = pools.sample_block(np.array([1, 1]), make_rng(4).random((2, 5)))
    assert block.shape == (2, 5)
    assert set(block.ravel().tolist()) == {6}


def test_bucket_pools_compaction_keeps_contents():
    rng = make_rng(7)
    pools = BucketPools(capacity=4)
    reference: dict[int, list[int]] = {}
    # Heavy skew onto a few buckets forces repeated relocation + compaction.
    for step in range(200):
        buckets = rng.integers(0, 5, size=64) * (step % 3 + 1)
        values = rng.integers(0, 1000, size=64)
        pools.append(buckets, values)
        for b, v in zip(buckets.tolist(), values.tolist()):
            reference.setdefault(b, []).append(v)
    for b, want in reference.items():
        assert sorted(pools.values_of(b).tolist()) == sorted(want)
    # The arena stays within a small constant factor of the live data.
    assert len(pools._data) < 8 * pools.total_entries + 4096


def test_sorted_key_set_matches_python_set():
    # HashKeySet, the generator's edge-key set; keys are nonzero and unique.
    rng = make_rng(11)
    keys = 1 + rng.choice(100_000, size=5000, replace=False).astype(np.int64)
    sks = HashKeySet(capacity=64)  # small, so the table grows several times
    members: set[int] = set()
    for start in range(0, len(keys), 333):
        batch = keys[start : start + 333]
        probe = rng.integers(1, 100_001, size=500).astype(np.int64)
        want = np.array([int(k) in members for k in probe.tolist()])
        assert np.array_equal(sks.contains(probe), want)
        sks.add(batch)
        members.update(batch.tolist())
    assert len(sks) == len(members)
    assert sks.contains(keys).all()


def test_sorted_key_set_empty():
    sks = HashKeySet()
    assert not sks.contains(np.array([1, 2, 3], dtype=np.int64)).any()
    assert len(sks) == 0


def test_pack_edge_keys_symmetric_and_unique():
    us = np.array([1, 9, 3])
    vs = np.array([9, 1, 4])
    keys = pack_edge_keys(us, vs)
    assert keys[0] == keys[1]
    assert keys[2] != keys[0]
    assert keys[0] == (1 << 32) | 9


def test_pack_edge_keys_rejects_ids_beyond_32_bits():
    # Past 2**32 distinct edges silently collide onto one key (the shift
    # drops high bits); the guard must raise instead of dropping edges.
    us = np.array([1 << 32], dtype=np.int64)
    vs = np.array([0], dtype=np.int64)
    with pytest.raises(ValueError, match="32-bit"):
        pack_edge_keys(us, vs)


def test_pack_edge_keys_accepts_maximal_valid_id():
    limit = (1 << 32) - 1
    keys = pack_edge_keys(
        np.array([limit, limit, 7], dtype=np.int64),
        np.array([0, limit, limit], dtype=np.int64),
    )
    assert keys[0] == limit  # lo=0 packs high, hi fills the low 32 bits
    # keys may wrap negative in int64 (lo >= 2**31) but stay injective.
    assert len(set(keys.tolist())) == 3
    assert pack_edge_keys(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).size == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_bucket_pools_deterministic(seed):
    def build():
        rng = make_rng(seed)
        pools = BucketPools(capacity=8)
        for _ in range(20):
            buckets = rng.integers(0, 10, size=100)
            pools.append(buckets, rng.integers(0, 50, size=100))
        return pools.flatten()
    a, b = build(), build()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
