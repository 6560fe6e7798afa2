"""Consistent-hash ring edge cases: degenerate, stable, deterministic."""

import random

from repro.shard.ring import HashRing


def placement(ring, keys):
    return {key: ring.shard_of(key) for key in keys}


class TestDegenerateSingleShard:
    def test_every_key_routes_to_the_only_shard(self):
        ring = HashRing(1)
        rng = random.Random(0)
        for _ in range(500):
            key = f"k{rng.randrange(10**9)}"
            assert ring.shard_of(key) == 1

    def test_prefix_pin_is_moot_on_one_shard(self):
        ring = HashRing(1)
        assert ring.shard_of("s1:x") == 1
        # An out-of-range pin falls back to hashing — still shard 1.
        assert ring.shard_of("s7:x") == 1


class TestExplicitPlacement:
    def test_prefix_pins_to_named_shard(self):
        ring = HashRing(4)
        for sid in range(1, 5):
            assert ring.shard_of(f"s{sid}:anything") == sid

    def test_out_of_range_prefix_falls_through_to_hashing(self):
        ring = HashRing(2)
        assert ring.shard_of("s9:x") in (1, 2)

    def test_non_numeric_prefix_is_just_a_key(self):
        ring = HashRing(4)
        assert 1 <= ring.shard_of("snot:a:pin") <= 4
        assert 1 <= ring.shard_of("s:empty") <= 4


class TestDeterminism:
    def test_two_rings_agree_on_seeded_keys(self):
        # Placement is a pure function of (key, n_shards): two processes
        # (or the drill's double run) must agree without coordination.
        a, b = HashRing(4), HashRing(4)
        rng = random.Random(42)
        keys = [f"key-{rng.randrange(10**9)}" for _ in range(1000)]
        assert placement(a, keys) == placement(b, keys)

    def test_placement_independent_of_query_order(self):
        ring = HashRing(3)
        keys = [f"k{i}" for i in range(200)]
        forward = {k: ring.shard_of(k) for k in keys}
        backward = {k: ring.shard_of(k) for k in reversed(keys)}
        assert forward == backward


class TestStability:
    def test_same_size_rings_move_nothing(self):
        keys = [f"k{i}" for i in range(500)]
        assert HashRing(4).moved_fraction(HashRing(4), keys) == 0.0

    def test_growing_the_ring_moves_a_minority(self):
        # Consistent hashing's contrast with ``hash % N``: growing 4 -> 5
        # remaps only the arcs the new shard claims (~1/5), not everything.
        rng = random.Random(7)
        keys = [f"key-{rng.randrange(10**9)}" for _ in range(2000)]
        moved = HashRing(4).moved_fraction(HashRing(5), keys)
        assert 0.0 < moved < 0.45, moved

    def test_modulo_hashing_would_move_a_majority(self):
        # The baseline the ring beats: ``crc32 % N`` reshuffles most keys.
        import zlib

        rng = random.Random(7)
        keys = [f"key-{rng.randrange(10**9)}" for _ in range(2000)]
        moved = sum(
            1
            for k in keys
            if zlib.crc32(k.encode()) % 4 != zlib.crc32(k.encode()) % 5
        ) / len(keys)
        assert moved > 0.45, moved

    def test_adding_keys_never_moves_existing_ones(self):
        ring = HashRing(3)
        first = placement(ring, (f"k{i}" for i in range(100)))
        # "Add" 900 more keys (pure function: nothing to invalidate).
        placement(ring, (f"k{i}" for i in range(1000)))
        assert placement(ring, (f"k{i}" for i in range(100))) == first


class TestBalance:
    def test_vnodes_spread_the_keyspace(self):
        ring = HashRing(4)
        rng = random.Random(1)
        keys = [f"key-{rng.randrange(10**9)}" for _ in range(4000)]
        counts = {sid: 0 for sid in range(1, 5)}
        for key in keys:
            counts[ring.shard_of(key)] += 1
        for sid, n in counts.items():
            share = n / len(keys)
            assert 0.12 <= share <= 0.40, (sid, share)
