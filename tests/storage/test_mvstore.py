"""Tests for the multiversion store facade."""

import pytest

from repro.errors import ProtocolError
from repro.storage.mvstore import MVStore


class TestObjects:
    def test_objects_spring_into_existence(self):
        store = MVStore()
        assert "x" not in store
        obj = store.object("x")
        assert "x" in store
        assert store.object("x") is obj
        assert len(store) == 1

    def test_preload(self):
        store = MVStore()
        store.preload({"a": 1, "b": 2})
        assert store.read_snapshot("a", 0).value == 1
        assert set(store.keys()) == {"a", "b"}

    def test_preload_duplicate_rejected(self):
        store = MVStore()
        store.preload({"a": 1})
        with pytest.raises(KeyError):
            store.preload({"a": 2})

    def test_custom_initial_value(self):
        store = MVStore(initial_value=0)
        assert store.read_snapshot("anything", 0).value == 0


class TestReadsAndWrites:
    def test_install_and_snapshot(self):
        store = MVStore()
        store.install("x", 1, "one")
        store.install("x", 2, "two")
        assert store.read_snapshot("x", 1).value == "one"
        assert store.read_snapshot("x", 2).value == "two"

    def test_latest_committed_ignores_pending(self):
        store = MVStore()
        store.install("x", 1, "one")
        store.place_pending("x", 2, "two")
        assert store.read_latest_committed("x").tn == 1
        assert store.version_leq("x", 5).tn == 2

    def test_pending_lifecycle(self):
        store = MVStore()
        store.place_pending("x", 1, "one", creator_txn_id=42)
        assert store.version_leq("x", 1).creator_txn_id == 42
        store.commit_pending("x", 1)
        assert store.read_latest_committed("x").tn == 1

    def test_discard_pending(self):
        store = MVStore()
        store.place_pending("x", 1, "gone")
        store.discard_pending("x", 1)
        assert store.read_latest_committed("x").tn == 0

    def test_double_install_rejected(self):
        store = MVStore()
        store.install("x", 1, "a")
        with pytest.raises(ProtocolError):
            store.install("x", 1, "b")


class TestMaintenance:
    def test_version_count(self):
        store = MVStore()
        store.install("x", 1, "a")
        store.install("y", 1, "b")
        store.install("y", 2, "c")
        assert store.version_count() == 5  # 2 initial + 3 installed

    def test_prune_across_objects(self):
        store = MVStore()
        for tn in (1, 2, 3):
            store.install("x", tn, tn)
        store.install("y", 1, 1)
        discarded = store.prune(2)
        assert discarded == 3  # x loses v0,v1; y loses v0
        assert store.gc_discarded == 3



class TestChainStatsUnderSweep:
    """chain_stats stays coherent while sweeps interleave with installs.

    The cooperative execution model serializes the actual calls, but the
    budgeted collector interleaves *partial* sweeps (prune_some) with
    installs — these pin down the gauge invariants the SLO signals rely on:
    counts are never negative, always consistent with version_count, and
    within one sweep cycle (no installs) the footprint is monotone
    non-increasing.
    """

    def test_stats_consistent_across_interleaved_partial_sweeps(self):
        store = MVStore()
        keys = [f"k{i}" for i in range(5)]
        tn = 0
        cursor = 0
        for round_no in range(30):
            for key in keys:
                tn += 1
                store.install(key, tn, tn)
            visible = tn
            # A partial sweep touches 2 objects, then more installs land.
            discarded, cursor = store.prune_some(
                visible, 2, cursor, pins=[], visible=visible
            )
            live, longest = store.chain_stats()
            assert discarded >= 0
            assert live >= len(store) >= 1
            assert longest >= 1
            assert live == store.version_count()

    def test_footprint_monotone_within_a_quiescent_sweep_cycle(self):
        store = MVStore()
        keys = [f"k{i}" for i in range(6)]
        tn = 0
        for _ in range(10):
            for key in keys:
                tn += 1
                store.install(key, tn, tn)
        visible = tn
        cursor = 0
        live_before, longest_before = store.chain_stats()
        for _ in range(len(keys)):  # one full cycle, one object at a time
            _, cursor = store.prune_some(visible, 1, cursor, pins=[], visible=visible)
            live, longest = store.chain_stats()
            assert live <= live_before
            assert longest <= longest_before
            live_before, longest_before = live, longest
        assert cursor == 0  # wrapped exactly once
        # Fully swept: one retained version per chain.
        assert store.chain_stats() == (len(keys), 1)

    def test_sweep_never_drops_below_one_version_per_chain(self):
        store = MVStore()
        for tn in (1, 2, 3):
            store.install("x", tn, tn)
        store.prune_versions(3, [])
        live, longest = store.chain_stats()
        assert (live, longest) == (1, 1)
        # Repeat sweeps are idempotent — no underflow, no negative counts.
        assert store.prune_versions(3, []) == (0, 0, 1)
        assert store.chain_stats() == (1, 1)
