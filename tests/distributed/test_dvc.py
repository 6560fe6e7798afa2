"""Tests for per-site distributed version control."""

import pytest

from repro.distributed.dvc import DistributedVersionControl
from repro.distributed.gtn import SITE_SPACE, counter_of, make_gtn, site_of
from repro.errors import InvariantViolation, ProtocolError


class TestGTN:
    def test_encoding_round_trip(self):
        g = make_gtn(7, 3)
        assert counter_of(g) == 7
        assert site_of(g) == 3

    def test_order_is_counter_major(self):
        assert make_gtn(2, 1) > make_gtn(1, 1023)
        assert make_gtn(1, 2) > make_gtn(1, 1)

    def test_uniqueness_across_sites(self):
        assert make_gtn(5, 1) != make_gtn(5, 2)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_gtn(1, 0)
        with pytest.raises(ValueError):
            make_gtn(1, SITE_SPACE)
        with pytest.raises(ValueError):
            make_gtn(0, 1)


class TestHoldAdopt:
    def test_hold_reserves_monotone_numbers(self):
        vc = DistributedVersionControl(site_id=1)
        h1 = vc.hold(100)
        h2 = vc.hold(101)
        assert h2 > h1
        assert site_of(h1) == 1

    def test_double_hold_rejected(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        with pytest.raises(ProtocolError, match="already holds"):
            vc.hold(100)

    def test_adopt_same_number_is_noop_reorder(self):
        vc = DistributedVersionControl(site_id=1)
        h = vc.hold(100)
        vc.adopt(100, h)
        vc.complete(100)
        assert vc.vtnc >= h

    def test_adopt_larger_number_moves_entry_back(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)               # h1 = (1,1)
        h2 = vc.hold(101)          # h2 = (2,1)
        remote = make_gtn(9, 2)
        vc.adopt(100, remote)      # entry for 100 moves behind 101's
        vc.complete(101)
        assert vc.vtnc >= h2, "101 is now the head and completes first"
        vc.complete(100)
        assert vc.vtnc >= remote

    def test_adopt_below_hold_rejected(self):
        vc = DistributedVersionControl(site_id=2)
        vc.hold(100)
        vc.hold(101)
        with pytest.raises(InvariantViolation, match="below the hold"):
            vc.adopt(101, make_gtn(1, 1))

    def test_adopt_advances_lamport_counter(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        vc.adopt(100, make_gtn(50, 3))
        assert counter_of(vc.next_local_number) == 51

    def test_adopt_unknown_rejected(self):
        vc = DistributedVersionControl(site_id=1)
        with pytest.raises(ProtocolError):
            vc.adopt(999, make_gtn(1, 1))


class TestVisibility:
    def test_vtnc_advances_on_completion(self):
        vc = DistributedVersionControl(site_id=1)
        h = vc.hold(100)
        assert vc.vtnc < h
        vc.complete(100)
        assert vc.vtnc >= h

    def test_out_of_order_completion_delayed(self):
        vc = DistributedVersionControl(site_id=1)
        h1 = vc.hold(100)
        vc.hold(101)
        vc.complete(101)
        assert vc.vtnc < h1
        vc.complete(100)
        assert vc.vtnc >= make_gtn(2, 1)

    def test_discard_unblocks(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        h2 = vc.hold(101)
        vc.complete(101)
        vc.discard(100)
        assert vc.vtnc >= h2

    def test_observer_fires_on_advance(self):
        seen = []
        vc = DistributedVersionControl(site_id=1)
        vc.subscribe(seen.append)
        vc.hold(100)
        vc.complete(100)
        assert seen and seen[-1] == vc.vtnc


class TestTryAdvance:
    def test_idle_site_fast_forwards(self):
        vc = DistributedVersionControl(site_id=1)
        target = make_gtn(40, 5)
        assert vc.try_advance_to(target)
        assert vc.vtnc >= target
        # Future holds must exceed the advanced visibility.
        assert vc.hold(100) > target

    def test_busy_site_refuses(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        assert not vc.try_advance_to(make_gtn(40, 5))

    def test_already_visible_is_true(self):
        vc = DistributedVersionControl(site_id=1)
        h = vc.hold(100)
        vc.complete(100)
        assert vc.try_advance_to(h)


class TestInvariantChecking:
    """The per-site check can fail: both of its comparisons, on forced
    corruption."""

    def test_visibility_covering_a_pending_entry_is_caught(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        hold = vc.hold(101)
        vc._vtnc = hold  # corrupt: covers both pending entries
        with pytest.raises(InvariantViolation, match="covers pending entry"):
            vc.complete(101)

    def test_hold_numbered_below_its_predecessor_is_caught(self):
        vc = DistributedVersionControl(site_id=1)
        vc.hold(100)
        vc.adopt(100, make_gtn(40, 5))
        vc._counter = 2  # corrupt: undo the Lamport advance adopt made
        with pytest.raises(InvariantViolation, match="out of order"):
            vc.hold(101)
