"""Tests for the VersionControl module (paper Figure 1).

Includes the FIG1 scripted trace, the two counter properties, and
hypothesis-driven randomized completion orders.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.errors import InvariantViolation, ProtocolError


def fresh_txn():
    return Transaction()


class TestCounters:
    def test_initial_state(self):
        vc = VersionControl()
        assert vc.tnc == 1
        assert vc.vtnc == 0
        assert vc.lag == 0

    def test_custom_first_tn(self):
        vc = VersionControl(first_tn=100)
        assert vc.tnc == 100
        assert vc.vtnc == 99

    def test_first_tn_must_be_positive(self):
        with pytest.raises(ValueError):
            VersionControl(first_tn=0)

    def test_vtnc_below_tnc_always(self):
        vc = VersionControl()
        txns = [fresh_txn() for _ in range(5)]
        for t in txns:
            vc.vc_register(t)
            assert vc.vtnc < vc.tnc
        for t in txns:
            vc.vc_complete(t)
            assert vc.vtnc < vc.tnc


class TestRegister:
    def test_assigns_sequential_numbers(self):
        vc = VersionControl()
        t1, t2, t3 = fresh_txn(), fresh_txn(), fresh_txn()
        assert vc.vc_register(t1) == 1
        assert vc.vc_register(t2) == 2
        assert vc.vc_register(t3) == 3
        assert vc.tnc == 4

    def test_register_twice_rejected(self):
        vc = VersionControl()
        t = fresh_txn()
        vc.vc_register(t)
        with pytest.raises(ProtocolError, match="twice"):
            vc.vc_register(t)

    def test_unsupported_status_rejected(self):
        vc = VersionControl()
        with pytest.raises(ProtocolError, match="status"):
            vc.vc_register(fresh_txn(), status="complete")

    def test_registration_does_not_advance_visibility(self):
        vc = VersionControl()
        vc.vc_register(fresh_txn())
        assert vc.vtnc == 0
        assert vc.lag == 1


class TestComplete:
    def test_in_order_completion_advances_immediately(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t1)
        assert vc.vtnc == 1
        vc.vc_complete(t2)
        assert vc.vtnc == 2

    def test_out_of_order_completion_delays_visibility(self):
        """The paper's motivating case: T2 finishes while T1 is active."""
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)  # tn=1
        vc.vc_register(t2)  # tn=2
        vc.vc_complete(t2)
        assert vc.vtnc == 0, "T2's updates must stay invisible behind active T1"
        vc.vc_complete(t1)
        assert vc.vtnc == 2, "completing T1 releases both"

    def test_long_delayed_chain(self):
        vc = VersionControl()
        txns = [fresh_txn() for _ in range(10)]
        for t in txns:
            vc.vc_register(t)
        for t in txns[1:]:
            vc.vc_complete(t)
        assert vc.vtnc == 0
        vc.vc_complete(txns[0])
        assert vc.vtnc == 10

    def test_complete_unregistered_rejected(self):
        vc = VersionControl()
        with pytest.raises(ProtocolError, match="not registered"):
            vc.vc_complete(fresh_txn())

    def test_complete_twice_rejected(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t2)  # still queued behind t1
        with pytest.raises(ProtocolError, match="twice"):
            vc.vc_complete(t2)


class TestDiscard:
    def test_discard_unblocks_younger_completions(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t2)
        assert vc.vtnc == 0
        vc.vc_discard(t1)  # t1 aborts
        assert vc.vtnc == 2, "visibility is delayed only for unaborted transactions"

    def test_discard_unregistered_rejected(self):
        vc = VersionControl()
        with pytest.raises(ProtocolError, match="discard"):
            vc.vc_discard(fresh_txn())

    def test_discard_tail_entry(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_discard(t2)
        assert vc.vtnc == 0
        vc.vc_complete(t1)
        assert vc.vtnc == 2, "vtnc may jump across the discarded number"

    def test_discard_sole_entry_makes_everything_visible(self):
        vc = VersionControl()
        t = fresh_txn()
        vc.vc_register(t)
        vc.vc_discard(t)
        assert vc.vtnc == vc.tnc - 1
        assert vc.lag == 0


class TestVCStart:
    def test_start_returns_vtnc(self):
        vc = VersionControl()
        assert vc.vc_start() == 0
        t = fresh_txn()
        vc.vc_register(t)
        vc.vc_complete(t)
        assert vc.vc_start() == 1

    def test_start_never_exposes_active_transactions(self):
        vc = VersionControl()
        t1 = fresh_txn()
        vc.vc_register(t1)
        sn = vc.vc_start()
        assert sn < t1.tn


class TestQueueIntrospection:
    def test_queue_snapshot_order(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t2)
        snap = vc.queue_snapshot()
        assert snap == [(t1.txn_id, 1, False), (t2.txn_id, 2, True)]
        assert len(vc) == 2

    def test_observer_events(self):
        events = []
        vc = VersionControl()
        vc.subscribe(lambda ev, n: events.append((ev, n)))
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc.vc_complete(t2)
        vc.vc_complete(t1)
        assert events == [
            ("register", 1),
            ("register", 2),
            ("advance", 1),
            ("advance", 2),
        ]

    def test_unsubscribe_stops_delivery(self):
        events = []
        observer = lambda ev, n: events.append((ev, n))  # noqa: E731
        vc = VersionControl()
        vc.subscribe(observer)
        t1 = fresh_txn()
        vc.vc_register(t1)
        vc.unsubscribe(observer)
        t2 = fresh_txn()
        vc.vc_register(t2)
        vc.vc_complete(t1)
        vc.vc_complete(t2)
        assert events == [("register", 1)]

    def test_unsubscribe_removes_by_identity(self):
        hits = []
        first = lambda ev, n: hits.append("first")  # noqa: E731
        second = lambda ev, n: hits.append("second")  # noqa: E731
        vc = VersionControl()
        vc.subscribe(first)
        vc.subscribe(second)
        vc.unsubscribe(first)
        vc.vc_register(fresh_txn())
        assert hits == ["second"]

    def test_unsubscribe_unknown_observer_rejected(self):
        vc = VersionControl()
        with pytest.raises(ValueError):
            vc.unsubscribe(lambda ev, n: None)

    def test_unsubscribe_twice_rejected(self):
        observer = lambda ev, n: None  # noqa: E731
        vc = VersionControl()
        vc.subscribe(observer)
        vc.unsubscribe(observer)
        with pytest.raises(ValueError):
            vc.unsubscribe(observer)


class TestInvariantChecking:
    def test_checked_mode_catches_forced_corruption(self):
        vc = VersionControl()
        t = fresh_txn()
        vc.vc_register(t)
        vc._vtnc = 5  # corrupt: vtnc >= tnc
        with pytest.raises(InvariantViolation, match="counter invariant"):
            vc._check()

    def test_visibility_covering_an_unfinished_entry_is_caught(self):
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc._vtnc = 1  # corrupt: t1 (tn=1) is still active
        with pytest.raises(InvariantViolation, match="visibility property"):
            vc._check()

    def test_finished_number_left_above_vtnc_is_caught(self):
        # Maximality, both ways a finished number can be stranded above vtnc:
        # a completed entry still at the head, and a number that left the
        # queue without vtnc stepping across it.
        vc = VersionControl()
        t1, t2 = fresh_txn(), fresh_txn()
        vc.vc_register(t1)
        vc.vc_register(t2)
        vc._queue[t1.txn_id].completed = True  # corrupt: completed, not drained
        with pytest.raises(InvariantViolation, match="not maximal: tn=1"):
            vc._check()
        del vc._queue[t1.txn_id]  # corrupt: gone, vtnc still 0 below t2
        with pytest.raises(InvariantViolation, match="not maximal: tn=1"):
            vc._check()
        vc._vtnc = 1
        vc._check()  # repaired: vtnc == oldest unfinished - 1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_property_visibility_tracks_completed_prefix(n, data):
    """Under any interleaving of register/complete/discard:

    * vtnc < tnc at every step;
    * vtnc never exceeds the largest prefix of assigned numbers whose
      transactions all finished (completed or discarded);
    * once the queue drains, vtnc == tnc - 1.
    """
    vc = VersionControl()
    txns = [fresh_txn() for _ in range(n)]
    for t in txns:
        vc.vc_register(t)
    finished: set[int] = set()
    order = data.draw(st.permutations(range(n)))
    discard_mask = data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    )
    for idx in order:
        t = txns[idx]
        if discard_mask[idx]:
            vc.vc_discard(t)
        else:
            vc.vc_complete(t)
        finished.add(t.tn)
        assert vc.vtnc < vc.tnc
        # Longest finished prefix of 1..n:
        prefix = 0
        while prefix + 1 in finished:
            prefix += 1
        assert vc.vtnc == prefix
    assert vc.vtnc == vc.tnc - 1 == n


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_interleaved_register_and_complete(data):
    """Registrations interleaved with completions keep both properties."""
    vc = VersionControl()
    live: list[Transaction] = []
    finished: set[int] = set()
    assigned = 0
    for _ in range(40):
        can_finish = bool(live)
        do_register = data.draw(st.booleans()) or not can_finish
        if do_register:
            t = fresh_txn()
            vc.vc_register(t)
            live.append(t)
            assigned += 1
            assert t.tn == assigned
        else:
            pick = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            t = live.pop(pick)
            if data.draw(st.booleans()):
                vc.vc_complete(t)
            else:
                vc.vc_discard(t)
            finished.add(t.tn)
        # Transaction Visibility Property, restated: every assigned tn at or
        # below vtnc is finished.
        for tn in range(1, vc.vtnc + 1):
            assert tn in finished
        # Maximality: tn = vtnc+1 is unassigned or unfinished.
        nxt = vc.vtnc + 1
        if nxt < vc.tnc:
            assert nxt not in finished
        assert vc.vtnc < vc.tnc
