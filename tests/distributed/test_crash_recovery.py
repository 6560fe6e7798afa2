"""Site crash and WAL-replay recovery in the distributed protocols.

Manual couriers stage the adversarial moments precisely: a crash with a
COMMIT in flight, a crash between prepare and decide, duplicated
deliveries racing recovery.  The invariants under test are the ones the
fault drills (``tests/faults/test_drill.py``) assert statistically:
committed writes survive, pre-decision transactions abort cleanly, decided
transactions commit exactly once, and histories stay one-copy
serializable.
"""

import pytest

from repro.distributed import Courier, DistributedMV2PL, DistributedVCDatabase
from repro.errors import AbortReason, ProtocolError, TransactionAborted
from repro.faults import FaultSchedule, FaultSpec, FaultyCourier
from repro.histories import assert_one_copy_serializable
from repro.sim.engine import Simulator


class TestDVCCrashRecovery:
    def test_committed_data_survives_crash_restart(self):
        db = DistributedVCDatabase(n_sites=2)
        t = db.begin()
        db.write(t, "s1:x", 41).result()
        db.write(t, "s2:y", 42).result()
        db.commit(t).result()
        lost = db.crash_restart_site(1)
        assert lost == 0, "everything was forced at commit"
        r = db.begin()
        assert db.read(r, "s1:x").result() == 41
        assert db.read(r, "s2:y").result() == 42
        db.commit(r).result()
        assert_one_copy_serializable(db.history)

    def test_pre_decision_transaction_aborts_on_crash(self):
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        t = db.begin()
        fx = db.write(t, "s1:x", 1)
        fy = db.write(t, "s2:y", 2)
        courier.pump()
        fx.result(), fy.result()
        done = db.commit(t)
        courier.pump(1)  # only site 1's prepare: no decision yet
        db.crash_restart_site(2)
        assert t.state.value == "aborted"
        assert done.failed
        with pytest.raises(TransactionAborted) as exc_info:
            done.result()
        assert exc_info.value.reason is AbortReason.SITE_FAILURE
        courier.pump()  # drain stale messages: all no-ops
        r = db.begin()
        check = db.read(r, "s1:x")
        courier.pump()
        assert check.result() is None, "nothing installed"
        finish = db.commit(r)
        courier.pump()
        finish.result()
        assert_one_copy_serializable(db.history)

    def test_in_doubt_commit_applied_during_recovery(self):
        """A decided transaction whose COMMIT is in flight to a crashing
        site is applied by recovery (presumed commit), and the late
        message delivery is a harmless no-op."""
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        t = db.begin()
        fx = db.write(t, "s1:x", 1)
        fy = db.write(t, "s2:y", 2)
        courier.pump()
        fx.result(), fy.result()
        done = db.commit(t)
        courier.pump(2)  # both prepares; decide() ran; commits queued
        courier.pump(1)  # commit applied at site 1 only
        assert done.pending and t.tn is not None
        db.crash_restart_site(2)
        assert done.done, "recovery applied the in-doubt commit"
        assert db.sites[2].store.read_latest_committed("s2:y").value == 2
        courier.pump()  # the original COMMIT message arrives late: no-op
        r = db.begin(read_only=True, origin_site=2)
        f = db.read(r, "s2:y")
        courier.pump()
        assert f.result() == 2
        db.commit(r).result()
        assert_one_copy_serializable(db.history)

    def test_recovered_counter_stays_above_existing_numbers(self):
        db = DistributedVCDatabase(n_sites=2)
        tns = []
        for i in range(3):
            t = db.begin()
            db.write(t, "s1:x", i).result()
            db.write(t, "s2:y", i).result()
            db.commit(t).result()
            tns.append(t.tn)
        db.crash_restart_site(1)
        t = db.begin()
        db.write(t, "s1:x", 99).result()
        db.commit(t).result()
        assert t.tn > max(tns), "no number reuse after restart"
        assert db.sites[1].store.read_latest_committed("s1:x").value == 99

    def test_lock_waiter_fails_on_crash(self):
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        t1 = db.begin()
        f1 = db.write(t1, "s1:x", 1)
        courier.pump()
        f1.result()
        t2 = db.begin()
        f2 = db.write(t2, "s1:x", 2)
        courier.pump()
        assert f2.pending, "t2 waits behind t1's exclusive lock"
        db.crash_restart_site(1)
        assert f2.failed
        with pytest.raises(TransactionAborted) as exc_info:
            f2.result()
        assert exc_info.value.reason is AbortReason.SITE_FAILURE
        assert t1.state.value == "aborted", "t1 was pre-decision at the site"
        assert t2.state.value == "aborted"

    def test_every_overlapping_operation_fails_on_crash(self):
        """Two operations of one transaction open at once: the first
        resolving must not make the fault path forget the second, or its
        client waits forever on a message that died with the site."""
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=3, courier=courier)
        t = db.begin()
        f1 = db.read(t, "s1:x")
        f2 = db.read(t, "s2:y")
        courier.pump(1)  # f1's hop lands; f2's is still in flight
        assert f1.done and f2.pending
        db.crash_site(2)
        assert t.state.value == "aborted"
        assert f2.failed, "the open operation at the crashed site is failed"
        with pytest.raises(TransactionAborted) as exc_info:
            f2.result()
        assert exc_info.value.reason is AbortReason.SITE_FAILURE

    def test_messages_park_while_site_down_and_replay_on_recovery(self):
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        db.crash_site(1)
        t = db.begin()
        result = db.write(t, "s1:x", 7)
        courier.pump()  # delivery parks at the dead site
        assert result.pending
        db.recover_site(1)
        courier.pump()
        assert result.done
        done = db.commit(t)
        courier.pump()
        done.result()
        assert db.sites[1].store.read_latest_committed("s1:x").value == 7

    def test_recover_requires_crashed_site(self):
        db = DistributedVCDatabase(n_sites=2)
        with pytest.raises(ProtocolError):
            db.recover_site(1)

    def test_duplicated_deliveries_are_idempotent(self):
        """Every message delivered twice: commits still apply exactly once."""
        sim = Simulator()
        courier = FaultyCourier(sim, schedule=FaultSchedule(FaultSpec(duplicate=1.0)))
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        committed = []

        def client():
            for i in range(4):
                t = db.begin()
                yield db.write(t, "s1:x", i)
                yield db.write(t, "s2:y", i)
                yield db.commit(t)
                committed.append(t.tn)

        sim.spawn(client())
        sim.run()  # every echo delivered
        assert sim.all_finished() and len(committed) == 4
        assert courier.schedule.counts.duplicates > 0
        for site, key in ((1, "s1:x"), (2, "s2:y")):
            tns = [v.tn for v in db.sites[site].store.object(key).versions()]
            assert all(tns.count(tn) == 1 for tn in committed), tns
        assert_one_copy_serializable(db.history)

    def test_prepare_timeout_aborts_stalled_2pc(self):
        sim = Simulator()
        courier = FaultyCourier(sim, schedule=FaultSchedule(FaultSpec(), seed=0))
        db = DistributedVCDatabase(n_sites=2, courier=courier, prepare_timeout=10.0)

        def client():
            t = db.begin()
            yield db.write(t, "s1:x", 1)
            yield db.write(t, "s2:y", 2)
            courier.partition("2pc")  # partition the commit path
            try:
                yield db.commit(t)
                raise AssertionError("commit should have timed out")
            except TransactionAborted as exc:
                assert exc.reason is AbortReason.PREPARE_TIMEOUT

        sim.spawn(client())
        sim.run()
        assert sim.all_finished()
        assert db.counters.get("2pc.prepare_timeouts") == 1


class TestVisibilityWaitLiveness:
    def test_parked_reader_fast_forwards_when_queue_drains(self):
        """Drill-found liveness bug: a reader with a start number from a
        busy site parks at a quieter site while its VC queue is non-empty;
        when the queue drains, visibility must fast-forward past the quiet
        site's own idle frontier or the reader wedges forever."""
        courier = Courier(manual=True)
        db = DistributedVCDatabase(n_sites=2, courier=courier)
        for i in range(3):  # push site 2's counter well past site 1's
            t = db.begin()
            db.write(t, "s2:y", i)
            courier.pump()
            done = db.commit(t)
            courier.pump()
            done.result()
        t = db.begin()
        db.write(t, "s1:x", 7)
        courier.pump()
        done = db.commit(t)
        courier.pump(1)  # site 1's prepare: hold registered, queue non-empty
        r = db.begin(read_only=True, origin_site=2)
        assert r.sn > db.sites[1].vc.vtnc
        read = db.read(r, "s1:x")
        courier.pump(1)  # the read parks: site 1 cannot advance yet
        assert read.pending
        courier.pump()  # commit applies; the drained queue must fast-forward
        assert read.result() == 7
        done.result()


class TestDMV2PLCrashRecovery:
    def test_committed_data_survives_crash_restart(self):
        db = DistributedMV2PL(n_sites=2)
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.write(t, "s2:y", 2).result()
        db.commit(t).result()
        lost = db.crash_restart_site(1)
        assert lost == 0
        r = db.begin()
        assert db.read(r, "s1:x").result() == 1
        db.commit(r).result()

    def test_active_transaction_aborts_on_crash(self):
        db = DistributedMV2PL(n_sites=2)
        t = db.begin()
        db.write(t, "s1:x", 1).result()
        db.crash_restart_site(1)
        assert t.state.value == "aborted"
        with pytest.raises(TransactionAborted) as info:
            db.read(t, "s1:x")
        assert info.value.reason is AbortReason.SITE_FAILURE

    def test_in_doubt_commit_applied_during_recovery(self):
        courier = Courier(manual=True)
        db = DistributedMV2PL(n_sites=2, courier=courier)
        t = db.begin()
        fx = db.write(t, "s1:x", 1)
        fy = db.write(t, "s2:y", 2)
        courier.pump()
        fx.result(), fy.result()
        done = db.commit(t)
        courier.pump(1)  # commit applied at site 1 only
        assert done.pending
        db.crash_restart_site(2)
        assert done.done, "recovery applied the in-doubt local commit"
        assert db.sites[2].store.read_latest_committed("s2:y").value == 2
        courier.pump()  # late COMMIT delivery: no-op

    def test_commit_counter_restarts_above_durable_numbers(self):
        db = DistributedMV2PL(n_sites=2)
        for i in range(3):
            t = db.begin()
            db.write(t, "s1:x", i).result()
            db.commit(t).result()
        before = db.sites[1].commit_counter
        db.crash_restart_site(1)
        assert db.sites[1].commit_counter == before
        t = db.begin()
        db.write(t, "s1:x", 99).result()
        db.commit(t).result()
        chain = db.sites[1].store.object("s1:x")
        tns = [v.tn for v in chain.versions()]
        assert tns == sorted(tns), "no number reuse after restart"
