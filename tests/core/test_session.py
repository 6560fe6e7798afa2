"""Tests for the Database session facade."""

import pytest

from repro.core.session import Database
from repro.errors import (
    AbortReason,
    DeadlineExceeded,
    Overloaded,
    TransactionAborted,
    ValidationError,
)
from repro.protocols import VCOCCScheduler, VCTOScheduler
from repro.qos import AdmissionController


class TestTransactionContext:
    def test_commit_on_clean_exit(self):
        db = Database("vc-2pl")
        with db.transaction() as txn:
            txn["x"] = 5
        with db.snapshot() as snap:
            assert snap["x"] == 5

    def test_abort_on_exception(self):
        db = Database("vc-2pl")
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn["x"] = 5
                raise RuntimeError("client bug")
        with db.snapshot() as snap:
            assert snap["x"] is None

    def test_explicit_abort_then_clean_exit(self):
        db = Database("vc-2pl")
        with db.transaction() as txn:
            txn["x"] = 5
            txn.abort()
        with db.snapshot() as snap:
            assert snap["x"] is None

    def test_read_many(self):
        db = Database("vc-to")
        with db.transaction() as txn:
            txn["a"], txn["b"] = 1, 2
        with db.snapshot() as snap:
            assert snap.read_many(["a", "b"]) == {"a": 1, "b": 2}

    def test_snapshot_is_read_only(self):
        db = Database("vc-2pl")
        with pytest.raises(Exception):
            with db.snapshot() as snap:
                snap["x"] = 1

    def test_descriptor_accessible(self):
        db = Database("vc-to")
        with db.transaction() as txn:
            txn["x"] = 1
            assert txn.txn.tn is not None


class TestConstruction:
    def test_by_name(self):
        db = Database("vc-occ")
        assert isinstance(db.scheduler, VCOCCScheduler)

    def test_by_instance(self):
        sched = VCTOScheduler()
        db = Database(sched)
        assert db.scheduler is sched

    def test_kwargs_with_instance_rejected(self):
        with pytest.raises(TypeError):
            Database(VCTOScheduler(), victim_policy="youngest")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            Database("vc-nonsense")


class TestRunWithRetries:
    def test_returns_body_result(self):
        db = Database("vc-2pl")
        assert db.run(lambda txn: 42) == 42

    def test_counter_increment_retries_under_occ(self):
        db = Database("vc-occ")
        with db.transaction() as txn:
            txn["c"] = 0

        # Interleave a conflicting committed write between body and commit by
        # sabotaging from inside the body on the first attempt.
        attempts = []

        def increment(txn):
            value = txn["c"]
            if not attempts:
                attempts.append(1)
                with db.transaction() as saboteur:
                    saboteur["c"] = 100
            txn["c"] = value + 1
            return value + 1

        result = db.run(increment)
        assert result == 101, "second attempt read the saboteur's value"
        with db.snapshot() as snap:
            assert snap["c"] == 101

    def test_retries_exhausted_reraises(self):
        db = Database("vc-occ")

        def always_conflicts(txn):
            value = txn["c"]
            with db.transaction() as other:
                other["c"] = (value or 0) + 1
            txn["c"] = -1
            return value

        with pytest.raises(ValidationError):
            db.run(always_conflicts, retries=3)

    def test_body_exception_propagates_without_retry(self):
        db = Database("vc-2pl")
        calls = []

        def bad(txn):
            calls.append(1)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            db.run(bad)
        assert len(calls) == 1

    def test_read_only_run(self):
        db = Database("vc-to")
        with db.transaction() as txn:
            txn["x"] = 9
        value = db.run(lambda txn: txn["x"], read_only=True)
        assert value == 9
        assert db.scheduler.counters.get("cc.ro") == 0

    def test_check_serializable_passthrough(self):
        db = Database("vc-2pl")
        with db.transaction() as txn:
            txn["x"] = 1
        report = db.check_serializable()
        assert report.serializable


class TestRetryClassification:
    """Regression: ``run`` used to retry errors no retry can fix."""

    def _failing_body(self, error_factory):
        calls = []

        def body(txn):
            calls.append(1)
            raise error_factory(txn.txn.txn_id)

        return body, calls

    def test_user_requested_abort_not_retried(self):
        db = Database("vc-2pl")
        body, calls = self._failing_body(
            lambda txn_id: TransactionAborted(txn_id, AbortReason.USER_REQUESTED)
        )
        with pytest.raises(TransactionAborted):
            db.run(body, retries=5)
        assert len(calls) == 1, "USER_REQUESTED is terminal"

    def test_deadline_exceeded_not_retried(self):
        db = Database("vc-2pl")
        body, calls = self._failing_body(
            lambda txn_id: DeadlineExceeded(txn_id, 10.0, 11.0)
        )
        with pytest.raises(DeadlineExceeded):
            db.run(body, retries=5)
        assert len(calls) == 1, "the time budget is already spent"

    def test_retryable_abort_retries_with_backoff(self):
        db = Database("vc-2pl")
        calls = []

        def flaky(txn):
            calls.append(1)
            if len(calls) == 1:
                raise TransactionAborted(
                    txn.txn.txn_id, AbortReason.DEADLOCK_VICTIM
                )
            return "done"

        assert db.run(flaky, retries=5) == "done"
        assert len(calls) == 2
        assert len(db.last_retry_schedule) == 1
        assert db.last_retry_schedule[0] > 0

    def test_retry_schedule_deterministic_under_seed(self):
        def flaky_maker():
            calls = []

            def flaky(txn):
                calls.append(1)
                if len(calls) < 4:
                    raise TransactionAborted(
                        txn.txn.txn_id, AbortReason.DEADLOCK_VICTIM
                    )
                return True

            return flaky

        schedules = []
        for _ in range(2):
            db = Database("vc-2pl", retry_seed=99)
            db.run(flaky_maker(), retries=5)
            schedules.append(db.last_retry_schedule)
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 3
        other = Database("vc-2pl", retry_seed=100)
        other.run(flaky_maker(), retries=5)
        assert other.last_retry_schedule != schedules[0]


class TestRetrySchedulePinned:
    """``last_retry_schedule`` as exact floats for two fixed seeds.

    The delays are the session's whole back-off decision (formula, jitter
    stream, draw order), so any rewrite of the retry loop must replay them
    bit for bit.  Each run is made twice from a fresh ``Database``.
    """

    SCHEDULES = {
        3: [0.5611400667112991, 0.6249569078730295, 2.412607545082668, 5.676106900528071],
        41: [0.39408707177536745, 1.036719980725489, 2.577521723520229, 5.376675314979284],
    }

    @staticmethod
    def contended_occ_counter(seed):
        db = Database("vc-occ", retry_seed=seed)
        with db.transaction() as txn:
            txn["c"] = 0
        conflicts = []

        def increment(txn):
            value = txn["c"]
            if len(conflicts) < 4:
                conflicts.append(1)
                with db.transaction() as other:
                    other["c"] = value + 10
            txn["c"] = value + 1
            return value + 1

        assert db.run(increment, retries=10) == 41
        return db.last_retry_schedule

    @staticmethod
    def shed_then_admitted(seed):
        gate = AdmissionController(capacity=1)
        db = Database("vc-2pl", admission=gate, retry_seed=seed)
        hog = db.scheduler.begin()
        slept = []

        def sleep(delay):
            slept.append(delay)
            if len(slept) == 3:
                db.scheduler.abort(hog)  # frees the token: next begin admits

        db._sleep = sleep
        assert db.run(lambda txn: 7, retries=10) == 7
        assert gate.shed == 3
        assert slept == db.last_retry_schedule
        return db.last_retry_schedule

    @pytest.mark.parametrize("seed", sorted(SCHEDULES))
    def test_pinned_contended_occ_schedule(self, seed):
        for _ in range(2):
            assert self.contended_occ_counter(seed) == self.SCHEDULES[seed]

    @pytest.mark.parametrize("seed", sorted(SCHEDULES))
    def test_pinned_shed_then_admit_schedule(self, seed):
        for _ in range(2):
            assert self.shed_then_admitted(seed) == self.SCHEDULES[seed][:3]


class TestAdmissionAtTheSession:
    def test_shed_begin_is_retried_then_raises(self):
        gate = AdmissionController(capacity=1)
        db = Database("vc-2pl", admission=gate)
        hog = db.scheduler.begin()  # holds the only token
        slept = []
        db._sleep = slept.append
        with pytest.raises(Overloaded):
            db.run(lambda txn: txn, retries=2)
        assert gate.shed == 3, "initial attempt + 2 retries, all shed"
        assert len(slept) == 2, "backoff between shed attempts"
        db.scheduler.abort(hog)
        assert db.run(lambda txn: 7) == 7, "token freed: admitted again"

    def test_snapshots_bypass_admission(self):
        gate = AdmissionController(capacity=1)
        db = Database("vc-2pl", admission=gate)
        db.scheduler.begin()  # exhaust capacity
        with db.snapshot() as snap:
            assert snap["x"] is None
        assert gate.shed == 0

    def test_snapshot_reports_staleness(self):
        db = Database("vc-2pl")
        with db.transaction() as txn:
            txn["x"] = 1
        with db.snapshot() as snap:
            assert snap.staleness == 0, "idle database: perfectly fresh"
        with db.transaction() as txn:
            assert txn.staleness is None, "read-write: no snapshot bound"
