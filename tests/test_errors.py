"""Tests for the error taxonomy."""

import pytest

from repro.errors import (
    CONTENTION_REASONS,
    INFRASTRUCTURE_REASONS,
    NONRETRYABLE_REASONS,
    RETRYABLE_REASONS,
    AbortReason,
    DeadlockError,
    FutureNotReady,
    InvariantViolation,
    ProtocolError,
    QuorumUnavailable,
    ReproError,
    SnapshotTooOld,
    TransactionAborted,
    ValidationError,
    VersionNotFound,
    is_retryable,
)


class TestHierarchy:
    def test_all_errors_are_repro_errors(self):
        for cls in (
            TransactionAborted,
            DeadlockError,
            ValidationError,
            VersionNotFound,
            ProtocolError,
            FutureNotReady,
            InvariantViolation,
        ):
            assert issubclass(cls, ReproError)

    def test_deadlock_and_validation_are_aborts(self):
        assert issubclass(DeadlockError, TransactionAborted)
        assert issubclass(ValidationError, TransactionAborted)
        # ...so one except-clause catches every protocol-initiated abort.
        with pytest.raises(TransactionAborted):
            raise DeadlockError(5, (1, 2, 1))


class TestTransactionAborted:
    def test_message_includes_reason(self):
        err = TransactionAborted(3, AbortReason.TIMESTAMP_REJECTED)
        assert "transaction 3" in str(err)
        assert "timestamp_rejected" in str(err)

    def test_detail_appended(self):
        err = TransactionAborted(3, AbortReason.USER_REQUESTED, detail="why")
        assert str(err).endswith("why")

    def test_caused_by_readonly_flag(self):
        err = TransactionAborted(
            3, AbortReason.TIMESTAMP_REJECTED, caused_by_readonly=True
        )
        assert err.caused_by_readonly


class TestSpecificErrors:
    def test_deadlock_carries_cycle(self):
        err = DeadlockError(2, cycle=(1, 2, 1))
        assert err.cycle == (1, 2, 1)
        assert err.reason is AbortReason.DEADLOCK_VICTIM

    def test_validation_carries_conflict(self):
        err = ValidationError(4, conflicting_txn=9)
        assert err.conflicting_txn == 9
        assert err.reason is AbortReason.VALIDATION_FAILED

    def test_version_not_found_carries_key_and_bound(self):
        err = VersionNotFound("x", 7)
        assert err.key == "x"
        assert err.bound == 7
        assert "<= 7" in str(err)

    def test_abort_reason_values_unique(self):
        values = [reason.value for reason in AbortReason]
        assert len(values) == len(set(values))

    def test_snapshot_too_old_carries_sn_and_cause(self):
        err = SnapshotTooOld(7, sn=3, cause="lease_expired")
        assert err.sn == 3
        assert err.cause == "lease_expired"
        assert err.reason is AbortReason.SNAPSHOT_TOO_OLD
        assert "sn=3" in str(err)
        assert "lease_expired" in str(err)

    def test_snapshot_too_old_defaults_to_memory_pressure(self):
        err = SnapshotTooOld(7, sn=3)
        assert err.cause == "memory_pressure"
        # One except-clause catches it alongside every protocol abort.
        assert isinstance(err, TransactionAborted)

    def test_snapshot_too_old_is_retryable_contention(self):
        err = SnapshotTooOld(7, sn=3)
        assert is_retryable(err)
        # The database shedding memory load must not trip circuit breakers.
        assert err.reason not in INFRASTRUCTURE_REASONS


class TestClassificationPartitions:
    """Every AbortReason lands in exactly one side of each partition.

    The import-time asserts in repro.errors enforce the same thing, but
    a failed module import points nowhere; these name the stray member.
    """

    def test_retryable_partition_is_exhaustive_and_disjoint(self):
        unclassified = frozenset(AbortReason) - RETRYABLE_REASONS - NONRETRYABLE_REASONS
        assert not unclassified, f"unclassified retryability: {sorted(r.value for r in unclassified)}"
        both = RETRYABLE_REASONS & NONRETRYABLE_REASONS
        assert not both, f"doubly classified: {sorted(r.value for r in both)}"

    def test_cause_partition_is_exhaustive_and_disjoint(self):
        unclassified = frozenset(AbortReason) - INFRASTRUCTURE_REASONS - CONTENTION_REASONS
        assert not unclassified, f"unclassified cause: {sorted(r.value for r in unclassified)}"
        both = INFRASTRUCTURE_REASONS & CONTENTION_REASONS
        assert not both, f"doubly classified: {sorted(r.value for r in both)}"

    def test_snapshot_too_old_membership(self):
        assert AbortReason.SNAPSHOT_TOO_OLD in RETRYABLE_REASONS
        assert AbortReason.SNAPSHOT_TOO_OLD in CONTENTION_REASONS

    def test_quorum_unavailable_membership(self):
        # Retryable (the cluster heals itself; the retry lands on the new
        # primary) and infrastructure (circuit breakers must see it).
        assert AbortReason.QUORUM_UNAVAILABLE in RETRYABLE_REASONS
        assert AbortReason.QUORUM_UNAVAILABLE in INFRASTRUCTURE_REASONS


class TestQuorumUnavailable:
    def test_carries_epoch_and_fencing_flavour(self):
        err = QuorumUnavailable(7, epoch=3, fenced=True)
        assert err.epoch == 3
        assert err.fenced is True
        assert err.reason is AbortReason.QUORUM_UNAVAILABLE
        assert "fenced" in str(err)

    def test_indeterminate_flavour_says_so(self):
        err = QuorumUnavailable(7, epoch=3)
        assert err.fenced is False
        assert "indeterminate" in str(err)
        # One except-clause catches it alongside every protocol abort.
        assert isinstance(err, TransactionAborted)
