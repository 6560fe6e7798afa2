"""Error taxonomy for the repro library.

Every abnormal outcome a transaction can experience maps to one exception
class here, so callers can distinguish *why* a transaction failed without
string matching.  The taxonomy mirrors the failure modes the paper discusses:

* timestamp-ordering rejections (late writes),
* deadlock victims under two-phase locking,
* optimistic validation failures,
* garbage-collected versions (paper Section 6),
* protocol misuse by client code,
* quality-of-service outcomes (deadline expiry, admission-control shedding,
  infrastructure unavailability, snapshot-lease revocation under memory
  pressure) from :mod:`repro.qos`.

The QoS layer additionally needs to *classify* failures: a deadlock victim
should be retried, a corrupt log must never be.  The classification lives
here, next to the taxonomy, so retry loops and dashboards agree on it
(:data:`RETRYABLE_REASONS`, :data:`INFRASTRUCTURE_REASONS`,
:func:`is_retryable`).
"""

from __future__ import annotations

import enum


class AbortReason(enum.Enum):
    """Why a transaction was aborted.

    The specific reason is reported in metrics so experiments can attribute
    aborts to their cause (e.g. EXP-B counts aborts whose reason is
    ``TIMESTAMP_REJECTED`` *and* whose conflicting reader was read-only).
    """

    USER_REQUESTED = "user_requested"
    TIMESTAMP_REJECTED = "timestamp_rejected"
    DEADLOCK_VICTIM = "deadlock_victim"
    VALIDATION_FAILED = "validation_failed"
    WOUNDED = "wounded"
    SITE_FAILURE = "site_failure"
    COORDINATOR_ABORT = "coordinator_abort"
    #: The 2PC prepare round did not gather its holds in time.  Distinct
    #: from COORDINATOR_ABORT so dashboards and retry classification can
    #: tell infrastructure aborts from contention aborts.
    PREPARE_TIMEOUT = "prepare_timeout"
    #: A required site was unreachable (crashed, or its circuit breaker is
    #: open) at the time of the operation.
    SITE_UNAVAILABLE = "site_unavailable"
    #: The transaction's deadline passed while it was blocked or in flight.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: A read-only transaction's snapshot lease was revoked (memory
    #: pressure, or the lease's virtual-time TTL passed without renewal)
    #: and the versions its snapshot needs may since have been reclaimed.
    #: The session must restart on a fresh snapshot — retryable by design.
    SNAPSHOT_TOO_OLD = "snapshot_too_old"
    #: The replica quorum needed to acknowledge a commit is unreachable —
    #: the primary's epoch lease lapsed (fenced) or the group ack timed
    #: out.  Retryable: the cluster heals itself by electing a new primary,
    #: and the retried attempt lands there.
    QUORUM_UNAVAILABLE = "quorum_unavailable"


#: Abort reasons worth retrying: transient contention or transient
#: infrastructure trouble.  A fresh attempt may well succeed.
RETRYABLE_REASONS = frozenset(
    {
        AbortReason.TIMESTAMP_REJECTED,
        AbortReason.DEADLOCK_VICTIM,
        AbortReason.VALIDATION_FAILED,
        AbortReason.WOUNDED,
        AbortReason.SITE_FAILURE,
        AbortReason.COORDINATOR_ABORT,
        AbortReason.PREPARE_TIMEOUT,
        AbortReason.SITE_UNAVAILABLE,
        AbortReason.SNAPSHOT_TOO_OLD,
        AbortReason.QUORUM_UNAVAILABLE,
    }
)

#: Abort reasons a retry cannot fix: the user asked for the abort, or the
#: transaction's time budget is already spent.  Kept explicit (not derived
#: as the complement) so adding an AbortReason without classifying it is a
#: loud error: the partition invariants below fail at import time, and the
#: regression test in ``tests/test_errors.py`` names the stray member.
NONRETRYABLE_REASONS = frozenset(
    {
        AbortReason.USER_REQUESTED,
        AbortReason.DEADLINE_EXCEEDED,
    }
)

#: Abort reasons caused by infrastructure (sites, network), not by data
#: contention — the signal circuit breakers and operators care about.
INFRASTRUCTURE_REASONS = frozenset(
    {
        AbortReason.SITE_FAILURE,
        AbortReason.PREPARE_TIMEOUT,
        AbortReason.SITE_UNAVAILABLE,
        AbortReason.QUORUM_UNAVAILABLE,
    }
)

#: Abort reasons caused by data contention, resource pressure, or the
#: client itself — the complement of :data:`INFRASTRUCTURE_REASONS`.
#: ``SNAPSHOT_TOO_OLD`` lands here: a revoked lease is the *database*
#: protecting its memory, not a site or network failure, so it must not
#: trip circuit breakers.
CONTENTION_REASONS = frozenset(
    {
        AbortReason.USER_REQUESTED,
        AbortReason.TIMESTAMP_REJECTED,
        AbortReason.DEADLOCK_VICTIM,
        AbortReason.VALIDATION_FAILED,
        AbortReason.WOUNDED,
        AbortReason.COORDINATOR_ABORT,
        AbortReason.DEADLINE_EXCEEDED,
        AbortReason.SNAPSHOT_TOO_OLD,
    }
)

# Classification audit: every AbortReason appears in exactly one of the
# retryable/non-retryable lists and exactly one of the
# infrastructure/contention lists.  A new reason that skips classification
# breaks the import, not a retry loop at 3am.
assert RETRYABLE_REASONS | NONRETRYABLE_REASONS == frozenset(AbortReason)
assert not RETRYABLE_REASONS & NONRETRYABLE_REASONS
assert INFRASTRUCTURE_REASONS | CONTENTION_REASONS == frozenset(AbortReason)
assert not INFRASTRUCTURE_REASONS & CONTENTION_REASONS


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class TransactionAborted(ReproError):
    """Raised when an operation cannot proceed because its transaction aborted.

    Attributes:
        txn_id: identifier of the aborted transaction.
        reason: the :class:`AbortReason` explaining the abort.
        caused_by_readonly: True when the conflicting operation that forced
            the abort belonged to a read-only transaction.  This is the
            measurable quantity behind the paper's claim that, under Reed's
            MVTO, read-only transactions can abort read-write transactions,
            while under version control they never can.
    """

    def __init__(
        self,
        txn_id: int,
        reason: AbortReason,
        detail: str = "",
        caused_by_readonly: bool = False,
    ):
        self.txn_id = txn_id
        self.reason = reason
        self.detail = detail
        self.caused_by_readonly = caused_by_readonly
        message = f"transaction {txn_id} aborted ({reason.value})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class DeadlockError(TransactionAborted):
    """A transaction was chosen as a deadlock victim."""

    def __init__(self, txn_id: int, cycle: tuple[int, ...] = (), detail: str = ""):
        self.cycle = cycle
        super().__init__(txn_id, AbortReason.DEADLOCK_VICTIM, detail or f"cycle {cycle}")


class ValidationError(TransactionAborted):
    """An optimistic transaction failed backward validation."""

    def __init__(self, txn_id: int, conflicting_txn: int | None = None, detail: str = ""):
        self.conflicting_txn = conflicting_txn
        super().__init__(txn_id, AbortReason.VALIDATION_FAILED, detail)


class DeadlineExceeded(TransactionAborted):
    """A transaction's deadline passed while an operation was blocked.

    Raised instead of waiting forever: the lock manager fails the blocked
    request's future with this, and the distributed layer aborts a 2PC that
    cannot reach its decision point before the deadline.  Deadlines are virtual-time and
    carried on the transaction descriptor (``txn.deadline``).
    """

    def __init__(self, txn_id: int, deadline: float = 0.0, now: float = 0.0, detail: str = ""):
        self.deadline = deadline
        self.now = now
        if not detail and deadline:
            detail = f"deadline {deadline} passed at {now}"
        super().__init__(txn_id, AbortReason.DEADLINE_EXCEEDED, detail)


class SnapshotTooOld(TransactionAborted):
    """A read-only transaction's snapshot lease was revoked.

    Raised on the session's next read (never mid-read: past reads were all
    of retained versions, so nothing it already saw can be wrong).  Two
    causes, carried in ``cause``:

    * ``"memory_pressure"`` — the :class:`~repro.qos.memory.\
MemoryPressureController` revoked the oldest leases so garbage collection
      could advance past a pinned snapshot;
    * ``"lease_expired"`` — the lease's virtual-time TTL passed without a
      renewal (every read renews; an idle session eventually loses its pin).

    Always retryable (:data:`RETRYABLE_REASONS`): a fresh ``begin`` obtains
    a new snapshot at the current ``vtnc`` and a new lease.  Classified as
    contention, not infrastructure — revocation is the database shedding
    memory load, and must not trip circuit breakers.
    """

    def __init__(
        self,
        txn_id: int,
        sn: int | None = None,
        cause: str = "memory_pressure",
        detail: str = "",
    ):
        self.sn = sn
        self.cause = cause
        if not detail:
            detail = (
                f"snapshot lease at sn={sn} revoked ({cause}); "
                "retry on a fresh snapshot"
            )
        super().__init__(txn_id, AbortReason.SNAPSHOT_TOO_OLD, detail)


class QuorumUnavailable(TransactionAborted):
    """A quorum-mode commit could not be acknowledged by a replica majority.

    Two flavours, carried in ``fenced``:

    * ``fenced=True`` — the primary's epoch lease lapsed *before* the
      commit point, so the transaction was cleanly aborted (no COMMIT
      record forced).  Nothing was made durable; a retry on the current
      primary (likely a freshly elected one) is safe and complete.
    * ``fenced=False`` — the group ack timed out *after* the commit point.
      The outcome is indeterminate: the commit is durable on the old
      primary's log and may survive a fail-over, but it was never
      acknowledged to the session, so quorum mode's RPO=0 promise (no
      *acknowledged* commit is ever lost) is unaffected.  Idempotent
      retries are the caller's contract, exactly as with any distributed
      commit timeout.

    Always retryable (:data:`RETRYABLE_REASONS`) and classified as
    infrastructure (:data:`INFRASTRUCTURE_REASONS`): the quorum being out
    of reach is a site/network condition, and circuit breakers should see
    it.  Sessions degrade rather than block — read-only snapshots keep
    serving from replicas while writes fail fast with this error.
    """

    def __init__(
        self,
        txn_id: int,
        epoch: int | None = None,
        fenced: bool = False,
        detail: str = "",
    ):
        self.epoch = epoch
        self.fenced = fenced
        if not detail:
            detail = (
                f"primary lease for epoch {epoch} lapsed; commit refused (fenced)"
                if fenced
                else f"quorum ack timed out in epoch {epoch}; outcome indeterminate"
            )
        super().__init__(txn_id, AbortReason.QUORUM_UNAVAILABLE, detail)


class VersionNotFound(ReproError):
    """No version of an object satisfies the read request.

    Raised when a read-only transaction's snapshot predates every retained
    version — the situation the paper flags as the only way a read-only read
    can fail: "Barring the unavailability of an appropriate version to read
    due to garbage-collection of old versions, a read request of T is never
    rejected."
    """

    def __init__(self, key: object, bound: int):
        self.key = key
        self.bound = bound
        super().__init__(f"no version of {key!r} with version number <= {bound}")


class CorruptLogError(ReproError):
    """The write-ahead log contains a malformed record before the tail.

    A *torn tail* — a record only partially written by an interrupted
    ``force()`` — is an expected crash outcome and recovery simply treats it
    as the durable boundary.  A malformed record anywhere *before* the tail
    means the stable medium itself is damaged; recovery cannot silently skip
    it without risking committed-write loss, so it raises this error with
    the offending record's index.
    """

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        message = f"corrupt log record at index {index}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class SiteUnavailable(ReproError):
    """An operation was addressed to a site that is currently unreachable.

    Raised by the distributed layer when client code operates on a site
    between :meth:`crash_site` and :meth:`recover_site`, or when the site's
    circuit breaker is open and the operation fails fast instead of joining
    a doomed wait (see :mod:`repro.qos.breaker`).
    """

    def __init__(self, site_id: int | None = None, detail: str = ""):
        self.site_id = site_id
        message = detail or (
            f"site {site_id} is unavailable" if site_id is not None else "site unavailable"
        )
        super().__init__(message)


class Overloaded(ReproError):
    """Admission control shed this request: the system is over capacity.

    A typed, never-silent rejection — the caller learns the policy that
    shed it and how deep the wait queue was, and can back off and retry
    (shedding is always retryable, but consumes retry budget so storms
    cannot amplify the overload).
    """

    def __init__(self, policy: str = "fifo", queue_depth: int = 0, detail: str = ""):
        self.policy = policy
        self.queue_depth = queue_depth
        message = detail or (
            f"admission control shed the request (policy={policy}, "
            f"queue_depth={queue_depth})"
        )
        super().__init__(message)


class ReplicaLagging(ReproError):
    """A replica's watermark trails the primary beyond the staleness bound.

    Raised only under the ``"reject"`` staleness policy of
    :class:`~repro.replica.ReplicatedDatabase`: the caller asked for a
    snapshot no staler than ``bound`` transactions and every routing choice
    would violate it.  Retryable — replication lag is transient by nature
    (the backlog drains as soon as shipping heals) — and classified as
    infrastructure, like the network faults that usually cause it.  The
    default policies degrade instead of raising: ``"redirect"`` serves the
    snapshot from the primary, ``"stale"`` serves it anyway and marks it.
    """

    def __init__(self, replica_id: int, lag: int, bound: int, detail: str = ""):
        self.replica_id = replica_id
        self.lag = lag
        self.bound = bound
        message = detail or (
            f"replica {replica_id} lags {lag} transactions behind the "
            f"primary (bound {bound})"
        )
        super().__init__(message)


class ProtocolError(ReproError):
    """Client code violated the scheduler's usage contract.

    Examples: writing inside a transaction declared read-only, operating on a
    committed transaction, reading a key twice when the model forbids it.
    """


class FutureNotReady(ReproError):
    """``OpFuture.result()`` was called on a future that is still blocked.

    In the cooperative (threadless) execution model a pending future can only
    make progress when *another* transaction acts, so synchronously waiting
    would deadlock the caller; we raise instead.
    """


class InvariantViolation(ReproError):
    """An internal protocol invariant was broken (always a library bug).

    The version-control module checks the paper's Transaction Ordering and
    Transaction Visibility properties after every state change; a violation
    raises this.
    """


def is_retryable(error: BaseException) -> bool:
    """Whether a fresh attempt of the failed transaction could succeed.

    The single classification point shared by :meth:`Database.run` and any
    other retry loop:

    * :class:`Overloaded` — yes (back off first; shedding is transient);
    * :class:`SiteUnavailable` — yes (infrastructure may recover);
    * :class:`ReplicaLagging` — yes (lag drains once shipping heals);
    * :class:`TransactionAborted` — per :data:`RETRYABLE_REASONS`; notably
      ``USER_REQUESTED`` and ``DEADLINE_EXCEEDED`` are *not* retryable (the
      user asked, or the budget of time is already spent);
    * everything else (``CorruptLogError``, ``ProtocolError``, user
      exceptions) — no: retrying cannot fix a damaged log or a usage bug.
    """
    if isinstance(error, (Overloaded, SiteUnavailable, ReplicaLagging)):
        return True
    if isinstance(error, TransactionAborted):
        return error.reason in RETRYABLE_REASONS
    return False


def is_infrastructure(error: BaseException) -> bool:
    """Whether the failure was caused by infrastructure, not contention."""
    if isinstance(error, (SiteUnavailable, ReplicaLagging)):
        return True
    if isinstance(error, TransactionAborted):
        return error.reason in INFRASTRUCTURE_REASONS
    return False
