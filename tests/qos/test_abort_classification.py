"""Every abort a fault or concurrency-control path sets, as the client sees it.

Each scenario drives one path to abort a transaction and returns the
operation that was in flight when it happened (None when the client only
finds out at its next operation).  The client's *next* operation on the
aborted transaction must then raise :class:`TransactionAborted` carrying
the abort reason — never ``ProtocolError``, which is for misuse — so that
:func:`is_retryable` gives the same verdict wherever the abort surfaces.
"""

import pytest

from repro.core.session import Database
from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase
from repro.errors import (
    AbortReason,
    DeadlineExceeded,
    DeadlockError,
    QuorumUnavailable,
    ReproError,
    SnapshotTooOld,
    TransactionAborted,
    is_retryable,
)
from repro.faults.courier import FaultyCourier
from repro.faults.schedule import FaultSchedule
from repro.protocols.registry import make_scheduler
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode
from repro.sim.engine import Simulator


def site_crash():
    courier = Courier(manual=True)
    db = DistributedVCDatabase(n_sites=2, courier=courier)
    txn = db.begin()
    db.write(txn, "s1:x", 1)
    courier.pump()
    in_flight = db.write(txn, "s2:y", 2)
    db.crash_site(1)
    return db, txn, in_flight


def prepare_timeout():
    sim = Simulator()
    courier = FaultyCourier(sim=sim)
    db = DistributedVCDatabase(n_sites=2, courier=courier, prepare_timeout=10.0)
    txn = db.begin()
    db.write(txn, "s1:x", 1)
    db.write(txn, "s2:y", 2)
    sim.run()
    courier.partition("2pc")
    in_flight = db.commit(txn)
    sim.run()
    return db, txn, in_flight


def deadlock_victim():
    db = make_scheduler("vc-2pl")
    first, second = db.begin(), db.begin()
    db.write(first, "x", 1).result()
    db.write(second, "y", 1).result()
    waiting = db.write(first, "y", 2)
    closing = db.write(second, "x", 2)
    if closing.failed:
        return db, second, closing
    return db, first, waiting


def wound():
    db = make_scheduler("vc-occ-fwd")
    reader = db.begin()
    db.read(reader, "x").result()
    writer = db.begin()
    db.write(writer, "x", 5).result()
    db.commit(writer).result()
    return db, reader, None


def deadline():
    db = make_scheduler("vc-2pl")
    holder, late = db.begin(), db.begin(deadline=5.0)
    db.write(holder, "x", 1).result()
    in_flight = db.read(late, "x")
    assert db.locks.expire_due(5.0) == [late.txn_id]
    return db, late, in_flight


def revoked_snapshot_lease():
    db = make_scheduler("vc-2pl-wal")
    reader = db.begin(read_only=True)
    db.ro_registry.revoke_oldest(1)
    return db, reader, db.read(reader, "x")


def fenced_quorum():
    sim = Simulator()
    courier = FaultyCourier(schedule=FaultSchedule(seed=0), sim=sim, latency=0.1)
    cluster = ReplicaCluster(n_replicas=2, courier=courier, mode=ReplicationMode.QUORUM)
    cluster.gate.lease.ttl = 5.0
    cluster.gate.lease.arm()
    for rid in cluster.replicas:
        courier.partition(f"ship.{rid}")
        courier.partition(f"ack.{rid}")
    sim.call_in(6.0, lambda: None)
    sim.run()
    db = cluster.primary
    txn = db.begin()
    db.write(txn, "x", 1).result()
    return db, txn, db.commit(txn)


def seen(operation):
    """The error an operation reports, raised at the call or through its future."""
    try:
        future = operation()
    except ReproError as error:
        return error
    assert future.failed, "the operation on an aborted transaction succeeded"
    return future.error


#: (scenario, the reason it sets, the in-flight error's type, retryable?)
CASES = [
    (site_crash, AbortReason.SITE_FAILURE, TransactionAborted, True),
    (prepare_timeout, AbortReason.PREPARE_TIMEOUT, TransactionAborted, True),
    (deadlock_victim, AbortReason.DEADLOCK_VICTIM, DeadlockError, True),
    (wound, AbortReason.WOUNDED, None, True),
    (deadline, AbortReason.DEADLINE_EXCEEDED, DeadlineExceeded, False),
    (revoked_snapshot_lease, AbortReason.SNAPSHOT_TOO_OLD, SnapshotTooOld, True),
    (fenced_quorum, AbortReason.QUORUM_UNAVAILABLE, QuorumUnavailable, True),
]


@pytest.mark.parametrize(
    "scenario, reason, in_flight_type, retryable",
    CASES,
    ids=[case[0].__name__ for case in CASES],
)
def test_the_client_sees_a_typed_abort_with_its_reason(
    scenario, reason, in_flight_type, retryable
):
    db, txn, in_flight = scenario()
    assert txn.abort_reason is reason
    if in_flight_type is None:
        assert in_flight is None
    else:
        assert in_flight.failed
        assert type(in_flight.error) is in_flight_type
        assert in_flight.error.reason is reason
        assert is_retryable(in_flight.error) is retryable
    error = seen(lambda: db.read(txn, "x"))
    assert type(error) is TransactionAborted
    assert error.reason is reason
    assert is_retryable(error) is retryable


class SessionSites(DistributedVCDatabase):
    """The session's ``begin(read_only, deadline)``; sites carry no deadline."""

    def begin(self, read_only=False, deadline=None):
        assert deadline is None
        return super().begin(read_only=read_only)


def test_run_retries_a_site_crash_between_operations_and_commits():
    db = SessionSites(n_sites=2)
    session = Database(db, retry_seed=5)
    crashes = []

    def body(txn):
        txn["s1:x"] = len(crashes)
        if not crashes:
            crashes.append(db.crash_site(1))
            db.recover_site(1)
        txn["s2:y"] = len(crashes)
        return len(crashes)

    assert session.run(body, retries=3) == 1
    assert len(session.last_retry_schedule) == 1
    reader = db.begin(read_only=True)
    assert db.read(reader, "s1:x").result() == 1
    assert db.read(reader, "s2:y").result() == 1
