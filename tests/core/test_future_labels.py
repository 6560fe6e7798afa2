"""What a future calls itself, pinned: one of each kind the library makes.

A label is only ever *read* when something goes wrong or someone prints a
future (``repr``, ``FutureNotReady``, "settled twice"), so how and when it
is built is free to change — the strings are not.  Transaction ids come from
a process-wide counter, so the table is written in terms of each
transaction's own id.
"""

import pytest

from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.core.futures import OpFuture, failed, resolved
from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase
from repro.errors import FutureNotReady
from repro.protocols.registry import make_scheduler
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import ReplicationMode
from repro.sim.engine import Simulator
from repro.sim.server import FifoServer


def single_site():
    """RW write/read/commit, RO read/commit, and the snapshot-too-old read."""
    db = make_scheduler("vc-2pl-wal")
    writer = db.begin()
    w = writer.txn_id
    yield db.write(writer, "x", 1), f"w{w}[x]", f"<OpFuture w{w}[x] = None>"
    yield db.read(writer, "y"), f"r{w}[y]", f"<OpFuture r{w}[y] = None>"
    yield db.commit(writer), f"commit T{w}", f"<OpFuture commit T{w} = None>"
    reader = db.begin(read_only=True)
    r = reader.txn_id
    yield db.read(reader, "x"), f"r{r}[x_1]", f"<OpFuture r{r}[x_1] = 1>"
    db.ro_registry.revoke_oldest(1)
    yield (
        db.read(reader, "x"),
        f"r{r}[x] snapshot-too-old",
        f"<OpFuture r{r}[x] snapshot-too-old ! SnapshotTooOld('transaction {r} aborted "
        "(snapshot_too_old): snapshot lease at sn=1 revoked (memory_pressure); "
        "retry on a fresh snapshot')>",
    )
    reader = db.begin(read_only=True)
    r = reader.txn_id
    yield db.commit(reader), f"commit RO T{r}", f"<OpFuture commit RO T{r} = None>"


def lock_and_server():
    locks = LockManager()
    yield locks.acquire(1, "x", LockMode.EXCLUSIVE), "X-lock(x) T1", "<OpFuture X-lock(x) T1 = None>"
    yield locks.acquire(2, "x", LockMode.SHARED), "S-lock(x) T2", "<OpFuture S-lock(x) T2 pending>"
    yield FifoServer(Simulator(), 1.0).submit(), "fifo-slot", "<OpFuture fifo-slot pending>"


def distributed():
    db = DistributedVCDatabase(n_sites=3, courier=Courier(manual=True))
    txn = db.begin()
    t = txn.txn_id
    yield db.write(txn, "s1:x", 1), f"w{t}[s1:x]@s1", f"<OpFuture w{t}[s1:x]@s1 pending>"
    yield db.read(txn, "s2:y"), f"r{t}[s2:y]@s2", f"<OpFuture r{t}[s2:y]@s2 pending>"
    db.courier.pump()
    yield db.commit(txn), f"commit T{t}", f"<OpFuture commit T{t} pending>"
    reader = db.begin(read_only=True)
    r = reader.txn_id
    yield db.read(reader, "s1:x"), f"r{r}[s1:x]@s1", f"<OpFuture r{r}[s1:x]@s1 pending>"


def replicated():
    sim = Simulator()
    cluster = ReplicaCluster(
        n_replicas=3, courier=Courier(sim=sim, latency=1.0), mode=ReplicationMode.QUORUM
    )
    primary = cluster.primary
    txn = primary.begin()
    t = txn.txn_id
    primary.write(txn, "x", 1)
    commit = primary.commit(txn)
    yield commit, f"commit T{t} (quorum)", f"<OpFuture commit T{t} (quorum) pending>"
    sim.run()
    yield commit, f"commit T{t} (quorum)", f"<OpFuture commit T{t} (quorum) = None>"
    replica = cluster.pick_replica()
    reader = replica.begin(read_only=True)
    r, n = reader.txn_id, replica.replica_id
    yield (
        replica.read(reader, "x"),
        f"r{r}[x_1]@replica{n}",
        f"<OpFuture r{r}[x_1]@replica{n} = 1>",
    )
    yield replica.commit(reader), f"commit RO T{r}", f"<OpFuture commit RO T{r} = None>"


def plain():
    yield OpFuture(), "", "<OpFuture  pending>"
    yield OpFuture("seven"), "seven", "<OpFuture seven pending>"
    yield resolved(3, label="three"), "three", "<OpFuture three = 3>"
    yield failed(KeyError("k"), label="lost"), "lost", "<OpFuture lost ! KeyError('k')>"


@pytest.mark.parametrize(
    "kinds", [single_site, lock_and_server, distributed, replicated, plain]
)
def test_label_and_repr(kinds):
    seen = 0
    for future, label, shown in kinds():
        assert future.label == label
        assert repr(future) == shown
        assert future.label == label  # the same string on every read
        seen += 1
    assert seen >= 3


def test_the_two_messages_that_embed_a_label():
    locks = LockManager()
    locks.acquire(1, "x", LockMode.EXCLUSIVE)
    waiting = locks.acquire(2, "x", LockMode.SHARED)
    with pytest.raises(FutureNotReady) as not_ready:
        waiting.result()
    assert str(not_ready.value) == (
        "operation S-lock(x) T2 is still blocked; drive another transaction to unblock it"
    )
    locks.release_all(1)
    with pytest.raises(RuntimeError) as twice:
        waiting.fail(KeyError("late"))
    assert str(twice.value) == "future S-lock(x) T2 settled twice (was resolved, now failed)"
    with pytest.raises(FutureNotReady, match="operation <unnamed> is still blocked"):
        OpFuture().result()
    with pytest.raises(RuntimeError, match="future <unnamed> settled twice"):
        resolved(1).resolve(2)


class CountsFormats:
    def __init__(self):
        self.formatted = 0

    def __format__(self, spec):
        self.formatted += 1
        return "key"

    def __hash__(self):
        return 1


def test_a_label_is_rendered_at_most_once():
    db = make_scheduler("vc-2pl")
    key = CountsFormats()
    reader = db.begin(read_only=True)
    future = db.read(reader, key)
    r = reader.txn_id
    assert [future.label, repr(future), future.label] == [
        f"r{r}[key_0]", f"<OpFuture r{r}[key_0] = None>", f"r{r}[key_0]",
    ]
    assert key.formatted == 1
