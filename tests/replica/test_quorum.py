"""Quorum-acknowledged commits: gate arithmetic, group acks, lease fencing."""

import pytest

from repro.distributed.courier import Courier
from repro.errors import QuorumUnavailable
from repro.faults.courier import FaultyCourier
from repro.faults.schedule import FaultSchedule
from repro.replica.cluster import ReplicaCluster
from repro.replica.quorum import EpochLease, ReplicationMode
from repro.sim.engine import Simulator


def quorum_cluster(n_replicas=2, courier=None):
    return ReplicaCluster(
        n_replicas=n_replicas,
        courier=courier if courier is not None else Courier(manual=True),
        mode=ReplicationMode.QUORUM,
    )


def start_commit(cluster, key, value):
    db = cluster.primary
    txn = db.begin()
    db.write(txn, key, value).result()
    return txn, db.commit(txn)


class TestEpochLease:
    def test_unarmed_always_valid(self):
        clock = lambda: 1e9  # noqa: E731
        lease = EpochLease(0, ttl=1.0, clock=clock)
        assert lease.valid(majority=2)

    def test_startup_grace_of_one_ttl(self):
        now = [0.0]
        lease = EpochLease(0, ttl=5.0, clock=lambda: now[0])
        lease.arm()
        now[0] = 5.0
        assert lease.valid(majority=2), "within the grace window"
        now[0] = 5.1
        assert not lease.valid(majority=2), "grace over, no contacts"

    def test_fresh_majority_contacts_keep_it_valid(self):
        now = [0.0]
        lease = EpochLease(0, ttl=5.0, clock=lambda: now[0])
        lease.arm()
        now[0] = 10.0
        lease.note_contact(1)  # primary + 1 fresh replica = majority of 3
        assert lease.valid(majority=2)
        now[0] = 15.1  # that contact has now gone stale
        assert not lease.valid(majority=2)

    def test_contacts_must_meet_majority_minus_one(self):
        now = [100.0]
        lease = EpochLease(0, ttl=5.0, clock=lambda: now[0])
        lease.arm()
        now[0] = 200.0
        lease.note_contact(1)
        assert lease.valid(majority=2)
        assert not lease.valid(majority=3), "needs two fresh replicas"
        lease.note_contact(2)
        assert lease.valid(majority=3)


class TestQuorumGate:
    def test_majority_arithmetic(self):
        cluster = quorum_cluster(n_replicas=2)  # members: primary + 2
        assert cluster.gate.members() == 3
        assert cluster.gate.majority() == 2
        cluster.add_replica()
        assert cluster.gate.majority() == 3

    def test_commit_pends_until_majority_ack(self):
        cluster = quorum_cluster(n_replicas=2)
        courier = cluster.courier
        txn, future = start_commit(cluster, "x", 1)
        assert future.pending
        assert cluster.primary.vc.vtnc == 0, "visibility held back too"
        courier.pump(channel="ship.1")
        courier.pump(channel="ack.1")
        assert future.done and not future.failed, "1 replica ack = majority of 3"
        assert cluster.primary.vc.vtnc == txn.tn

    def test_session_effects_deferred_until_ack(self):
        cluster = quorum_cluster(n_replicas=2)
        txn, future = start_commit(cluster, "x", 7)
        reader = cluster.primary.begin(read_only=True)
        assert cluster.primary.read(reader, "x").result() is None, (
            "unacknowledged commit invisible to snapshots"
        )
        cluster.courier.pump()
        reader2 = cluster.primary.begin(read_only=True)
        assert cluster.primary.read(reader2, "x").result() == 7

    def test_group_ack_resolves_a_burst_fifo(self):
        cluster = quorum_cluster(n_replicas=2)
        order = []
        futures = []
        for i in range(3):
            _, future = start_commit(cluster, f"k{i}", i)
            future.add_callback(lambda f, i=i: order.append(i))
            futures.append(future)
        assert all(f.pending for f in futures)
        cluster.courier.pump()  # one drain: every ship + its ack
        assert all(f.done and not f.failed for f in futures)
        assert order == [0, 1, 2], "group ack resolves oldest first"

    def test_immediate_courier_resolves_inside_commit(self):
        cluster = quorum_cluster(n_replicas=2, courier=Courier())
        txn, future = start_commit(cluster, "x", 1)
        assert future.done and not future.failed, (
            "immediate shipping acks before register(): resolve on the spot"
        )

    def test_depose_fails_pending_commits_typed(self):
        cluster = quorum_cluster(n_replicas=2)
        txn, future = start_commit(cluster, "x", 1)
        cluster.fail_over(crash_old=True)
        assert future.failed
        assert isinstance(future.error, QuorumUnavailable)
        assert future.error.reason.value == "quorum_unavailable"


class TestLeaseFencing:
    def sim_cluster(self, n_replicas=2):
        sim = Simulator()
        courier = FaultyCourier(
            schedule=FaultSchedule(seed=0), sim=sim, latency=0.1
        )
        cluster = quorum_cluster(n_replicas=n_replicas, courier=courier)
        return sim, courier, cluster

    def test_lapsed_lease_fences_before_commit_point(self):
        sim, courier, cluster = self.sim_cluster()
        gate = cluster.gate
        gate.lease.ttl = 5.0
        gate.lease.arm()
        # Partition every replica and let the grace window expire.
        for rid in cluster.replicas:
            courier.partition(f"ship.{rid}")
            courier.partition(f"ack.{rid}")
        sim.call_in(6.0, lambda: None)
        sim.run()
        log_before = cluster.log.durable_length()
        txn = cluster.primary.begin()
        cluster.primary.write(txn, "x", 1).result()
        future = cluster.primary.commit(txn)
        assert future.failed
        assert isinstance(future.error, QuorumUnavailable)
        assert future.error.fenced is True
        assert not txn.is_active, "fenced abort is clean and complete"
        assert cluster.log.durable_length() == log_before, (
            "nothing forced: the fence refuses *before* the commit point"
        )
        assert cluster.counters.get("quorum.fenced") == 1

    def test_ack_timeout_is_indeterminate_not_wedged(self):
        sim, courier, cluster = self.sim_cluster()
        gate = cluster.gate
        gate.commit_timeout = 4.0
        for rid in cluster.replicas:
            courier.partition(f"ship.{rid}")
            courier.partition(f"ack.{rid}")
        txn = cluster.primary.begin()
        cluster.primary.write(txn, "x", 9).result()
        future = cluster.primary.commit(txn)
        assert future.pending
        sim.run()  # the commit timeout fires
        assert future.failed
        error = future.error
        assert isinstance(error, QuorumUnavailable)
        assert error.fenced is False
        # the commit tail ran: locks released (a new writer acquires "x"
        # without waiting) and the version installed per the primary's own
        # durable log — the commit *is* on it, just never acknowledged.
        txn2 = cluster.primary.begin()
        write = cluster.primary.write(txn2, "x", 10)
        assert write.done, "the indeterminate commit's lock was released"
        reader = cluster.primary.begin(read_only=True)
        assert cluster.primary.read(reader, "x").result() == 9
        assert cluster.counters.get("quorum.indeterminate") == 1

    def test_heartbeat_contact_renews_lease_without_commits(self):
        sim, courier, cluster = self.sim_cluster()
        gate = cluster.gate
        gate.lease.ttl = 5.0
        gate.lease.arm()

        def beat():
            for rid in cluster.replicas:
                gate.note_contact(rid)

        for t in range(1, 20, 2):
            sim.call_in(float(t), beat)
        sim.call_in(19.5, lambda: None)
        sim.run()
        assert gate.writable(), "an idle primary with heartbeats keeps writing"


class TestQuorumRpoZero:
    def test_acked_commits_survive_failover_at_every_progress_point(self):
        # The module promise in one test: anything acknowledged is on the
        # promoted timeline, anything not acknowledged failed typed.
        cluster = quorum_cluster(n_replicas=2)
        courier = cluster.courier
        acked = []
        _, f1 = start_commit(cluster, "a", 1)
        courier.pump()  # fully acknowledged
        f1.add_callback(lambda f: acked.append(1))
        _, f2 = start_commit(cluster, "b", 2)  # in flight, never acked
        cluster.fail_over(crash_old=True)
        promoted_vtnc = cluster.last_failover["promoted_vtnc"]
        assert acked == [1]
        assert promoted_vtnc >= 1, "the acknowledged commit is covered"
        assert f2.failed and isinstance(f2.error, QuorumUnavailable)
        # The healed cluster still commits.
        _, f3 = start_commit(cluster, "c", 3)
        courier.pump()
        assert f3.done and not f3.failed
