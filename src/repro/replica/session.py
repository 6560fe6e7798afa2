"""Replica-aware session routing: RW to the primary, RO to the replicas.

:class:`ReplicatedDatabase` is a :class:`~repro.core.session.Database` whose
scheduler is always the cluster's *current* primary (it survives a
fail-over), and whose :meth:`snapshot` routes read-only transactions to a
replica picked round-robin.  The paper's class split does the heavy
lifting: a read-only transaction needs only ``sn(T)`` and versions ``<=
sn(T)``, both of which the replica has locally, so the RO session surface
(:class:`~repro.core.session.TransactionContext`) works unchanged against a
:class:`~repro.replica.node.Replica` — no locks, no admission, no primary
round-trip.

**Staleness policies.**  When a caller passes ``max_staleness`` (in
transactions) and the picked replica lags beyond it, the session degrades
instead of blocking — a lagging replica must never turn the non-blocking
fast path into a wait:

* ``"redirect"`` (default) — serve the snapshot from the primary, which is
  always fresh; counted as ``replica.ro.redirect``;
* ``"stale"`` — serve from the replica anyway, marking the transaction
  (``txn.meta["replica.stale"]``); counted as ``replica.ro.stale``;
* ``"reject"`` — raise the retryable
  :class:`~repro.errors.ReplicaLagging`; counted as ``replica.ro.reject``.
"""

from __future__ import annotations

from repro.core.session import Database, TransactionContext
from repro.errors import ReplicaLagging
from repro.replica.cluster import ReplicaCluster

STALE_POLICIES = ("redirect", "stale", "reject")


class ReplicatedDatabase(Database):
    """Session facade over a :class:`~repro.replica.cluster.ReplicaCluster`.

    ``transaction()`` and ``run()`` inherit the primary-side behaviour —
    admission control, deadlines, classified retries — from
    :class:`Database`; only read-only routing is new.
    """

    def __init__(
        self,
        cluster: ReplicaCluster,
        *,
        max_staleness: int | None = None,
        stale_policy: str = "redirect",
        **qos_kwargs,
    ):
        if stale_policy not in STALE_POLICIES:
            raise ValueError(
                f"stale_policy {stale_policy!r} not in {STALE_POLICIES}"
            )
        self.cluster = cluster
        self.max_staleness = max_staleness
        self.stale_policy = stale_policy
        super().__init__(scheduler=self.cluster.primary, **qos_kwargs)

    # The session must always address the cluster's *current* primary —
    # after a fail_over the old scheduler object is dead.  Database's
    # constructor assignment is absorbed by the no-op setter: the binding
    # is the cluster's, not this object's.
    @property
    def scheduler(self):
        return self.cluster.primary

    @scheduler.setter
    def scheduler(self, value) -> None:
        pass

    # -- read-only routing --------------------------------------------------------

    def snapshot(self) -> TransactionContext:
        """A read-only transaction, served from a replica when one exists.

        A replica more than the session's ``max_staleness`` transactions
        behind the primary's watermark is handled per its ``stale_policy``.
        With no replicas (or after the last one was promoted) the snapshot
        falls back to the primary.
        """
        bound, policy = self.max_staleness, self.stale_policy
        counters = self.cluster.counters
        replica = self.cluster.pick_replica()
        if replica is None:
            counters.bump("replica.ro.primary_fallback")
            return super().snapshot()
        lag = self.cluster.lag_txns(replica)
        if bound is not None and lag > bound:
            if policy == "redirect":
                counters.bump("replica.ro.redirect")
                if self.cluster.tracer.enabled:
                    self.cluster.tracer.emit(
                        "qos.replica_redirect",
                        replica.replica_id, lag, bound,
                    )
                return super().snapshot()
            if policy == "reject":
                counters.bump("replica.ro.reject")
                if self.cluster.tracer.enabled:
                    self.cluster.tracer.emit(
                        "qos.replica_reject",
                        replica.replica_id, lag, bound,
                    )
                raise ReplicaLagging(replica.replica_id, lag, bound)
            counters.bump("replica.ro.stale")
            txn = replica.begin(read_only=True)
            txn.meta["replica.stale"] = True
            txn.meta["replica.lag"] = lag
            if self.cluster.tracer.enabled:
                self.cluster.tracer.emit(
                    "qos.replica_stale_read",
                    replica.replica_id, lag, bound,
                )
            return TransactionContext(replica, txn)
        counters.bump("replica.ro.served")
        return TransactionContext(replica, replica.begin(read_only=True))
