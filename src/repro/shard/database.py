"""Hash-sharded multi-primary database with decentralized visibility.

A :class:`ShardedDatabase` removes the single-VC bottleneck: the keyspace
is consistent-hashed (:mod:`repro.shard.ring`) across N primary *shards*,
each a full :class:`~repro.distributed.database.Site` — own store, own
lock manager, own WAL, and crucially its own
:class:`~repro.distributed.dvc.DistributedVersionControl` (``tnc``/``vtnc``)
advancing independently.  Nothing global remains on the write path:

* **single-shard read-write** transactions (the common case on a
  hash-partitioned workload) commit on a one-message fast path at their
  shard — hold, then the ordinary per-site commit leg — with no
  cross-shard round trips, so read-write throughput scales with the shard count (the
  ``shard`` bench block demonstrates 1→2→4 near-linearity);
* **cross-shard read-write** transactions fall back to the inherited 2PC
  (prepare collects per-shard holds, ``tn = max``), each participant
  installing its versions under the agreed global transaction number and
  appending the commit to its **cross-shard visibility log** (``xlog``)
  under the same WAL force that makes the commit durable;
* **read-only** transactions snapshot at a per-shard **watermark vector**
  chosen at begin: take every shard's current ``vtnc`` and lower
  components (:func:`repro.shard.vector.sweep_consistent_vector`) until no
  cross-shard commit is visible on one shard but missing on another — the
  posterior rule of "Decentralizing MVCC by Leveraging Visibility"
  (PAPERS.md).  Reads then run the ordinary Figure 2 snapshot rule at the
  shard's vector component.  Writers never wait for readers or for other
  shards' watermarks; the consistency argument lives in
  ``docs/sharding.md`` and is machine-checked by the S1 history checker
  and the online witness in ``drill --campaign shard``.

Every WAL's durable frontier is observable, so an optional
:mod:`repro.replica` chain can hang behind every shard
(:meth:`ShardedDatabase.attach_replicas`).  Shard visibility advances in
global-transaction-number jumps (GTN encoding spaces numbers by
``SITE_SPACE``), which the replica watermark's contiguous ``+1`` rule
cannot follow — so the shard appends a CHECKPOINT *visibility marker*
(no versions, ``next_tn = vtnc + 1``) after each advance, which a replica
adopts directly as its watermark floor.

Fault surface: messages travel per-shard channels (``2pc.s3``,
``data.s3``, ``read.s3``...), so a drill can partition exactly one shard;
:meth:`fail_over_shard` promotes a warm standby from the shard's durable
WAL (crash + replay + epoch bump) without stalling the other shards —
their fast paths never reference the failed one.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.cc.deadlock import WaitsForGraph
from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase, Site
from repro.distributed.gtn import counter_of
from repro.errors import ProtocolError
from repro.obs.tracer import Tracer
from repro.replica.node import Replica
from repro.replica.ship import LogShipper
from repro.shard.ring import HashRing
from repro.shard.vector import XlogEntry, sweep_consistent_vector, torn_entries
from repro.storage.wal import RecordKind, checkpoint_record, validate_durable


#: The protocol channels; each shard has its own copy of every one.
CHANNELS = ("2pc", "data", "read")


class _VectorSnapshot:
    """``txn.private`` of a read-only transaction: its watermark vector."""

    __slots__ = ("vector",)

    def __init__(self, vector: dict[int, int]):
        self.vector = vector

    def release(self) -> None:
        """Nothing in flight: the vector is outcome data, and
        :meth:`ShardedDatabase.snapshot_audit` reads it after finish."""


class ShardNode(Site):
    """One primary shard: a Site with a replica chain, an xlog, and an epoch.

    The three additions over a plain site:

    * ``shipper`` streams the WAL to an optional replica chain, subscribed
      to the log's durable frontier;
    * ``xlog`` is the in-memory cross-shard commit log the snapshot-vector
      sweep consults; its durable twin rides CHECKPOINT records in the WAL
      (``value["xlog"]``) and :meth:`recover` rebuilds it from there;
    * ``epoch`` counts fail-overs — stamped on shipped segments so a
      deposed incarnation's in-flight traffic cannot diverge the replicas.
    """

    def __init__(self, site_id: int, waits_for: WaitsForGraph):
        super().__init__(site_id, waits_for)
        #: Cross-shard commits durable here: ``(tn, participant ids)``.
        self.xlog: list[XlogEntry] = []
        #: Fail-over count; shipped segments carry it (see LogShipper).
        self.epoch = 0
        self.shipper: LogShipper | None = None
        #: Replicas chained behind this shard, by replica id.
        self.replicas: dict[int, Replica] = {}
        #: Protocol channel -> this shard's courier channel (``2pc.s3``...).
        self.channels = dict(zip(CHANNELS, ShardedDatabase.shard_channels(site_id)))
        self.vc.subscribe(self._on_visibility)

    def _trace(self, tracer: Tracer) -> None:
        super()._trace(tracer)
        if self.shipper is not None:
            self.shipper.tracer = tracer
        for replica in self.replicas.values():
            replica._trace(tracer)

    def _on_visibility(self, vtnc: int) -> None:
        """Publish a visibility advance to the replica chain.

        Shard transaction numbers are GTNs — spaced by ``SITE_SPACE`` — so
        replicas can never advance their contiguous ``+1`` watermark from
        COMMIT records alone.  The marker closes that gap: a CHECKPOINT
        with no versions and ``next_tn = vtnc + 1``, forced (and therefore
        shipped) immediately.  Log order makes it safe: every commit at or
        below ``vtnc`` was forced earlier in this same log, so a replica
        applying in order has all their versions installed before its
        watermark jumps.
        """
        if self.shipper is None or self.crashed:
            return
        self.wal.append(checkpoint_record(vtnc + 1))
        self.wal.force()

    def _restart_numbering(self, committed: list[int]) -> None:
        super()._restart_numbering(committed)
        self.vc.subscribe(self._on_visibility)  # the rebuilt VC feeds the replicas too

    def recover(self) -> None:
        """WAL replay, plus the shard extra a plain site does not carry.

        The base replay rebuilds store and VC; the shard rebuilds ``xlog``
        from the durable CHECKPOINT records that carry one — the
        crash-survival property the snapshot-vector sweep depends on (a
        commit visible here must have its xlog entry here, or a tear during
        the co-participant's lag would go unseen).
        """
        super().recover()
        self.xlog = []
        for record in validate_durable(self.wal):
            if record.kind is RecordKind.CHECKPOINT and "xlog" in (record.value or {}):
                tn, participants = record.value["xlog"]
                self.xlog.append((tn, tuple(participants)))


class ShardedDatabase(DistributedVCDatabase):
    """Multi-primary scale-out over hash-sharded sites (see module docs)."""

    name = "sharded-mvcc"

    def __init__(
        self,
        n_shards: int = 2,
        courier: Courier | None = None,
        prepare_timeout: float | None = None,
        replicas_per_shard: int = 0,
    ):
        #: Placement is fixed at construction; `_build_site` runs during
        #: super().__init__, so the ring must exist first.
        self.ring = HashRing(n_shards)
        super().__init__(
            n_sites=n_shards,
            courier=courier,
            prepare_timeout=prepare_timeout,
        )
        self.n_shards = n_shards
        self._next_replica_id = 0
        if replicas_per_shard:
            self.attach_replicas(replicas_per_shard)

    # -- construction / placement ---------------------------------------------------

    def _build_site(self, sid: int) -> Site:
        return ShardNode(sid, waits_for=self._global_waits_for)

    def _place(self, key: Hashable) -> ShardNode:
        return self.sites[self.ring.shard_of(key)]  # type: ignore[return-value]

    @staticmethod
    def shard_channels(site_id: int) -> list[str]:
        """Every courier channel addressing shard ``site_id`` (drill unit)."""
        return [f"{name}.s{site_id}" for name in CHANNELS]

    # -- read-only snapshot vectors ---------------------------------------------------

    def begin(
        self,
        read_only: bool = False,
        origin_site: int | None = None,
        fresh: bool = False,
    ) -> Transaction:
        """Start a transaction; read-only sessions get a snapshot *vector*.

        The read-write path is the inherited one.  A read-only begin takes
        every shard's current watermark (one probe per shard — the same
        message cost as the base protocol's ``fresh=True``), sweeps the
        vector down to the newest provably-consistent one, and pins it on
        the transaction (:meth:`snapshot_vector`); reads at shard ``s`` then
        snapshot at component ``v_s``.  ``origin_site``/``fresh`` are accepted for
        interface parity but moot — a vector begin is inherently fresh.
        """
        if not read_only:
            return self._begin_rw()
        txn = self._begin(read_only=True)
        self._prune_xlogs()
        raw = {sid: site.vc.vc_start() for sid, site in sorted(self.sites.items())}
        xlogs = {sid: site.xlog for sid, site in self.sites.items()}
        vector, lowered = sweep_consistent_vector(raw, xlogs)
        txn.private = _VectorSnapshot(vector)
        txn.sn = max(vector.values())
        self.counters.note_vc_interaction(txn, "start")
        self.counters.bump("ro.freshness_probes", len(self.sites))
        # Staleness in committed-transaction units: how many counter ticks
        # the sweep cost against the freshest watermark, worst shard: none
        # when it lowered nothing, the vector then being ``raw`` itself.
        staleness = 0
        if lowered:
            staleness = max(counter_of(raw[sid]) - counter_of(vector[sid]) for sid in raw)
        txn.meta["shard.staleness"] = staleness
        # Base-protocol-compatible bound: held-but-invisible commits queued
        # anywhere at begin time.
        txn.meta["qos.staleness"] = max(
            site.vc.queue_length() for site in self.sites.values()
        )
        if lowered:
            self.counters.bump("shard.vector_lowered")
        tracer = self.courier.tracer
        torn = torn_entries(vector, xlogs)
        if torn:
            self.counters.bump("shard.vector_inconsistent", len(torn))
            if tracer.enabled:
                tracer.emit("shard.vector_inconsistent", txn.txn_id, len(torn))
            raise ProtocolError(
                f"snapshot vector {vector} tears cross-shard commits {torn}"
            )
        if tracer.enabled:
            tracer.emit("shard.snapshot", txn.txn_id, txn.sn, staleness, lowered, len(raw))
        return txn

    def _prune_xlogs(self) -> None:
        """Drop xlog entries no sweep can ever tear on again.

        Safe floor: the *minimum* watermark over all shards.  An entry at
        ``tn <= floor`` cannot be torn by any future vector — raw
        components start at each shard's watermark (``>= floor >= tn``),
        and every sweep lowering lands at ``tn' - 1`` of some unresolved
        entry, where unresolved means some shard's watermark is below
        ``tn'``, hence ``tn' > floor >= tn`` and the lowered component
        stays ``>= tn``.  (Pruning against each entry's own participants
        alone would be unsound: a still-unresolved *older* entry could drag
        a component below a newer pruned one.)  In-memory only — the WAL
        copies stay for crash rebuild, where re-learning a dead entry is
        merely harmless.
        """
        floor = min(site.vc.vtnc for site in self.sites.values())
        for site in self.sites.values():
            if site.xlog:
                site.xlog = [entry for entry in site.xlog if entry[0] > floor]

    def _ro_start_number(self, txn: Transaction, site: Site) -> int:
        sn = txn.private.vector[site.site_id]
        if sn > site.vc.vtnc:
            # A vector component above the shard's live watermark can only
            # follow a crash that rolled back a fast-forwarded (never
            # durable) frontier; at delivery the idle fast-forward
            # (try_advance_to) re-grants it, or the read parks on
            # wait_visible until an advance does.  Counted because the design
            # goal is that vector reads never block.
            self.counters.bump("shard.ro_blocked")
            tracer = self.courier.tracer
            if tracer.enabled:
                tracer.emit("shard.ro_blocked", txn.txn_id, site.site_id, sn, site.vc.vtnc)
        return sn

    def snapshot_vector(self, txn: Transaction) -> dict[int, int] | None:
        """``{shard_id: watermark}`` a read-only ``txn`` snapshots at, swept
        consistent at begin; None for a read-write transaction."""
        return txn.private.vector if txn.is_read_only else None

    def snapshot_audit(self, txn: Transaction) -> list[XlogEntry]:
        """Cross-shard commits torn by ``txn``'s vector (must be empty).

        The drill's per-session assertion surface.  Meaningful at begin
        time — entries may be pruned later, after every shard's watermark
        passes them (at which point no vector taken *now* could tear them,
        but an old vector's audit would be vacuous).
        """
        vector = self.snapshot_vector(txn)
        if vector is None:
            return []
        return torn_entries(
            vector, {sid: site.xlog for sid, site in self.sites.items()}
        )

    # -- commit: fast path + cross-shard 2PC ---------------------------------------------

    def _commit_rw(self, txn: Transaction, participants: list[int], result: OpFuture) -> None:
        if len(participants) > 1:
            self.counters.bump("shard.cross_commits")
            super()._commit_rw(txn, participants, result)
        else:
            self._fast_commit(txn, participants[0], result)

    def _fast_commit(self, txn: Transaction, sid: int, result: OpFuture) -> None:
        """Single-shard commit: one message, no prepare round, no 2PC.

        The shard's hold *is* the decision (``tn = max`` over one
        participant), so holding and the whole commit leg collapse into one
        delivery at the owning shard — the scale-out unit: disjoint-key
        workloads on different shards share nothing.
        Idempotent (a delivery after the hold is a no-op) and crash-safe:
        a shard crash before delivery aborts the transaction via
        ``crash_site`` (it is still pre-decision) and the parked redelivery
        no-ops on the finished transaction; a crash after the hold leaves
        it in doubt, and ``recover_site`` finishes it like any 2PC leg.
        """
        site = self.sites[sid]
        commit_span = self._commit_span(txn, result)

        def leg(site: Site, parent, acked: Callable[[int], None]) -> None:
            # Every write is this shard's: no placement lookups.
            site.commit_leg(txn.txn_id, txn.tn, txn.write_set.items())
            self.counters.bump("shard.fast_commits")
            acked(sid)

        def hold_and_commit() -> None:
            txn.tn = site.vc.hold(txn.txn_id)
            self._commit_legs(txn, [sid], result, commit_span, leg)(sid)

        def deliver() -> None:
            if txn.tn is not None or txn.is_finished:
                return
            if not self.courier.tracer.enabled:
                return hold_and_commit()
            self._spanned(
                "shard.fast_commit", hold_and_commit,
                parent=commit_span.context, txn=txn.txn_id, site=sid,
            )

        self._send_for(txn, site, deliver, channel="2pc")

    def _site_committed(
        self, site: Site, txn: Transaction, tn: int, participants: list[int]
    ) -> None:
        """Append cross-shard commits to the shard's visibility log.

        Runs inside the (synchronous) commit leg, after the COMMIT
        force and before the shard's visibility advances over ``tn`` — so
        by the time any watermark includes a cross-shard transaction, its
        xlog entry exists at that shard.  The entry is forced into the WAL
        too (a CHECKPOINT carrying ``value["xlog"]``), making it exactly
        as crash-durable as the commit it guards.
        """
        if len(participants) <= 1:
            return
        entry: XlogEntry = (tn, tuple(sorted(participants)))
        site.xlog.append(entry)  # type: ignore[attr-defined]
        site.wal.append(checkpoint_record(site.vc.vtnc + 1, xlog=entry, txn_id=txn.txn_id))
        site.wal.force()
        tracer = self.courier.tracer
        if tracer.enabled:
            tracer.emit(
                "shard.commit",
                txn.txn_id, site.site_id, tn,
                True, site.vc.queue_length(),
            )

    # -- per-shard replica chains -----------------------------------------------------

    def attach_replicas(self, per_shard: int) -> None:
        """Hang ``per_shard`` log-shipped replicas behind every shard.

        Each shard gets its own :class:`LogShipper` subscribed to its WAL's
        durable frontier; replica ids are globally unique (the courier's
        ``ship.<rid>``/``ack.<rid>`` channels are flat).  Replicas serve
        per-shard read-only sessions at their local watermark — the
        :mod:`repro.replica` guarantee, unchanged; cross-shard vector reads
        stay on the primaries.
        """
        for sid, site in sorted(self.sites.items()):
            node: ShardNode = site  # type: ignore[assignment]
            if node.shipper is None:
                node.shipper = LogShipper(node.wal, self.courier, epoch=node.epoch)
                node.shipper.tracer = node.tracer
                node.wal.subscribe_force(node.shipper.ship)
            for _ in range(per_shard):
                self._next_replica_id += 1
                replica = Replica(self._next_replica_id)
                replica._trace(node.tracer)
                replica.epoch = node.epoch
                node.replicas[replica.replica_id] = replica
                node.shipper.add_replica(replica)
            # Let fresh replicas adopt the shard's current visibility
            # without waiting for the next commit's marker.
            node._on_visibility(node.vc.vtnc)

    # -- fail-over ---------------------------------------------------------------------

    def fail_over_shard(self, site_id: int) -> int:
        """Promote a warm standby for one shard from its durable WAL.

        Modeled as fail-stop plus immediate WAL-replay recovery under a
        bumped epoch: acknowledged commits survive (they were forced), the
        volatile tail is lost (pre-decision transactions there abort with
        typed retryable errors), and the other shards never participate —
        their fast paths reference nothing of the failed shard, which is
        the scale-out claim the drill certifies mid-batch.  Returns the
        count of volatile WAL records lost.
        """
        site = self.sites[site_id]
        lost = self.crash_site(site_id) if not site.crashed else 0
        self.recover_site(site_id)
        node: ShardNode = site  # type: ignore[assignment]
        node.epoch += 1
        if node.shipper is not None:
            node.shipper.epoch = node.epoch
            for replica in node.replicas.values():
                replica.adopt_epoch(node.epoch)
            node.shipper.catch_up_all()
            node._on_visibility(node.vc.vtnc)
        self.counters.bump("shard.failovers")
        tracer = self.courier.tracer
        if tracer.enabled:
            tracer.emit("shard.failover", site_id, node.epoch, lost, node.vc.vtnc)
        return lost

    # -- inspection --------------------------------------------------------------------

    def watermarks(self) -> dict[int, int]:
        """Every shard's current visibility watermark (a raw vector)."""
        return {sid: site.vc.vtnc for sid, site in sorted(self.sites.items())}

    def xlog_sizes(self) -> dict[int, int]:
        return {
            sid: len(site.xlog)  # type: ignore[attr-defined]
            for sid, site in sorted(self.sites.items())
        }
