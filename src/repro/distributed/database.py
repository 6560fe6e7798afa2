"""Distributed version control with two-phase locking — paper Section 6 / ref [3].

A :class:`DistributedVCDatabase` is a set of sites, each owning a partition
of the keys, a strict lock manager, a multiversion store, a
:class:`~repro.distributed.dvc.DistributedVersionControl` module, and a
per-site :class:`~repro.storage.wal.WriteAheadLog`.  One shared history
recorder collects the *global* multiversion history so the oracle can check
global one-copy serializability.

**Read-write transactions** run distributed strict 2PL: operations acquire
locks at the owning site; commit runs two-phase commit in which the prepare
round doubles as transaction-number agreement:

1. coordinator sends PREPARE to every participant; each responds with a
   *held* local number (``DistributedVersionControl.hold``);
2. the coordinator decides ``tn = max(holds)`` — admissible at every site —
   and sends COMMIT(tn);
3. each participant runs the per-site commit leg
   (:meth:`repro.distributed.base.SiteBase.commit_leg`) under ``tn``:
   force a WAL record of its writes (the site-local durability point),
   adopt the number, install the staged writes as versions numbered
   ``tn``, release its locks, and complete its VC entry.

**Read-only transactions** obtain a single global start number — their
origin site's ``vtnc`` — and read at any site, *waiting on version-control
state only*: a read at site ``s`` proceeds once ``vtnc_s >= sn``, which an
idle site grants immediately by fast-forwarding.  No a-priori knowledge of
the read sites is needed (contrast: ref [8]'s distributed MV2PL,
reproduced in :mod:`repro.distributed.dmv2pl`), no locks are taken, and
global serializability at the start number is guaranteed — verified by the
oracle in tests and experiment EXP-J.

**Fault tolerance** (the ``repro.faults`` drills exercise all of it) is
inherited from :mod:`repro.distributed.base` — idempotent handlers, the
forced-before-ack commit leg, :meth:`crash_site` / :meth:`recover_site` /
:meth:`crash_restart_site` — plus two things only this protocol has:

* a configurable ``prepare_timeout`` lets the coordinator abort a 2PC that
  cannot gather its holds (site slow, channel partitioned) instead of
  blocking forever — safe because the timeout only fires before the
  decision point;
* a crash also loses the site's VC queue, so recovery resynchronizes the
  counter above every number known anywhere and applies decided-but-
  unapplied commits before reopening, so visibility cannot leap over them.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.distributed.base import Distributed2PLDatabase, SiteBase
from repro.distributed.courier import Courier
from repro.distributed.dvc import DistributedVersionControl
from repro.errors import AbortReason, SiteUnavailable, VersionNotFound
from repro.obs.spans import start_span
from repro.qos.breaker import BreakerBoard


class Site(SiteBase):
    """A site numbered by a :class:`DistributedVersionControl` module."""

    def __init__(self, site_id: int, waits_for=None):
        super().__init__(site_id, waits_for)
        self.vc = DistributedVersionControl(site_id)
        #: Read-only waits parked on this site's visibility: (sn, future).
        self._visibility_waiters: list[tuple[int, OpFuture]] = []
        self.vc.subscribe(self._on_advance)

    # -- numbering hooks of the commit leg ----------------------------------------

    def _adopt(self, txn_id: int, tn: int) -> None:
        if self.vc.is_registered(txn_id):
            self.vc.adopt(txn_id, tn)
        else:
            # The site crashed after preparing and lost its hold; numbering
            # must still stay above the decided number.
            self.vc.observe(tn)

    def _complete(self, txn_id: int, tn: int) -> None:
        if self.vc.is_registered(txn_id):
            self.vc.complete(txn_id)

    def abort_local(self, txn_id: int) -> None:
        if self.vc.is_registered(txn_id):
            self.vc.discard(txn_id)
            # A discard can empty the queue without advancing vtnc (no
            # observer fires); parked visibility waits must then retry the
            # idle fast-forward themselves.
            self.reevaluate_waiters()
        super().abort_local(txn_id)

    def _restart_numbering(self, committed: list[int]) -> None:
        self.vc = DistributedVersionControl(self.site_id)
        self.vc.subscribe(self._on_advance)
        for tn in committed:
            self.vc.observe(tn)

    def recovery_frontier(self) -> dict[str, int]:
        return {"vtnc": self.vc.vtnc}

    # -- visibility waits ---------------------------------------------------------

    def wait_visible(self, sn: int) -> OpFuture:
        """Future resolving once this site's visibility covers ``sn``."""
        future = OpFuture(label=("site{} vtnc >= {}", self.site_id, sn))
        if self.vc.try_advance_to(sn):
            future.resolve(None)
            return future
        self._visibility_waiters.append((sn, future))
        return future

    def _on_advance(self, vtnc: int) -> None:
        if not self._visibility_waiters:
            return
        ready = [(sn, f) for sn, f in self._visibility_waiters if vtnc >= sn]
        if ready:
            self._visibility_waiters = [
                (sn, f) for sn, f in self._visibility_waiters if vtnc < sn
            ]
            for _, future in ready:
                future.resolve(None)
        if self._visibility_waiters and self.vc.queue_length() == 0:
            # The advance drained the queue but stopped at this site's own
            # idle frontier, below a waiter's start number drawn from a
            # busier site.  An idle site may fast-forward (try_advance_to),
            # and nothing else will ever retry it for a parked waiter.
            self.vc.try_advance_to(max(sn for sn, _ in self._visibility_waiters))

    def reevaluate_waiters(self) -> None:
        """Re-check parked visibility waits against a recovered VC module."""
        if not self._visibility_waiters:
            return
        self._on_advance(self.vc.vtnc)
        if self._visibility_waiters:
            # An idle recovered site may fast-forward; a site with holds
            # correctly refuses until those commits arrive.
            self.vc.try_advance_to(max(sn for sn, _ in self._visibility_waiters))


class DistributedVCDatabase(Distributed2PLDatabase):
    """Multi-site database running distributed VC + 2PL."""

    name = "dvc-2pl"

    def __init__(
        self,
        n_sites: int = 3,
        courier: Courier | None = None,
        prepare_timeout: float | None = None,
        breakers: BreakerBoard | None = None,
    ):
        super().__init__(n_sites, courier)
        #: Coordinator-side timeout for the 2PC prepare round; None = wait
        #: forever.  Only effective when the courier has a clock (sim mode).
        self.prepare_timeout = prepare_timeout
        self.breakers = breakers
        if breakers is not None and self.courier.sim is not None:
            sim = self.courier.sim
            breakers.bind_clock(lambda: sim.now)

    def _build_site(self, sid: int) -> Site:
        """Site constructor hook; subclasses substitute richer node types
        (``repro.shard`` builds :class:`~repro.shard.database.ShardNode`)."""
        return Site(sid, waits_for=self._global_waits_for)

    # -- transactions -----------------------------------------------------------------

    def begin(
        self,
        read_only: bool = False,
        origin_site: int | None = None,
        fresh: bool = False,
        deadline: float | None = None,
    ) -> Transaction:
        """Start a transaction.

        A read-only transaction draws its single global start number from
        its origin site's ``vtnc``.  Counters advance independently per
        site, so a reader beginning at a quiet site may miss recent commits
        elsewhere — the distributed face of the paper's Section 6 delayed
        visibility.  ``fresh=True`` applies the paper's remedy across sites:
        take the maximum ``vtnc`` over all sites (one round of messages,
        counted), guaranteeing the snapshot covers everything completed
        anywhere at begin time.  Any start number is equally consistent —
        freshness only trades messages and potential waiting for currency.

        ``deadline`` (read-write only) is enforced up to the 2PC decision
        point; see :meth:`~repro.distributed.base.Distributed2PLDatabase.
        _begin_rw`.
        """
        if not read_only:
            return self._begin_rw(deadline)
        txn = self._begin(read_only=True)
        origin = self.sites[origin_site] if origin_site else next(iter(self.sites.values()))
        if fresh:
            txn.sn = max(site.vc.vc_start() for site in self.sites.values())
            self.counters.bump("ro.freshness_probes", len(self.sites))
        else:
            txn.sn = origin.vc.vc_start()
        self.counters.note_vc_interaction(txn, "start")
        # Reported staleness bound: held-but-invisible commits queued at
        # the origin site when the snapshot was taken.
        txn.meta["qos.staleness"] = origin.vc.queue_length()
        return txn

    # -- read-only path ------------------------------------------------------------------

    def _ro_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        site = self.site_of_key(key)
        result = OpFuture(label=("r{}[{}]@s{}", txn.txn_id, key, site.site_id))
        if self.breakers is not None and (
            site.crashed or not self.breakers.allow(site.site_id)
        ):
            # Fail fast with a typed, retryable error rather than parking a
            # snapshot read on a dead site.  The transaction itself is NOT
            # aborted — the read-only guarantee: the client may re-issue
            # the read (or read elsewhere) at the same snapshot.
            if site.crashed:
                self.breakers.record_failure(site.site_id)
            self.counters.bump("qos.breaker.fastfail")
            result.fail(SiteUnavailable(site.site_id))
            return result
        sn = self._ro_start_number(txn, site)
        started = False

        def deliver() -> None:
            nonlocal started
            if started:  # duplicated delivery
                return
            started = True
            visible = site.wait_visible(sn)

            def ready(_f: OpFuture) -> None:
                if not result.pending:
                    return
                try:
                    version = site.store.read_snapshot(key, sn)
                except VersionNotFound as exc:
                    result.fail(exc)
                    return
                self._note_read(txn, key, version.tn)
                self._breaker_success(site.site_id)
                result.resolve(version.value)

            visible.add_callback(ready)

        self._send_for(txn, site, deliver, channel="read")
        return result

    def _ro_start_number(self, txn: Transaction, site: Site) -> int:
        """The start number a read-only read at ``site`` waits for and reads at.

        The base protocol snapshots at one global number (``txn.sn``);
        ``repro.shard`` overrides this with the transaction's per-shard
        watermark-vector component.
        """
        assert txn.sn is not None
        return int(txn.sn)

    # -- commit: two-phase, the prepare round agreeing on the number ------------------

    def _commit_rw(self, txn: Transaction, participants: list[int], result: OpFuture) -> None:
        holds: dict[int, int] = {}
        remaining = set(participants)
        tracer = self.courier.tracer
        commit_span = self._commit_span(txn, result)

        def prepare_at(sid: int) -> None:
            if txn.is_finished or sid not in remaining:
                return  # aborted meanwhile, or duplicated delivery
            site = self.sites[sid]
            with start_span(tracer, "2pc.prepare", txn=txn.txn_id, site=sid):
                if not site.vc.is_registered(txn.txn_id):
                    holds[sid] = site.vc.hold(txn.txn_id)
            remaining.discard(sid)
            if not remaining:
                decide()

        def decide() -> None:
            tn = max(holds.values())
            txn.tn = tn

            def leg(site: Site, parent, acked: Callable[[int], None]) -> None:
                sid = site.site_id
                with start_span(tracer, "2pc.commit", parent=parent, txn=txn.txn_id, site=sid):
                    site.commit_leg(
                        txn.txn_id,
                        tn,
                        self._items_at(txn, site),
                        lambda: self._site_committed(site, txn, tn, participants),
                    )
                    acked(sid)

            self._broadcast(
                participants,
                commit_span,
                self._commit_legs(txn, participants, result, commit_span, leg),
            )

        self._broadcast(participants, commit_span, prepare_at)

        # The effective prepare timeout is tightened by the transaction's
        # deadline: there is no point waiting for holds past the instant the
        # deadline timer would abort the 2PC anyway.
        timeout = self.prepare_timeout
        if txn.deadline is not None:
            budget = max(txn.deadline - self._now(), 0.0)
            timeout = budget if timeout is None else min(timeout, budget)
        if timeout is not None:

            def on_timeout() -> None:
                if txn.is_active and txn.tn is None:
                    # Still pre-decision: abort is safe (no site installed
                    # anything; holds are discarded by the abort path).
                    self.counters.bump("2pc.prepare_timeouts")
                    for sid in sorted(remaining):
                        # The sites whose holds never arrived are the ones
                        # the breaker should learn about.
                        self._breaker_failure(sid)
                    self._fault_abort(
                        txn,
                        AbortReason.PREPARE_TIMEOUT,
                        detail=f"2PC prepare timed out after {timeout}",
                    )

            self.courier.call_later(timeout, on_timeout)

    def _site_committed(
        self, site: Site, txn: Transaction, tn: int, participants: list[int]
    ) -> None:
        """Hook: ``txn`` just became durable at ``site`` under ``tn``.

        The commit leg's ``on_durable`` stage: runs once per (transaction,
        site) — after the WAL force, before version install and visibility
        completion.  The base protocol needs nothing here; ``repro.shard``
        appends cross-shard commits to the site's visibility log at exactly
        this point.
        """

    # -- crash / recovery -------------------------------------------------------------

    def _resync_numbering(self, site: Site, in_doubt: list[Transaction]) -> None:
        """Keep a restarted site's counter and visibility lawful.

        The VC queue died with the site.  Resynchronize the counter above
        every transaction number known anywhere (stores, in-flight
        decisions) so the restarted site can never re-issue a number
        attached to existing versions, then re-advance visibility to the
        durable committed frontier — which the in-doubt commits recovery
        just applied are part of.
        """
        for other in self.sites.values():
            for key in other.store.keys():
                for version in other.store.object(key).versions():
                    if version.tn:
                        site.vc.observe(version.tn)
        for txn in self._active.values():
            if txn.tn is not None:
                site.vc.observe(txn.tn)
        max_committed = max(
            [txn.tn for txn in in_doubt]
            + [v.tn for key in site.store.keys() for v in site.store.object(key).versions()],
            default=0,
        )
        if max_committed:
            site.vc.try_advance_to(max_committed)

    def recover_site(self, site_id: int) -> None:
        super().recover_site(site_id)
        self.sites[site_id].reevaluate_waiters()

    # -- inspection -----------------------------------------------------------------------

    def total_messages(self) -> int:
        return self.courier.delivered
