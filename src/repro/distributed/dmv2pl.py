"""Distributed multiversion 2PL with local CTLs — the ref [8] baseline.

The paper's Section 2 criticism of the distributed variant of Chan et al.'s
protocol, reproduced so experiment EXP-J can measure it:

* a read-only transaction "must have a priori knowledge of the set of sites
  where it will perform its reads" — ``begin`` requires the site list and
  rejects reads elsewhere;
* it builds its global view by fetching each declared site's *local*
  completed transaction list and commit counter, one message per site; the
  fetches are not atomic, so a distributed read-write transaction can commit
  *between* them and be visible at the later-fetched site but not the
  earlier one;
* consequently the protocol "does not guarantee global serializability of
  read-only transactions": the global history can contain a read-only
  transaction that observed half of a distributed update — an MVSG cycle
  the oracle detects.

Read-write transactions run distributed strict 2PL with per-site commit
counters and CTL appends under two-phase commit (no transaction-number
agreement — each site numbers the commit locally, which is the root of the
anomaly).  Version numbers are per-site local counters mapped into the
global number space by site for uniqueness.

Everything that is not numbering or visibility — locked read-write
operations, deadlines, abort, the per-site commit leg, crash and WAL-replay
restart — is :mod:`repro.distributed.base`, shared with
:mod:`repro.distributed.database`, so the ``repro.faults`` drills exercise
both protocols through the same code.  What restart means *here*: the
recovered commit counter restarts above every durable local number and the
CTL is rebuilt from durable COMMIT records.  Commit entry is this
protocol's decision point, so a transaction that entered commit before a
crash is not aborted: its parked commit messages apply after recovery.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction
from repro.distributed.base import Distributed2PLDatabase, SiteBase, TwoPLRecord
from repro.distributed.courier import Courier
from repro.distributed.gtn import make_gtn, max_counter, site_of
from repro.errors import ProtocolError, VersionNotFound
from repro.obs.spans import start_span


class _ChanSite(SiteBase):
    """A site numbered by a local commit counter, visible through a local CTL."""

    def __init__(self, site_id: int, waits_for=None):
        super().__init__(site_id, waits_for)
        self.commit_counter = 0
        self.ctl: set[int] = {0}

    def next_commit_number(self) -> int:
        """Local commit number mapped into the global space for uniqueness."""
        self.commit_counter += 1
        return make_gtn(self.commit_counter, self.site_id)

    def _complete(self, txn_id: int, tn: int) -> None:
        self.ctl.add(tn)

    def _restart_numbering(self, committed: list[int]) -> None:
        self.ctl = {0, *committed}
        # Restart the counter above every durable local number so the site
        # never re-issues a number already attached to installed versions.
        self.commit_counter = max_counter(
            tn for tn in committed if site_of(tn) == self.site_id
        )

    def recovery_frontier(self) -> dict[str, int]:
        return {"commit_counter": self.commit_counter}


class _ChanRecord(TwoPLRecord):
    """A read-write transaction's record plus the number each site gave it.

    ``site_numbers`` is outcome data: the fault invariant checker reads it
    after commit, so ``release`` leaves it.
    """

    __slots__ = ("site_numbers",)

    def __init__(self) -> None:
        super().__init__()
        self.site_numbers: dict[int, int] = {}


class _Snapshot:
    """``txn.private`` of a read-only transaction: its per-site view.

    Filled one declared site at a time (start timestamp + CTL copy);
    ``ready`` resolves when the last fetch lands and parks reads until then.
    """

    __slots__ = ("declared", "start_ts", "ctl_copy", "ready")

    def __init__(self, declared: Iterable[int], ready: OpFuture):
        self.declared = set(declared)
        self.start_ts: dict[int, int] = {}
        self.ctl_copy: dict[int, set[int]] = {}
        self.ready: OpFuture | None = ready

    def release(self) -> None:
        self.ctl_copy = {}
        self.ready = None


class DistributedMV2PL(Distributed2PLDatabase):
    """Ref [8]-style distributed MV2PL with per-site CTLs."""

    name = "dmv2pl"
    rw_record = _ChanRecord

    def __init__(self, n_sites: int = 3, courier: Courier | None = None):
        super().__init__(n_sites, courier)
        # Global identities for distributed transactions (pseudo-site 1023)
        # and the map from site-local version numbers to those identities,
        # so the recorded global history references writers consistently.
        self._ident_counter = 0
        self._ident_of_version: dict[int, int] = {}

    def _build_site(self, sid: int) -> _ChanSite:
        return _ChanSite(sid, self._global_waits_for)

    def _version_ident(self, version_tn: int) -> int:
        """Map an installed version number to its writer's global identity."""
        return self._ident_of_version.get(version_tn, version_tn)

    # -- transactions -------------------------------------------------------------

    def begin(
        self,
        read_only: bool = False,
        read_sites: Iterable[int] | None = None,
        deadline: float | None = None,
    ) -> Transaction:
        """Start a transaction.

        Read-only transactions MUST declare ``read_sites`` — the a-priori
        knowledge requirement the paper criticizes.  The snapshot state
        (per-site start timestamp + CTL copy) is fetched one site at a time
        through the courier; reads issued before all fetches arrive are
        parked.

        ``deadline`` (read-write only) is enforced until the transaction
        *enters commit* — commit entry is this protocol's decision point
        (each site numbers and applies independently afterwards).
        """
        if not read_only:
            return self._begin_rw(deadline)
        if read_sites is None:
            raise ProtocolError(
                "distributed MV2PL read-only transactions must declare "
                "their read sites a priori"
            )
        txn = self._begin(read_only=True)
        txn.private = _Snapshot(read_sites, OpFuture(label=("T{} snapshot", txn.txn_id)))
        self._fetch_snapshots(txn, sorted(txn.private.declared))
        return txn

    def _fetch_snapshots(self, txn: Transaction, site_ids: list[int]) -> None:
        """Fetch per-site (start_ts, CTL copy), one message per site.

        The non-atomicity across these messages is the anomaly window.
        """
        pending = list(site_ids)
        snapshot: _Snapshot = txn.private

        def fetch_next() -> None:
            if not pending:
                if snapshot.ready.pending:
                    snapshot.ready.resolve(None)
                return
            sid = pending.pop(0)

            def deliver() -> None:
                if txn.is_finished or sid in snapshot.start_ts:
                    return  # finished meanwhile, or duplicated delivery
                site = self.sites[sid]
                with start_span(
                    self.courier.tracer, "snapshot.fetch", txn=txn.txn_id, site=sid
                ):
                    snapshot.start_ts[sid] = make_gtn(site.commit_counter + 1, sid)
                    snapshot.ctl_copy[sid] = set(site.ctl)
                    self.counters.note_cc_interaction(txn, "ctl-fetch")
                    self.counters.bump("ctl.copied_entries", len(site.ctl))
                fetch_next()

            self._send_for(txn, self.sites[sid], deliver, channel="snapshot")

        fetch_next()

    # -- read-only reads -------------------------------------------------------------

    def _ro_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        site = self.site_of_key(key)
        snapshot: _Snapshot = txn.private
        if site.site_id not in snapshot.declared:
            raise ProtocolError(
                f"site {site.site_id} was not declared by read-only "
                f"transaction {txn.txn_id} (declared: {sorted(snapshot.declared)})"
            )
        result = OpFuture(label=("r{}[{}]@s{}", txn.txn_id, key, site.site_id))

        def ready(_f: OpFuture) -> None:
            def deliver() -> None:
                if not result.pending:  # duplicated delivery
                    return
                start_ts = snapshot.start_ts[site.site_id]
                ctl_copy = snapshot.ctl_copy[site.site_id]
                candidates = [v for v in site.store.object(key).versions() if v.tn < start_ts]
                for version in reversed(candidates):
                    self.counters.bump("ctl.membership_checks")
                    if version.tn in ctl_copy:
                        ident = self._version_ident(version.tn)
                        self._note_read(txn, key, ident)
                        result.resolve(version.value)
                        return
                result.fail(VersionNotFound(key, start_ts))  # pragma: no cover

            self._send_for(txn, site, deliver, channel="read")

        snapshot.ready.add_callback(ready)
        return result

    # -- termination --------------------------------------------------------------------

    def _commit_rw(self, txn: Transaction, participants: list[int], result: OpFuture) -> None:
        # Two-phase commit WITHOUT number agreement: each site assigns its
        # own local commit number — the root of the global-serializability
        # gap.  A protocol-external global identity ties the per-site
        # version numbers together for history recording only.
        self._ident_counter += 1
        txn.tn = make_gtn(self._ident_counter, 1023)
        tracer = self.courier.tracer

        def leg(site: _ChanSite, parent, acked: Callable[[int], None]) -> None:
            sid = site.site_id
            local_tn = site.next_commit_number()
            txn.private.site_numbers[sid] = local_tn
            self._ident_of_version[local_tn] = txn.tn
            items = self._items_at(txn, site)
            # One-phase commit still has a prepare-equivalent point: the
            # forced WAL write before acking is this site's durability
            # promise, so the leg's first half is spanned as the prepare
            # leg; installing and releasing is the commit leg.
            with start_span(tracer, "2pc.prepare", parent=parent, txn=txn.txn_id, site=sid):
                site.log_commit(txn.txn_id, local_tn, items)
            with start_span(tracer, "2pc.commit", parent=parent, txn=txn.txn_id, site=sid):
                site.apply_commit(txn.txn_id, local_tn, items)
                acked(sid)

        commit_span = self._commit_span(txn, result)
        self._broadcast(
            participants,
            commit_span,
            self._commit_legs(txn, participants, result, commit_span, leg),
        )

    def global_version_order(self) -> dict:
        """The protocol's own per-key version order, in global identities.

        Versions of a key are totally ordered by their position in the
        owning site's chain (local commit order); the oracle checks global
        one-copy serializability of the recorded history under exactly this
        order — the order the protocol maintains.
        """
        order: dict = {}
        for site in self.sites.values():
            for key in site.store.keys():
                chain = site.store.object(key)
                order[key] = [self._version_ident(v.tn) for v in chain.versions()]
        return order
