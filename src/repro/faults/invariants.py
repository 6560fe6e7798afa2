"""Paper invariants checked continuously while faults are injected.

A :class:`FaultInvariantChecker` watches one distributed database —
:class:`~repro.distributed.database.DistributedVCDatabase` or
:class:`~repro.distributed.dmv2pl.DistributedMV2PL` — and asserts, during
and after a drill, the properties the paper's correctness argument rests
on:

* **counter/visibility ordering** — each site's visibility counter stays
  strictly below its next assignable local number (the distributed face of
  Figure 1's ``vtnc <= tnc``);
* **VCQueue consistency** — per-site queues stay sorted by number with
  visibility strictly below the head entry (re-asserted externally over
  the whole queue; the module itself checks the head and the entry it
  just placed);
* **visibility monotonicity** — a site's ``vtnc`` never decreases within
  one incarnation (a crash may lawfully reopen visibility at the durable
  frontier, which is why the checker tracks incarnations);
* **no committed-write loss** — after every crash/recovery, each version a
  committed transaction installed is still present, with the committed
  value, in the owning site's store;
* **global one-copy serializability** — the oracle's MVSG check over the
  recorded global history (for DMV2PL under its own version order, and
  only over the read-write subhistory — its read-only anomaly is a paper
  result, not a fault bug).

Violations accumulate as strings; :meth:`assert_ok` raises
:class:`~repro.errors.InvariantViolation` carrying all of them.  Drills
call :meth:`snapshot` between steps (cheap) and :meth:`check_final` once
the run settles (full store/history scan).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.transaction import Transaction
from repro.errors import InvariantViolation
from repro.histories.checker import check_one_copy_serializable
from repro.histories.mvsg import multiversion_serialization_graph


class FaultInvariantChecker:
    """Continuously assert paper invariants over a faulted distributed DB."""

    def __init__(self, db: Any):
        self.db = db
        self.violations: list[str] = []
        #: Per-site (incarnation, vtnc) high-water marks.
        self._visibility_marks: dict[int, tuple[int, int]] = {}
        #: Expected durable state of committed transactions:
        #: txn_id -> list of (site_id, version_tn, key, value).
        self._committed_writes: dict[int, list[tuple[int, int, Hashable, Any]]] = {}

    # -- wiring -------------------------------------------------------------------

    def _is_dvc(self) -> bool:
        return hasattr(next(iter(self.db.sites.values())), "vc")

    def note_commit(self, txn: Transaction) -> None:
        """Record what a just-committed transaction must keep durable."""
        if not txn.write_set or txn.tn is None:
            return
        expected: list[tuple[int, int, Hashable, Any]] = []
        # DMV2PL numbers a commit per site; everyone else has one tn.
        site_numbers = None if self._is_dvc() else txn.private.site_numbers
        for key, value in txn.write_set.items():
            site = self.db.site_of_key(key)
            tn = site_numbers[site.site_id] if site_numbers else txn.tn
            expected.append((site.site_id, tn, key, value))
        self._committed_writes[txn.txn_id] = expected

    # -- incremental checks -----------------------------------------------------------

    def snapshot(self) -> None:
        """Cheap mid-run check: VC ordering, queue shape, monotonicity."""
        if not self._is_dvc():
            return
        for sid, site in self.db.sites.items():
            vc = site.vc
            if vc.vtnc >= vc.next_local_number:
                self.violations.append(
                    f"site {sid}: visibility {vc.vtnc} at or above the next "
                    f"assignable number {vc.next_local_number}"
                )
            nums = [entry.num for entry in vc._order]
            if nums != sorted(nums):
                self.violations.append(f"site {sid}: VCQueue out of order: {nums}")
            if nums and vc.vtnc >= nums[0]:
                self.violations.append(
                    f"site {sid}: visibility {vc.vtnc} covers pending entry {nums[0]}"
                )
            incarnation = getattr(site, "incarnation", 0)
            mark = self._visibility_marks.get(sid)
            if mark is not None and mark[0] == incarnation and vc.vtnc < mark[1]:
                self.violations.append(
                    f"site {sid}: visibility regressed {mark[1]} -> {vc.vtnc} "
                    f"within incarnation {incarnation}"
                )
            self._visibility_marks[sid] = (incarnation, vc.vtnc)

    def check_no_committed_write_loss(self) -> None:
        """Every committed write is still installed with its committed value."""
        for txn_id, expected in self._committed_writes.items():
            for sid, tn, key, value in expected:
                store = self.db.sites[sid].store
                version = None
                if key in set(store.keys()):
                    version = store.object(key).find(tn)
                if version is None:
                    self.violations.append(
                        f"T{txn_id}: committed write {key!r}@{tn} lost at site {sid}"
                    )
                elif version.value != value:
                    self.violations.append(
                        f"T{txn_id}: committed write {key!r}@{tn} at site {sid} "
                        f"holds {version.value!r}, expected {value!r}"
                    )

    def check_serializable(self) -> None:
        """Oracle check of the recorded global history."""
        if self._is_dvc():
            report = check_one_copy_serializable(self.db.history)
            if not report.serializable:
                self.violations.append(
                    f"history not one-copy serializable: cycle {report.cycle}"
                )
        else:
            graph = multiversion_serialization_graph(
                self.db.history, self.db.global_version_order()
            )
            cycle = graph.find_cycle()
            if cycle is not None:
                self.violations.append(
                    f"dmv2pl read-write history not serializable: cycle {list(cycle)}"
                )

    def check_final(self) -> None:
        """Full end-of-drill check (call after the network has drained)."""
        self.snapshot()
        self.check_no_committed_write_loss()
        self.check_serializable()

    # -- verdict ---------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        if self.violations:
            raise InvariantViolation(
                f"{len(self.violations)} fault-drill invariant violation(s): "
                + "; ".join(self.violations)
            )


class ClusterInvariantChecker:
    """Replication-tier invariants over a :class:`~repro.replica.cluster.
    ReplicaCluster` (async or quorum mode), mirroring the distributed
    checker's surface: cheap :meth:`snapshot` calls mid-run, one
    :meth:`check_final` after the network drains, violations as strings.

    What it asserts:

    * **watermark monotonicity** — a replica's ``vtnc`` never decreases,
      and never exceeds the primary's assigned-tn frontier (``tnc``);
    * **primary visibility ordering** — ``vtnc <= tnc`` on the primary
      (Figure 1's ordering, surviving promotions);
    * **prefix property** — every replica's applied log is record-for-
      record a prefix of the current primary's durable log (what makes
      promotion-by-recovery sound);
    * **no duplicate commit numbers** — each ``tn`` appears on at most one
      COMMIT record in the primary's durable log (a fenced deposed primary
      must not have smuggled a second history for a number);
    * **acknowledged durability (RPO)** — every ``tn`` recorded via
      :meth:`note_ack` (a commit whose future *resolved*) appears as a
      COMMIT record in the current primary's durable log, across any
      number of fail-overs.  In quorum mode this is the RPO=0 proof; in
      async mode callers only note acks that survived, so it degenerates
      to a convergence check.
    """

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.violations: list[str] = []
        #: Commit numbers acknowledged to a session (futures that resolved).
        self.acked_tns: set[int] = set()
        self._watermarks: dict[int, int] = {}

    def note_ack(self, tn: int | None) -> None:
        if tn is not None:
            self.acked_tns.add(tn)

    # -- incremental checks -----------------------------------------------------------

    def snapshot(self) -> None:
        """Cheap mid-run check: watermark monotonicity and ordering."""
        cluster = self.cluster
        vc = cluster.primary.vc
        if vc.vtnc > vc.tnc:
            self.violations.append(
                f"primary visibility {vc.vtnc} above assigned frontier {vc.tnc}"
            )
        for rid, replica in cluster.replicas.items():
            prev = self._watermarks.get(rid, 0)
            if replica.vtnc < prev:
                self.violations.append(
                    f"replica {rid} watermark regressed {prev} -> {replica.vtnc}"
                )
            self._watermarks[rid] = replica.vtnc
            if replica.vtnc > vc.tnc:
                self.violations.append(
                    f"replica {rid} watermark {replica.vtnc} above the "
                    f"primary's assigned frontier {vc.tnc}"
                )
        for rid in list(self._watermarks):
            if rid not in cluster.replicas:
                del self._watermarks[rid]  # promoted out of the replica set

    # -- final checks -------------------------------------------------------------------

    def _committed_tns(self) -> list[int]:
        from repro.storage.wal import RecordKind

        return [
            record.tn
            for record in self.cluster.log.durable_records()
            if record.kind is RecordKind.COMMIT and record.tn is not None
        ]

    def check_prefixes(self) -> None:
        primary_records = self.cluster.log.durable_records()
        for rid, replica in self.cluster.replicas.items():
            applied = replica.log.durable_records()
            if applied != primary_records[: len(applied)]:
                self.violations.append(
                    f"replica {rid} applied log is not a prefix of the "
                    f"primary's durable log"
                )

    def check_no_acked_commit_loss(self) -> None:
        committed = set(self._committed_tns())
        lost = sorted(tn for tn in self.acked_tns if tn not in committed)
        if lost:
            self.violations.append(
                f"{len(lost)} acknowledged commit(s) missing from the "
                f"primary's durable log: tns {lost[:8]}"
            )

    def check_unique_commit_numbers(self) -> None:
        tns = self._committed_tns()
        seen: set[int] = set()
        dupes: set[int] = set()
        for tn in tns:
            if tn in seen:
                dupes.add(tn)
            seen.add(tn)
        if dupes:
            self.violations.append(
                f"duplicate commit numbers in the primary log: {sorted(dupes)[:8]}"
            )

    def check_final(self) -> None:
        """Full end-of-drill check (call after shipping has drained)."""
        self.snapshot()
        self.check_prefixes()
        self.check_unique_commit_numbers()
        self.check_no_acked_commit_loss()
