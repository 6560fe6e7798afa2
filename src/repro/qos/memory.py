"""Memory-pressure robustness: watermarks, lease revocation, and the campaign.

Bounded garbage collection (:mod:`repro.storage.gc`) retains, per chain,
only the versions some live snapshot lease actually reads.  That bounds
the footprint in the number of *live leases* — but a reader population
that keeps pinning old snapshots can still hold more memory than the
deployment has.  This module closes the loop:

* :class:`MemoryPressureController` watches the retained-version footprint
  (``MVStore.chain_stats``) against **low/high watermarks**.  Every check
  it first expires TTL-overdue leases, then sweeps; if the footprint still
  exceeds the high watermark it **revokes the oldest leases** one at a
  time — each revocation unpins versions and the next sweep reclaims them
  — until the footprint is back under the watermark or no leases remain.
  While pressured it can optionally tighten read-write admission (halving
  :class:`~repro.qos.admission.AdmissionController` capacity) so writers
  stop producing versions faster than the collector can retire them; the
  original capacity is restored once the footprint falls below the *low*
  watermark (the hysteresis gap prevents flapping).
* A revoked session is never handed a wrong read: its next read raises
  the typed, retryable :class:`~repro.errors.SnapshotTooOld` *before* the
  store is touched (see ``VersionControlledScheduler._read_only_read``),
  and everything it read before revocation came from retained versions.
  Degrade, don't die — and never lie.
* :func:`run_memory_campaign` is the seeded proof
  (``python -m repro drill --campaign memory``): mixed OLTP writers,
  short snapshot readers, renewing long scanners, and a zombie session
  that sleeps through its TTL, all on one virtual clock.  It asserts the
  fault invariant (no session ever observes a state implying a reclaimed
  version), a peak-footprint bound independent of run length, retry-to-
  completion for every revoked session, deterministic revocations
  (byte-identical fingerprint on replay), and the ``memory`` SLO profile.

Every decision is visible: ``snapshot.revoked`` and ``qos.memory_pressure``
trace events ride the same pipeline as everything else in :mod:`repro.obs`.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import SnapshotTooOld, TransactionAborted
from repro.faults.campaign import (
    Campaign,
    CampaignCLI,
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    backoff_loop,
    rw_attempt,
)
from repro.obs.tracer import NULL_TRACER
from repro.qos.admission import AdmissionController
from repro.sim.engine import closed_loop

#: The campaign's client population and keyspace.
WRITERS = 4
READERS = 3
LONG_SCANS = 2
N_KEYS = 12
#: Lease TTL, and the virtual time between two pressure checks.
TTL = 40.0
CHECK_PERIOD = 5.0
#: Retained-version watermarks the controller degrades between.
LOW_WATERMARK = 24
HIGH_WATERMARK = 32
#: Peak-footprint bound, twice the high watermark.  The footprint may
#: legitimately overshoot the watermark by the versions produced between
#: two controller checks; what matters is that the bound is a *constant*,
#: independent of run length.
LIVE_BOUND = 2 * HIGH_WATERMARK
#: Ceiling on ``witness["peak_tracked"]``.  Sealing keeps the certifier's
#: footprint at the keyspace frontier plus the live-client window plus the
#: versions a lease-pinned long scan holds readable (its lifetime is
#: TTL-bounded, so this is a constant too; empirically the asymptote is
#: ~175, identical at duration 400 and 800).
WITNESS_BOUND = 4 * LIVE_BOUND + 8 * (N_KEYS + WRITERS + READERS + LONG_SCANS)

#: Multiplier applied to admission capacity on entering pressure (floored
#: at one token).
TIGHTEN_FACTOR = 0.5


class MemoryPressureController:
    """Watermark-driven degradation: expire, sweep, revoke, tighten.

    Args:
        store: the :class:`~repro.storage.mvstore.MVStore` being bounded.
        gc: the :class:`~repro.storage.gc.GarbageCollector` to drive.
        registry: the :class:`~repro.storage.gc.ReadOnlyRegistry` lease
            table (normally ``gc.registry``).
        low_watermark / high_watermark: retained-version thresholds.
            Above high: revoke oldest leases until back under.  Below low:
            leave the pressured state and restore admission capacity.
        admission: optional :class:`~repro.qos.admission.AdmissionController`
            whose capacity is tightened (by ``TIGHTEN_FACTOR``) while
            pressured.
        max_revocations_per_check: safety valve bounding how many leases
            one check may revoke.
    """

    def __init__(
        self,
        store: Any,
        gc: Any,
        registry: Any,
        *,
        low_watermark: int,
        high_watermark: int,
        admission: AdmissionController | None = None,
        max_revocations_per_check: int = 8,
    ):
        if not 0 < low_watermark <= high_watermark:
            raise ValueError("need 0 < low_watermark <= high_watermark")
        self.store = store
        self.gc = gc
        self.registry = registry
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.admission = admission
        self.max_revocations_per_check = max_revocations_per_check
        #: "normal" or "pressured" (admission tightened while pressured).
        self.state = "normal"
        self.checks = 0
        self.revocations = 0
        #: Highest post-sweep retained-version footprint ever observed.
        self.peak_live = 0
        self.tracer = NULL_TRACER
        self._normal_capacity: int | None = None

    def check(self, now: float) -> int:
        """One watchdog pass at virtual time ``now``; returns the footprint.

        Order matters: TTL expiry first (free reclamation — those sessions
        already walked away), then a sweep, and only if the footprint is
        *still* above the high watermark does revocation start, oldest
        lease first, re-sweeping after each one.
        """
        self.checks += 1
        for lease in self.registry.expire_due(now):
            self._note_revoked(lease)
        self.gc.collect()
        live, _ = self.store.chain_stats()
        if live > self.peak_live:
            self.peak_live = live
        if live > self.high_watermark:
            self._enter_pressure(live)
            revoked = 0
            while (
                live > self.high_watermark
                and revoked < self.max_revocations_per_check
            ):
                victims = self.registry.revoke_oldest(1)
                if not victims:
                    break  # nothing left to revoke: writers must drain
                self._note_revoked(victims[0])
                revoked += 1
                self.gc.collect()
                live, _ = self.store.chain_stats()
        if self.state == "pressured" and live <= self.low_watermark:
            self._exit_pressure(live)
        return live

    # -- internals -----------------------------------------------------------------

    def _note_revoked(self, lease: Any) -> None:
        self.revocations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "snapshot.revoked",
                lease.txn_id,
                lease.sn,
                lease.revoke_cause,
                lease.renewals,
            )

    def _enter_pressure(self, live: int) -> None:
        if self.state == "pressured":
            return
        self.state = "pressured"
        if self.admission is not None:
            self._normal_capacity = self.admission.capacity
            self.admission.capacity = max(
                1, int(self._normal_capacity * TIGHTEN_FACTOR)
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "qos.memory_pressure",
                "pressured",
                live,
                high_watermark=self.high_watermark,
            )

    def _exit_pressure(self, live: int) -> None:
        self.state = "normal"
        if self.admission is not None and self._normal_capacity is not None:
            self.admission.capacity = self._normal_capacity
            self._normal_capacity = None
        if self.tracer.enabled:
            self.tracer.emit(
                "qos.memory_pressure",
                "normal",
                live,
                low_watermark=self.low_watermark,
            )


# -- the campaign -------------------------------------------------------------------


@dataclass
class MemoryStats(CampaignPhase):
    """What one campaign run observed."""

    UNPINNED = CampaignPhase.UNPINNED + ("invariant_violations",)

    rw_commits: int = 0
    rw_shed: int = 0
    rw_aborts: int = 0
    ro_commits: int = 0
    scan_commits: int = 0
    zombie_commits: int = 0
    #: SnapshotTooOld aborts observed by clients, keyed by revocation cause.
    too_old_by_cause: dict[str, int] = field(default_factory=dict)
    #: Ordered (sn, cause) of every revocation — the determinism fingerprint
    #: core: two same-seed runs must revoke the same leases in the same order.
    revocations: list[tuple[int, str]] = field(default_factory=list)
    peak_live: int = 0
    final_live: int = 0
    gc_passes: int = 0
    gc_discarded: int = 0
    gc_interior: int = 0
    gc_scanned: int = 0
    pressure_checks: int = 0
    qos_events: dict[str, int] = field(default_factory=dict)
    invariant_violations: list[str] = field(default_factory=list)

    @property
    def too_old_total(self) -> int:
        return sum(self.too_old_by_cause.values())


@dataclass(kw_only=True)
class MemoryReport(CampaignReport):
    """Outcome of one seeded memory campaign."""

    PHASE = "stats"
    DERIVED = ("revocations", "revoked_by_cause", "gc_scan_per_reclaimed")
    NONDETERMINISTIC = "memory campaign not deterministic under fixed seed"

    writers: int = WRITERS
    readers: int = READERS
    long_scans: int = LONG_SCANS
    ttl: float = TTL
    check_period: float = CHECK_PERIOD
    low_watermark: int = LOW_WATERMARK
    high_watermark: int = HIGH_WATERMARK
    live_bound: int = LIVE_BOUND
    stats: MemoryStats
    witness_bound: int = WITNESS_BOUND

    @property
    def revocations(self) -> int:
        return len(self.stats.revocations)

    @property
    def revoked_by_cause(self) -> dict[str, int]:
        return dict(sorted(Counter(c for _, c in self.stats.revocations).items()))

    @property
    def gc_scan_per_reclaimed(self) -> float | None:
        if not self.stats.gc_discarded:
            return None
        return self.stats.gc_scanned / self.stats.gc_discarded

    def row(self) -> str:
        stats = self.stats
        return (
            f"peak={stats.peak_live:<4d} (bound {self.live_bound}) "
            f"revoked={len(stats.revocations):<3d} "
            f"too_old={stats.too_old_total:<3d} "
            f"scans={stats.scan_commits:<3d} "
            f"ro={stats.ro_commits:<4d} rw={stats.rw_commits:<4d} "
            f"shed={stats.rw_shed}"
            + self.slo_tag()
            + f"{self.witness_tag()} (peak {self.witness['peak_tracked']})"
        )


def _run_phase(
    seed: int,
    *,
    duration: float,
    engine: Any | None = None,
    witness: Any | None = None,
) -> MemoryStats:
    """One closed-loop HTAP run on the virtual clock.

    The **shadow history** is the fault-invariant oracle: every committed
    install is recorded as ``(key, tn)`` *by the committing writer*.  A
    snapshot read at ``sn`` must return the largest shadow ``tn <= sn``
    recorded before the reader began; returning an *older* version means
    the needed one was reclaimed under the reader's feet — the one failure
    bounded GC must never produce.  (The shadow may momentarily lag the
    store — a writer records only after its commit event resumes — so only
    ``actual < expected`` is a violation, never ``actual > expected``.)
    """
    from repro.protocols.vc_two_phase_locking import VC2PLScheduler

    run = PhaseRun(seed, engine=engine, witness=witness, ring=65_536)
    sim, streams = run.sim, run.streams
    scheduler = VC2PLScheduler()
    scheduler.admission = AdmissionController(capacity=max(2, WRITERS))
    scheduler.ro_registry.ttl = TTL
    scheduler.ro_registry.clock = lambda: sim.now
    run.pipeline.attach(scheduler)
    controller = MemoryPressureController(
        scheduler.store,
        scheduler.gc,
        scheduler.ro_registry,
        low_watermark=LOW_WATERMARK,
        high_watermark=HIGH_WATERMARK,
        admission=scheduler.admission,
    )
    controller.tracer = run.tracer
    stats = MemoryStats()
    keys = [f"k{i}" for i in range(N_KEYS)]
    # Every chain springs into existence with initial version 0.
    shadow: dict[str, list[int]] = {key: [0] for key in keys}

    def check_read(txn, key, who: str) -> None:
        actual = txn.read_set[key]
        history = shadow[key]
        idx = bisect_right(history, txn.sn) - 1
        expected = history[idx] if idx >= 0 else 0
        if actual < expected:
            stats.invariant_violations.append(
                f"{who} T{txn.txn_id} sn={txn.sn} read {key}@{actual} but "
                f"committed version {expected} <= sn exists: reclaimed under "
                "a live lease"
            )

    def note_too_old(exc: SnapshotTooOld) -> None:
        cause = exc.cause or "revoked"
        stats.too_old_by_cause[cause] = stats.too_old_by_cause.get(cause, 0) + 1

    def writer(i: int):
        rng = streams.stream(f"writer-{i}")

        def attempt(txn):
            error = yield from rw_attempt(
                scheduler, txn, rng.sample(keys, 2),
                service=lambda: rng.expovariate(2.0),
            )
            if error is not None:
                stats.rw_aborts += 1
                return
            stats.rw_commits += 1
            assert txn.tn is not None
            for key in txn.write_set:
                insort(shadow[key], txn.tn)

        def shed():
            # Admission tightened under memory pressure (or plain full):
            # back off with seeded jitter and try again.
            stats.rw_shed += 1

        return backoff_loop(
            sim, duration, lambda: rng.expovariate(1.0), scheduler.begin,
            attempt, shed, streams.stream(f"backoff-{i}"),
        )

    def reader(i: int):
        """Short OLTP snapshot reads; renewed every read, rarely revoked."""
        rng = streams.stream(f"reader-{i}")

        def once():
            txn = scheduler.begin(read_only=True)
            try:
                for key in rng.sample(keys, 3):
                    yield rng.expovariate(1.0)
                    yield scheduler.read(txn, key)
                    check_read(txn, key, f"reader-{i}")
                yield scheduler.commit(txn)
            except SnapshotTooOld as exc:
                note_too_old(exc)  # scheduler already aborted the txn
                return
            except TransactionAborted:  # pragma: no cover - RO never aborts otherwise
                if txn.is_active:
                    scheduler.abort(txn)
                return
            stats.ro_commits += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(0.5), once)

    def scanner(i: int):
        """The HTAP analytics session: a long multi-pass scan on one
        snapshot, renewing its lease at every read.  When memory pressure
        revokes it, the scan retries from scratch on a fresh snapshot —
        the retry-to-completion loop SnapshotTooOld is designed for.  Each
        retry scans faster (the warm-cache effect of a restarted scan), so
        a scan eventually fits between two pressure checks and completes —
        without that, symmetric oldest-first revocation can livelock a
        population of equally slow scanners."""
        rng = streams.stream(f"scanner-{i}")
        rate = 0.5  # per-read service rate; doubled after every revocation
        yield 5.0 * (i + 1)  # stagger starts so scanners pin distinct sns
        while sim.now < duration:
            txn = scheduler.begin(read_only=True)
            seen: dict[str, int] = {}
            try:
                for _ in range(3):  # passes over the keyspace
                    for key in keys:
                        yield rng.expovariate(rate)
                        if sim.now >= duration:
                            scheduler.abort(txn)
                            return
                        yield scheduler.read(txn, key)
                        check_read(txn, key, f"scanner-{i}")
                        tn = txn.read_set[key]
                        if key in seen and seen[key] != tn:
                            stats.invariant_violations.append(
                                f"scanner-{i} T{txn.txn_id} non-repeatable "
                                f"read of {key}: {seen[key]} then {tn}"
                            )
                        seen[key] = tn
                yield scheduler.commit(txn)
            except SnapshotTooOld as exc:
                note_too_old(exc)
                rate = min(rate * 2.0, 8.0)
                yield rng.uniform(0.5, 1.5)  # brief pause, then fresh snapshot
                continue
            stats.scan_commits += 1
            rate = 0.5  # cold cache again for the next scan
            yield rng.expovariate(0.2)

    def zombie():
        """Begins a snapshot, then goes quiet past its TTL — the abandoned
        dashboard session.  Its lease expires (or memory pressure revokes
        it first, if it has become the oldest pin); either way the wake-up
        read surfaces SnapshotTooOld instead of silently pinning forever."""
        rng = streams.stream("zombie")
        yield 12.0
        while sim.now < duration:
            txn = scheduler.begin(read_only=True)
            try:
                yield scheduler.read(txn, keys[0])
                check_read(txn, keys[0], "zombie")
                yield TTL * 1.5  # sleeps through the lease TTL, no renewal
                yield scheduler.read(txn, keys[1])
                check_read(txn, keys[1], "zombie")
                yield scheduler.commit(txn)
                stats.zombie_commits += 1
            except SnapshotTooOld as exc:
                note_too_old(exc)
            yield rng.expovariate(0.1)

    def pressure():
        while sim.now < duration:
            yield CHECK_PERIOD
            controller.check(sim.now)

    run.spawn("writer", WRITERS, writer)
    run.spawn("reader", READERS, reader)
    run.spawn("scanner", LONG_SCANS, scanner)
    sim.spawn(zombie(), name="zombie")
    sim.spawn(pressure(), name="memory-pressure")
    sim.run()
    # Final sweep with no load: what the bounded collector converges to.
    controller.check(sim.now)
    stats.final_live = scheduler.store.chain_stats()[0]
    run.settle(stats)

    stats.peak_live = controller.peak_live
    stats.pressure_checks = controller.checks
    stats.gc_passes = scheduler.gc.passes
    stats.gc_discarded = scheduler.gc.total_discarded
    stats.gc_interior = scheduler.gc.interior_discarded
    stats.gc_scanned = scheduler.gc.versions_scanned
    for event in run.pipeline.events():
        name = event["name"]
        if name == "snapshot.revoked":
            stats.revocations.append((int(event["sn"]), event["cause"]))
        if name.startswith("qos.") or name == "snapshot.revoked":
            stats.qos_events[name] = stats.qos_events.get(name, 0) + 1
    return stats


def _objectives() -> Any:
    from repro.obs.slo import memory_objectives

    return memory_objectives(live_versions_bound=LIVE_BOUND)


def _checks(report: MemoryReport) -> Iterable[str]:
    stats = report.stats
    yield from stats.invariant_violations
    if stats.peak_live > LIVE_BOUND:
        yield f"peak live versions {stats.peak_live} above bound {LIVE_BOUND}"
    if not stats.revocations:
        yield "no lease revocations: memory-pressure controller inert"
    if not stats.too_old_total:
        yield "no SnapshotTooOld surfaced despite revocations"
    if not stats.scan_commits:
        yield (
            "long scans never completed: revoked sessions did not retry "
            "to completion"
        )
    if not stats.ro_commits:
        yield "no read-only commits"
    if not stats.gc_passes:
        yield "garbage collector never ran"


def _witness_checks(report: MemoryReport) -> Iterable[str]:
    peak = report.witness["peak_tracked"]
    if peak > WITNESS_BOUND:
        yield (
            f"witness peak tracked {peak} above bound {WITNESS_BOUND}: "
            "sealing failed to fold the prefix"
        )


MEMORY = Campaign(
    name="memory",
    defaults=dict(duration=400.0),
    phase=_run_phase,
    report=MemoryReport,
    objectives=_objectives,
    checks=_checks,
    witness_checks=_witness_checks,
)


def run_memory_campaign(seed: int = 0, **knobs: Any) -> MemoryReport:
    """Run one seeded memory campaign and check the acceptance criteria.

    Knobs: ``duration`` (default 400) and ``verify_determinism`` (default
    True).  The guarantees checked, in ISSUE order:

    * **fault invariant** — no session, short or long, ever observes a
      state implying its needed version was reclaimed (shadow-history
      oracle plus per-transaction repeatable-read check);
    * **bounded footprint** — peak post-sweep retained versions stay under
      :data:`LIVE_BOUND`, a constant independent of ``duration``, despite
      pinned long scans;
    * **degradation works** — revocations actually happen, every revoked
      session surfaces :class:`~repro.errors.SnapshotTooOld` (never a
      wrong read), and retried scans run to completion;
    * **determinism** — with ``verify_determinism`` the run is replayed
      and both fingerprints (commits, revocation order, peak, event
      count) and both SLO verdict blocks must compare equal;
    * **memory SLO profile** — ``gc.live_versions`` max objective holds
      online, ``snapshot.revoked`` is recorded as an expected anomaly,
      and ``ro_blocking`` stays a hard zero;
    * **bounded witness** — a sealing
      :class:`~repro.obs.witness.WitnessEngine` certifies the history
      stream online, the verdict must be a clean 1SR, and its
      ``peak_tracked`` must stay under :data:`WITNESS_BOUND`, independent
      of ``duration`` — sealing, not run length, bounds the certifier.
    """
    return MEMORY.run(seed, **knobs)


CLI = CampaignCLI(
    run=run_memory_campaign,
    banner=lambda args, knobs: (
        f"memory campaign: seeds={args.seeds} duration={args.duration}"
    ),
)
