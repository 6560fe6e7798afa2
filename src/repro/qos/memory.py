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
from typing import Any

from repro.errors import Overloaded, SnapshotTooOld, TransactionAborted
from repro.faults.campaign import (
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    closed_loop,
    increment,
    slo_engine,
    verify_double_run,
)
from repro.obs.tracer import NULL_TRACER
from repro.qos.admission import AdmissionController
from repro.qos.retry import BackoffPolicy

#: Default peak-footprint bound as a multiple of the high watermark.  The
#: footprint may legitimately overshoot the watermark by the versions
#: produced between two controller checks; what matters is that the bound
#: is a *constant*, independent of run length.
LIVE_BOUND_FACTOR = 2.0

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
                txn=lease.txn_id,
                sn=lease.sn,
                cause=lease.revoke_cause,
                renewals=lease.renewals,
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
                state="pressured",
                live_versions=live,
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
                state="normal",
                live_versions=live,
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


@dataclass
class MemoryReport(CampaignReport):
    """Outcome of one seeded memory campaign."""

    PHASE = "stats"
    DERIVED = ("revocations", "revoked_by_cause", "gc_scan_per_reclaimed")
    NONDETERMINISTIC = "memory campaign not deterministic under fixed seed"

    writers: int
    readers: int
    long_scans: int
    ttl: float
    check_period: float
    low_watermark: int
    high_watermark: int
    live_bound: int
    stats: MemoryStats
    #: Ceiling asserted on ``witness["peak_tracked"]`` — like ``live_bound``
    #: a constant independent of ``duration``.
    witness_bound: int = 0

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


def _run_phase(
    seed: int,
    *,
    duration: float,
    writers: int,
    readers: int,
    long_scans: int,
    n_keys: int,
    ttl: float,
    check_period: float,
    low_watermark: int,
    high_watermark: int,
    scan_passes: int = 3,
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
    scheduler.admission = AdmissionController(
        capacity=max(2, writers), queue_limit=2 * max(2, writers), policy="fifo"
    )
    scheduler.ro_registry.ttl = ttl
    scheduler.ro_registry.clock = lambda: sim.now
    run.pipeline.attach(scheduler)
    controller = MemoryPressureController(
        scheduler.store,
        scheduler.gc,
        scheduler.ro_registry,
        low_watermark=low_watermark,
        high_watermark=high_watermark,
        admission=scheduler.admission,
    )
    controller.tracer = run.tracer
    backoff = BackoffPolicy(base=0.5, factor=2.0, cap=8.0, jitter=0.5)
    stats = MemoryStats()
    keys = [f"k{i}" for i in range(n_keys)]
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
        jitter_rng = streams.stream(f"backoff-{i}")
        attempt = 0

        def once():
            nonlocal attempt
            try:
                txn = scheduler.begin()
            except Overloaded:
                # Admission tightened under memory pressure (or plain full):
                # back off with seeded jitter and try again.
                stats.rw_shed += 1
                yield backoff.delay(attempt, jitter_rng)
                attempt += 1
                return
            attempt = 0
            try:
                yield from increment(
                    scheduler, txn, rng.sample(keys, 2),
                    service=lambda: rng.expovariate(2.0),
                )
                yield scheduler.commit(txn)
            except TransactionAborted:
                if txn.is_active:
                    scheduler.abort(txn)
                stats.rw_aborts += 1
                return
            stats.rw_commits += 1
            assert txn.tn is not None
            for key in txn.write_set:
                insort(shadow[key], txn.tn)

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

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
                for _ in range(scan_passes):
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
                yield ttl * 1.5  # sleeps through the lease TTL, no renewal
                yield scheduler.read(txn, keys[1])
                check_read(txn, keys[1], "zombie")
                yield scheduler.commit(txn)
                stats.zombie_commits += 1
            except SnapshotTooOld as exc:
                note_too_old(exc)
            yield rng.expovariate(0.1)

    def pressure():
        while sim.now < duration:
            yield check_period
            controller.check(sim.now)

    run.spawn("writer", writers, writer)
    run.spawn("reader", readers, reader)
    run.spawn("scanner", long_scans, scanner)
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


def _memory_engine(live_bound: int, duration: float):
    from repro.obs.slo import memory_objectives

    return slo_engine(memory_objectives(live_versions_bound=live_bound), duration)


def run_memory_campaign(
    seed: int = 0,
    *,
    duration: float = 400.0,
    writers: int = 4,
    readers: int = 3,
    long_scans: int = 2,
    n_keys: int = 12,
    ttl: float = 40.0,
    check_period: float = 5.0,
    low_watermark: int = 24,
    high_watermark: int = 32,
    live_bound: int | None = None,
    witness_bound: int | None = None,
    verify_determinism: bool = True,
    slo: bool = True,
    witness: bool = True,
) -> MemoryReport:
    """Run one seeded memory campaign and check the acceptance criteria.

    The guarantees checked, in ISSUE order:

    * **fault invariant** — no session, short or long, ever observes a
      state implying its needed version was reclaimed (shadow-history
      oracle plus per-transaction repeatable-read check);
    * **bounded footprint** — peak post-sweep retained versions stay under
      ``live_bound`` (default ``2 * high_watermark``), a constant
      independent of ``duration``, despite pinned long scans;
    * **degradation works** — revocations actually happen, every revoked
      session surfaces :class:`~repro.errors.SnapshotTooOld` (never a
      wrong read), and retried scans run to completion;
    * **determinism** — with ``verify_determinism`` the run is replayed
      and both fingerprints (commits, revocation order, peak, event
      count) and both SLO verdict blocks must compare equal;
    * **memory SLO profile** — ``gc.live_versions`` max objective holds
      online, ``snapshot.revoked`` is recorded as an expected anomaly,
      and ``ro_blocking`` stays a hard zero;
    * **bounded witness** — with ``witness`` (the default) a sealing
      :class:`~repro.obs.witness.WitnessEngine` certifies the history
      stream online, the verdict must be a clean 1SR, and its
      ``peak_tracked`` must stay under ``witness_bound`` (default: a
      multiple of keyspace + client population, independent of
      ``duration``) — sealing, not run length, bounds the certifier.
    """
    if live_bound is None:
        live_bound = int(high_watermark * LIVE_BOUND_FACTOR)
    if witness_bound is None:
        # Sealing keeps the certifier's footprint at the keyspace frontier
        # plus the live-client window plus the versions a lease-pinned long
        # scan holds readable (its lifetime is TTL-bounded, so this is a
        # constant too; empirically the asymptote is ~175 for the default
        # knobs, identical at duration 400 and 800).
        witness_bound = 4 * live_bound + 8 * (
            n_keys + writers + readers + long_scans
        )
    knobs = dict(
        duration=duration,
        writers=writers,
        readers=readers,
        long_scans=long_scans,
        n_keys=n_keys,
        ttl=ttl,
        check_period=check_period,
        low_watermark=low_watermark,
        high_watermark=high_watermark,
    )
    outcome = verify_double_run(
        lambda engine, certifier: _run_phase(
            seed, engine=engine, witness=certifier, **knobs
        ),
        slo=slo,
        witness=witness,
        make_engine=lambda: _memory_engine(live_bound, duration),
        verify=verify_determinism,
    )
    stats = outcome.result

    report = MemoryReport(
        seed=seed,
        duration=duration,
        writers=writers,
        readers=readers,
        long_scans=long_scans,
        ttl=ttl,
        check_period=check_period,
        low_watermark=low_watermark,
        high_watermark=high_watermark,
        live_bound=live_bound,
        stats=stats,
        witness_bound=witness_bound,
    )
    checks = report.violations
    checks.extend(stats.invariant_violations)
    if stats.peak_live > live_bound:
        checks.append(
            f"peak live versions {stats.peak_live} above bound {live_bound}"
        )
    if not stats.revocations:
        checks.append("no lease revocations: memory-pressure controller inert")
    if not stats.too_old_total:
        checks.append("no SnapshotTooOld surfaced despite revocations")
    if not stats.scan_commits:
        checks.append(
            "long scans never completed: revoked sessions did not retry "
            "to completion"
        )
    if not stats.ro_commits:
        checks.append("no read-only commits")
    if not stats.gc_passes:
        checks.append("garbage collector never ran")
    report.conclude(outcome)
    if report.witness is not None and report.witness["peak_tracked"] > witness_bound:
        checks.append(
            f"witness peak tracked {report.witness['peak_tracked']} above bound "
            f"{witness_bound}: sealing failed to fold the prefix"
        )
    return report
