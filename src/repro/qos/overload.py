"""Seeded overload campaign: the read-only fast-path guarantee under stress.

The campaign drives the paper's central VC + 2PL scheduler with a
read-write load far beyond admission capacity (4x by default) while a
steady population of read-only clients runs alongside, and measures what
the QoS layer promises:

* read-write arrivals beyond capacity are **shed** with a typed
  :class:`~repro.errors.Overloaded` (never silently dropped) and back off
  with deterministic seeded jitter;
* admitted read-write transactions carry a virtual-time **deadline**; a
  reaper sweeps the lock manager so a writer stuck behind a convoy aborts
  with ``DEADLINE_EXCEEDED`` instead of waiting forever;
* read-only transactions **never** pass admission, are never shed, never
  deadline-abort, and their latency distribution stays flat — the
  campaign runs an uncontended read-only baseline first and compares p99s;
* snapshot staleness stays bounded (each RO begin reports its
  ``qos.staleness`` bound);
* every decision is visible as a ``qos.*`` trace event.

Both phases run on the virtual clock from one master seed, so the whole
campaign is deterministic: same seed, same sheds, same misses, same
latencies.  ``python -m repro drill --campaign overload`` runs a sweep of
these; the bench artifact embeds one run's headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import AbortReason, Overloaded, TransactionAborted
from repro.faults.campaign import (
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    closed_loop,
    increment,
    slo_engine,
    verify_double_run,
)
from repro.qos.admission import AdmissionController
from repro.qos.retry import BackoffPolicy
from repro.sim.stats import Summary

#: Acceptance ceiling: overload RO p99 may not exceed this multiple of the
#: uncontended baseline (ISSUE acceptance criterion).
RO_P99_CEILING = 1.5

#: Per-window watchdog ceiling for the online RO-p99 objective, as a
#: multiple of the baseline phase's whole-run p99.  Looser than the
#: run-level gate above because a windowed p99 over a few dozen samples is
#: effectively a maximum with much heavier tails; the run-level 1.5x check
#: still applies unchanged.
RO_P99_WINDOW_CEILING = 2.0


@dataclass
class PhaseStats(CampaignPhase):
    """What one phase of the campaign observed."""

    ro_latency: Summary = field(default_factory=Summary)
    ro_commits: int = 0
    ro_shed: int = 0
    ro_deadline_misses: int = 0
    rw_commits: int = 0
    rw_shed: int = 0
    rw_deadline_misses: int = 0
    rw_aborts_other: int = 0
    staleness: Summary = field(default_factory=Summary)
    qos_events: dict[str, int] = field(default_factory=dict)


@dataclass
class OverloadReport(CampaignReport):
    """Outcome of one seeded overload campaign."""

    PHASE = "overload"
    DERIVED = (
        "shed_rate",
        "deadline_miss_rate",
        "ro_p99_baseline",
        "ro_p99_overload",
        "ro_p99_ratio",
        "staleness_max",
    )
    NONDETERMINISTIC = "overload phase not deterministic under fixed seed"

    capacity: int
    writers: int
    readers: int
    deadline: float
    baseline: PhaseStats
    overload: PhaseStats

    @property
    def shed_rate(self) -> float:
        attempts = self.overload.rw_commits + self.overload.rw_shed
        attempts += self.overload.rw_deadline_misses + self.overload.rw_aborts_other
        return self.overload.rw_shed / attempts if attempts else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        admitted = self.overload.rw_commits + self.overload.rw_deadline_misses
        admitted += self.overload.rw_aborts_other
        return self.overload.rw_deadline_misses / admitted if admitted else 0.0

    @property
    def ro_p99_baseline(self) -> float:
        return self.baseline.ro_latency.p99

    @property
    def ro_p99_overload(self) -> float:
        return self.overload.ro_latency.p99

    @property
    def ro_p99_ratio(self) -> float:
        base = self.ro_p99_baseline
        return self.ro_p99_overload / base if base > 0 else 1.0

    @property
    def staleness_max(self) -> float:
        return self.overload.staleness.maximum


def _run_phase(
    seed: int,
    *,
    duration: float,
    capacity: int,
    writers: int,
    readers: int,
    deadline: float,
    n_keys: int = 6,
    reap_period: float = 1.0,
    engine: Any | None = None,
    witness: Any | None = None,
) -> PhaseStats:
    """One closed-loop run; ``writers=0`` gives the uncontended RO baseline.

    The writer population hammers a small hot key set so admitted writers
    genuinely convoy on locks — that is what makes deadlines bite — while
    arrivals beyond ``capacity`` are shed at begin and retry with seeded
    exponential backoff, exactly the loop ``Session.run`` implements.

    ``engine`` is an optional :class:`~repro.obs.slo.SLOEngine` evaluated
    online over the phase's event stream (the overload phase's watchdogs);
    ``witness`` an optional :class:`~repro.obs.witness.WitnessEngine`
    certifying the phase's ``history.*`` stream live.
    """
    from repro.protocols.vc_two_phase_locking import VC2PLScheduler

    run = PhaseRun(seed, engine=engine, witness=witness, ring=65_536)
    sim, streams, tracer = run.sim, run.streams, run.tracer
    scheduler = VC2PLScheduler()
    scheduler.admission = AdmissionController(capacity=capacity)
    run.pipeline.attach(scheduler)
    backoff = BackoffPolicy(base=0.5, factor=2.0, cap=8.0, jitter=0.5)
    stats = PhaseStats()
    keys = [f"k{i}" for i in range(n_keys)]

    def writer(i: int):
        rng = streams.stream(f"writer-{i}")
        jitter_rng = streams.stream(f"backoff-{i}")
        attempt = 0

        def once():
            nonlocal attempt
            try:
                txn = scheduler.begin(deadline=sim.now + deadline)
            except Overloaded:
                stats.rw_shed += 1
                yield backoff.delay(attempt, jitter_rng)
                attempt += 1
                return
            attempt = 0
            try:
                yield from increment(
                    scheduler, txn, rng.sample(keys, 2),
                    service=lambda: rng.expovariate(1.0 / 2.0),
                )
                yield scheduler.commit(txn)
                stats.rw_commits += 1
            except TransactionAborted as exc:
                if txn.is_active:
                    scheduler.abort(txn)
                if exc.reason is AbortReason.DEADLINE_EXCEEDED:
                    stats.rw_deadline_misses += 1
                else:
                    stats.rw_aborts_other += 1

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0), once)

    def reader(i: int):
        rng = streams.stream(f"reader-{i}")

        def once():
            start = sim.now
            try:
                txn = scheduler.begin(read_only=True)
            except Overloaded:  # pragma: no cover - the guarantee under test
                stats.ro_shed += 1
                # Tripwire for the zero-RO-shed objective: this event is
                # structurally unreachable (RO begins bypass admission);
                # if it ever fires, the watchdog breaches immediately.
                tracer.emit("slo.ro_shed", seed=seed)
                return
            staleness = txn.meta.get("qos.staleness")
            if staleness is not None:
                stats.staleness.add(staleness)
            try:
                for key in rng.sample(keys, 3):
                    yield rng.expovariate(1.0)  # service time
                    yield scheduler.read(txn, key)
                yield scheduler.commit(txn)
            except TransactionAborted as exc:  # pragma: no cover - ditto
                if txn.is_active:
                    scheduler.abort(txn)
                if exc.reason is AbortReason.DEADLINE_EXCEEDED:
                    stats.ro_deadline_misses += 1
                return
            stats.ro_commits += 1
            stats.ro_latency.add(sim.now - start)

        return closed_loop(sim, duration, lambda: rng.expovariate(1.0 / 2.0), once)

    def reaper():
        # The lock manager is clock-free by design: deadlines on queued
        # requests only fire when someone sweeps them with "now".
        while sim.now < duration:
            yield reap_period
            scheduler.locks.expire_due(sim.now)

    run.spawn("writer", writers, writer)
    run.spawn("reader", readers, reader)
    if writers:
        sim.spawn(reaper(), name="deadline-reaper")
    sim.run()
    run.settle(stats)  # detach, finish the engine's last window, flush

    for event in run.pipeline.events():
        if event["name"].startswith("qos."):
            stats.qos_events[event["name"]] = (
                stats.qos_events.get(event["name"], 0) + 1
            )
    return stats


def _overload_engine(baseline: PhaseStats, capacity: int, duration: float):
    """The overload phase's online watchdogs, thresholds anchored to the
    campaign's own uncontended baseline phase."""
    from repro.obs.slo import overload_objectives

    base_p99 = baseline.ro_latency.p99
    return slo_engine(
        overload_objectives(
            capacity=capacity,
            ro_p99_ceiling=(
                RO_P99_WINDOW_CEILING * base_p99 if base_p99 > 0 else None
            ),
        ),
        duration,
    )


def run_overload_campaign(
    seed: int = 0,
    *,
    duration: float = 400.0,
    capacity: int = 4,
    overload_factor: float = 4.0,
    readers: int = 4,
    deadline: float = 10.0,
    verify_determinism: bool = True,
    slo: bool = True,
    witness: bool = True,
) -> OverloadReport:
    """Run one seeded overload campaign and check the acceptance criteria.

    Phase 1 measures the read-only latency distribution with zero
    read-write load (the uncontended baseline).  Phase 2 adds
    ``capacity * overload_factor`` read-write writers and re-measures.
    With ``verify_determinism`` the overload phase runs twice and the two
    fingerprints must match — a mismatch is reported as a violation, not
    an exception, so campaigns report it like any other failed guarantee.

    With ``slo`` (the default) an :class:`~repro.obs.slo.SLOEngine` rides
    the overload phase, evaluating the RO-p99/zero-shed/staleness
    objectives online; its verdict lands in ``report.slo`` and an
    unexpected breach is a campaign violation.  Under
    ``verify_determinism`` the replay carries a fresh engine and both
    verdict blocks must compare equal — the watchdogs themselves are held
    to the seeded-replay standard.

    With ``witness`` (the default) a sealing
    :class:`~repro.obs.witness.WitnessEngine` certifies the overload
    phase's history stream online; an MVSG cycle (or a tainted seal) is a
    campaign violation, and under ``verify_determinism`` its verdict block
    must replay byte-identically too.
    """
    writers = max(1, int(capacity * overload_factor))
    knobs = dict(
        duration=duration,
        capacity=capacity,
        readers=readers,
        deadline=deadline,
    )
    baseline = _run_phase(seed, writers=0, **knobs)
    outcome = verify_double_run(
        lambda engine, certifier: _run_phase(
            seed, writers=writers, engine=engine, witness=certifier, **knobs
        ),
        slo=slo,
        witness=witness,
        make_engine=lambda: _overload_engine(baseline, capacity, duration),
        verify=verify_determinism,
    )
    overload = outcome.result

    report = OverloadReport(
        seed=seed,
        duration=duration,
        capacity=capacity,
        writers=writers,
        readers=readers,
        deadline=deadline,
        baseline=baseline,
        overload=overload,
    )
    checks = report.violations
    if overload.ro_shed:
        checks.append(f"read-only transactions shed: {overload.ro_shed}")
    if overload.ro_deadline_misses:
        checks.append(
            f"read-only deadline aborts: {overload.ro_deadline_misses}"
        )
    if not overload.rw_shed:
        checks.append("no shedding at 4x capacity: admission gate inert")
    if baseline.ro_latency.p99 > 0 and (
        overload.ro_latency.p99 > RO_P99_CEILING * baseline.ro_latency.p99
    ):
        checks.append(
            f"RO p99 {overload.ro_latency.p99:.3f} above "
            f"{RO_P99_CEILING}x baseline {baseline.ro_latency.p99:.3f}"
        )
    # Staleness bound: with at most `capacity` admitted writers in flight,
    # a snapshot can trail the newest commit by at most that many numbers.
    if overload.staleness.maximum > capacity:
        checks.append(
            f"staleness {overload.staleness.maximum} above bound {capacity}"
        )
    if not any(name.startswith("qos.") for name in overload.qos_events):
        checks.append("no qos.* trace events emitted")
    report.conclude(outcome)
    return report


def bench_block(seed: int, duration: float) -> dict[str, Any]:
    """One overload campaign → the artifact's ``qos`` block.

    Headline robustness numbers: shed rate, deadline-miss rate, read-only
    p99 under overload vs. the uncontended baseline.
    """
    report = run_overload_campaign(seed, duration=duration, verify_determinism=False)
    data = report.as_dict()
    block = {
        key: data[key]
        for key in (
            "shed_rate", "deadline_miss_rate", "ro_p99_baseline", "ro_p99_ratio",
            "ro_shed", "staleness_max", "ok", "violations",
        )
    }
    block["ro_p99_under_overload"] = data["ro_p99_overload"]
    block["slo"] = {"ok": report.slo["ok"], "breaches": report.slo["breaches"]}
    return block
