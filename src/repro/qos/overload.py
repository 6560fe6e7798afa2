"""Seeded overload campaign: the read-only fast-path guarantee under stress.

The campaign drives the paper's central VC + 2PL scheduler with a
read-write load far beyond admission capacity (4x) while a
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
    CampaignCLI,
    CampaignPhase,
    CampaignReport,
    PhaseRun,
    backoff_loop,
    rw_attempt,
    slo_engine,
    verify_double_run,
)
from repro.qos.admission import AdmissionController
from repro.sim.engine import closed_loop
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

#: Admission capacity, and the read-write writers offered against it (4x).
CAPACITY = 4
WRITERS = 4 * CAPACITY
#: Read-only clients, and the virtual-time budget of an admitted writer.
READERS = 4
DEADLINE = 10.0


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


@dataclass(kw_only=True)
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

    capacity: int = CAPACITY
    writers: int = WRITERS
    readers: int = READERS
    deadline: float = DEADLINE
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

    def row(self) -> str:
        return (
            f"shed={self.shed_rate:<7.2%} "
            f"miss={self.deadline_miss_rate:<7.2%} "
            f"ro_p99x={self.ro_p99_ratio:<5.2f} "
            f"rw_commits={self.overload.rw_commits:<5d} "
            f"ro_commits={self.overload.ro_commits}"
            + self.witness_tag()
        )


def _run_phase(
    seed: int,
    *,
    duration: float,
    writers: int,
    engine: Any | None = None,
    witness: Any | None = None,
) -> PhaseStats:
    """One closed-loop run; ``writers=0`` gives the uncontended RO baseline.

    The writer population hammers a small hot key set so admitted writers
    genuinely convoy on locks — that is what makes deadlines bite — while
    arrivals beyond :data:`CAPACITY` are shed at begin and retry with seeded
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
    scheduler.admission = AdmissionController(capacity=CAPACITY)
    run.pipeline.attach(scheduler)
    stats = PhaseStats()
    keys = [f"k{i}" for i in range(6)]

    def writer(i: int):
        rng = streams.stream(f"writer-{i}")

        def attempt(txn):
            error = yield from rw_attempt(
                scheduler, txn, rng.sample(keys, 2),
                service=lambda: rng.expovariate(1.0 / 2.0),
            )
            if error is None:
                stats.rw_commits += 1
            elif getattr(error, "reason", None) is AbortReason.DEADLINE_EXCEEDED:
                stats.rw_deadline_misses += 1
            else:
                stats.rw_aborts_other += 1

        def shed():
            stats.rw_shed += 1

        return backoff_loop(
            sim, duration, lambda: rng.expovariate(1.0),
            lambda: scheduler.begin(deadline=sim.now + DEADLINE),
            attempt, shed, streams.stream(f"backoff-{i}"),
        )

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
                tracer.emit("slo.ro_shed", seed)
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
            yield 1.0
            scheduler.locks.expire_due(sim.now)

    run.spawn("writer", writers, writer)
    run.spawn("reader", READERS, reader)
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


def _overload_engine(baseline: PhaseStats, duration: float):
    """The overload phase's online watchdogs, thresholds anchored to the
    campaign's own uncontended baseline phase."""
    from repro.obs.slo import overload_objectives

    base_p99 = baseline.ro_latency.p99
    return slo_engine(
        overload_objectives(
            capacity=CAPACITY,
            ro_p99_ceiling=(
                RO_P99_WINDOW_CEILING * base_p99 if base_p99 > 0 else None
            ),
        ),
        duration,
    )


def run_overload_campaign(
    seed: int = 0, *, duration: float = 400.0, verify_determinism: bool = True
) -> OverloadReport:
    """Run one seeded overload campaign and check the acceptance criteria.

    Phase 1 measures the read-only latency distribution with zero
    read-write load (the uncontended baseline).  Phase 2 adds
    :data:`WRITERS` read-write writers and re-measures.  With
    ``verify_determinism`` the overload phase runs twice and the two
    fingerprints must match — a mismatch is reported as a violation, not
    an exception, so campaigns report it like any other failed guarantee.

    An :class:`~repro.obs.slo.SLOEngine` rides the overload phase,
    evaluating the RO-p99/zero-shed/staleness objectives online; its
    verdict lands in ``report.slo`` and an unexpected breach is a campaign
    violation.  A sealing :class:`~repro.obs.witness.WitnessEngine`
    certifies the phase's history stream online; an MVSG cycle (or a
    tainted seal) is a campaign violation.  Under ``verify_determinism``
    the replay carries a fresh engine and witness and both verdict blocks
    must compare equal.

    This campaign keeps its own run rather than a
    :class:`~repro.faults.campaign.Campaign` declaration: the engine's
    RO-p99 ceiling comes from the baseline phase, which runs first.
    """
    baseline = _run_phase(seed, duration=duration, writers=0)
    outcome = verify_double_run(
        lambda engine, certifier: _run_phase(
            seed, duration=duration, writers=WRITERS, engine=engine, witness=certifier
        ),
        make_engine=lambda: _overload_engine(baseline, duration),
        verify=verify_determinism,
    )
    overload = outcome.result

    report = OverloadReport(
        seed=seed, duration=duration, baseline=baseline, overload=overload
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
    # Staleness bound: with at most CAPACITY admitted writers in flight, a
    # snapshot can trail the newest commit by at most that many numbers.
    if overload.staleness.maximum > CAPACITY:
        checks.append(
            f"staleness {overload.staleness.maximum} above bound {CAPACITY}"
        )
    if not any(name.startswith("qos.") for name in overload.qos_events):
        checks.append("no qos.* trace events emitted")
    report.conclude(outcome)
    return report


CLI = CampaignCLI(
    run=run_overload_campaign,
    banner=lambda args, knobs: (
        f"overload campaign: seeds={args.seeds} duration={args.duration}"
    ),
)


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
