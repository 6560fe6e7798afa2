"""The campaign harness: what every seeded drill does the same way.

Six drills — ``faults``, ``overload``, ``memory``, ``replication``,
``availability``, ``shard`` — each make their own promises in their own
module; the shape they share is here, once (``docs/faults.md``, "The
campaign harness"):

* :class:`Campaign` — a campaign as a declaration (its knobs and their
  defaults, phase, report class, objectives and checks) and
  :meth:`Campaign.run`, the one run sequence every declared campaign
  shares: merge, double run, report, checks, ``conclude``, witness checks.
* :class:`CampaignCLI` — how ``python -m repro drill`` runs a campaign,
  declared by the module that owns it.
* :class:`CampaignReport` — the report base: one ``ok`` (no violations
  **and** no wedged process), one ``as_dict()``, and
  :meth:`~CampaignReport.conclude`, the only place the determinism
  violation, the SLO-breach lines and the witness gate violations are
  appended.
* :func:`verify_double_run` — the promise every campaign makes: the
  identical phase, run twice from the same seed, matches in *everything*
  observable.  That is what makes a failure replayable from its seed alone,
  and it is a real check on the stack (a stray ``random.random()``,
  dict-order dependence, or wall-clock leak breaks it instantly).
* :class:`PhaseRun` — the scaffold of one phase: simulator, seeded streams,
  faulty courier, observability pipeline, named clients, and the one read
  of the simulator's blocked processes.
* :func:`backoff_loop`, :func:`rw_attempt`, :func:`acked_commit`,
  :meth:`PhaseRun.prober` — the client pieces, each written once.  The
  arrival rule they loop on is :func:`repro.sim.engine.closed_loop`, beside
  the simulator; :func:`rw_attempt` is the read-write attempt and owns the
  one error set a read-write client absorbs.  A loop whose middle is its
  own (the long scanner) calls the pieces and keeps its middle.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, ClassVar, Generator, Iterable

from repro.errors import Overloaded, TransactionAborted
from repro.faults.courier import FaultyCourier, RetryPolicy
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.obs.pipeline import ObsPipeline
from repro.qos.retry import BackoffPolicy, Retry
from repro.sim.engine import Simulator, closed_loop
from repro.sim.random_streams import RandomStreams


@dataclass
class DoubleRun:
    """Outcome of a (possibly verified) campaign phase run."""

    #: The live run's phase result, exactly as ``run`` returned it.
    result: Any
    #: The live run's SLO engine (None when no engine rode the run).
    engine: Any | None
    #: The live run's witness certifier (None when no witness rode the run).
    certifier: Any | None
    #: True when no replay was requested, or the replay matched everywhere.
    deterministic: bool


def verify_double_run(
    run: Callable[[Any, Any], Any],
    make_engine: Callable[[], Any],
    *,
    verify: bool = True,
) -> DoubleRun:
    """Run a campaign phase, optionally replay it, and compare everything.

    ``run(engine, certifier)`` executes one phase under the given observers
    and returns its result object; ``make_engine`` builds a fresh SLO
    engine per run (engines accumulate state and must never be shared
    between the live run and the replay), and every run gets a fresh
    sealing witness.

    Comparison is three-deep, mirroring what the drill later prints:
    phase fingerprints, then full SLO reports, then witness reports.
    """
    from repro.obs.witness import WitnessEngine

    engine = make_engine()
    certifier = WitnessEngine(seal=True)
    result = run(engine, certifier)
    deterministic = True
    if verify:
        replay_engine = make_engine()
        replay_certifier = WitnessEngine(seal=True)
        replay = run(replay_engine, replay_certifier)
        deterministic = (
            replay.fingerprint() == result.fingerprint()
            and replay_engine.report() == engine.report()
            and replay_certifier.report() == certifier.report()
        )
    return DoubleRun(
        result=result,
        engine=engine,
        certifier=certifier,
        deterministic=deterministic,
    )


def slo_engine(objectives: Any, duration: float, *, capacity: int = 16_384) -> Any:
    """An SLO engine over 16 tumbling windows per run, with a flight
    recorder — the shape every campaign's watchdogs take."""
    from repro.obs.slo import FlightRecorder, SLOEngine

    return SLOEngine(
        objectives,
        window=duration / 16.0,
        recorder=FlightRecorder(capacity=capacity),
    )


# -- reports ------------------------------------------------------------------------


_UNSERIALIZABLE = object()


def _plain(value: Any, digits: int | None = None) -> Any:
    """``value`` as JSON-ready data (floats rounded to ``digits`` places),
    or ``_UNSERIALIZABLE`` for an object with no ``as_dict()`` of its own
    (a nested phase)."""
    if isinstance(value, float) and digits is not None:
        return round(value, digits)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _plain(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item, digits) for item in value]
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return _UNSERIALIZABLE


def flat_dict(*sources: Any) -> dict[str, Any]:
    """The JSON-ready fields of the dataclass instances ``sources``, merged
    in order (a later source wins a name clash)."""
    out: dict[str, Any] = {}
    for source in sources:
        for item in fields(source):
            value = _plain(getattr(source, item.name))
            if value is not _UNSERIALIZABLE:
                out[item.name] = value
    return out


@dataclass
class CampaignPhase:
    """What one seeded phase observed; the scaffold fills in how its
    simulation ended."""

    #: Fields left out of the fingerprint: message lists describe a failure
    #: (and may embed process-global transaction ids).
    UNPINNED: ClassVar[tuple[str, ...]] = ("violations", "wedged")

    events_dispatched: int = 0
    #: Guarantees the phase saw broken while it ran; they lead the report's.
    violations: list[str] = field(default_factory=list)
    #: Processes still suspended when the event queue drained.
    wedged: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Two same-seed runs must agree on every component: each plain
        field, floats to nine places."""
        values = (
            _plain(getattr(self, item.name), digits=9)
            for item in fields(self)
            if item.name not in self.UNPINNED
        )
        return tuple(value for value in values if value is not _UNSERIALIZABLE)


@dataclass(kw_only=True)
class CampaignReport:
    """Outcome of one seeded campaign: knobs, one phase, and the verdict.

    A subclass adds its knobs as fields, names the attribute holding the
    phase whose tallies the report flattens (:attr:`PHASE`; ``None`` when
    the report carries its tallies itself), lists the computed properties
    ``as_dict()`` should include (:attr:`DERIVED`), and renders its
    ``drill`` table line with a ``row()`` method.
    """

    PHASE: ClassVar[str | None] = "phase"
    DERIVED: ClassVar[tuple[str, ...]] = ()
    #: The violation :meth:`conclude` records when the replay diverged.
    NONDETERMINISTIC: ClassVar[str] = "campaign not deterministic under fixed seed"

    seed: int
    duration: float
    deterministic: bool = True
    violations: list[str] = field(default_factory=list)
    #: Online watchdog verdict block (``SLOEngine.report()``); None when no
    #: engine rode the run (a fault drill without ``slo``).
    slo: dict[str, Any] | None = None
    #: Streaming serializability verdict (``WitnessEngine.report()``); None
    #: when no witness rode the run (a fault drill without ``witness``).
    witness: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.PHASE:
            self.violations.extend(self.tallies().violations)

    def tallies(self) -> Any:
        """The phase the report flattens (the report itself without one)."""
        return getattr(self, self.PHASE) if self.PHASE else self

    @property
    def ok(self) -> bool:
        return not self.violations and not self.tallies().wedged

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready form: the phase's fields, then the report's own
        (which win a name clash), then :attr:`DERIVED`, then ``ok``."""
        out = flat_dict(self.tallies(), self)
        for name in self.DERIVED:
            value = getattr(self, name)
            out[name] = round(value, 6) if isinstance(value, float) else value
        out["ok"] = self.ok
        return out

    def slo_tag(self) -> str:
        """The row's `` slo=ok|BREACH`` suffix (empty without a verdict)."""
        if self.slo is None:
            return ""
        return f" slo={'ok' if self.slo['ok'] else 'BREACH'}"

    def witness_tag(self) -> str:
        """The row's `` witness=1SR|FAIL`` suffix (empty without a verdict)."""
        if self.witness is None:
            return ""
        return f" witness={'1SR' if self.witness['ok'] else 'FAIL'}"

    def conclude(self, outcome: DoubleRun) -> None:
        """Fold the run's shared verdicts into ``violations``: determinism,
        then unexpected SLO breaches, then the witness gate."""
        self.deterministic = outcome.deterministic
        if not outcome.deterministic:
            self.violations.append(self.NONDETERMINISTIC)
        if outcome.engine is not None:
            self.slo = outcome.engine.report()
            for breach in outcome.engine.unexpected_breaches:
                self.violations.append(
                    f"slo breach: {breach.objective} value={breach.value:g} "
                    f"vs {breach.threshold} at window "
                    f"[{breach.window_start:g}, {breach.window_end:g})"
                )
        if outcome.certifier is not None:
            self.witness = outcome.certifier.report()
            self.violations.extend(outcome.certifier.gate_violations())


# -- campaigns as declarations ------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """One seeded campaign as a declaration: its knobs, and what it runs
    and checks.  :meth:`run` is the sequence every declared campaign
    shares."""

    #: Names the campaign in an unknown-knob error.
    name: str
    #: Every knob a caller may set, with its default (``duration`` among
    #: them); a report field of the same name is filled from it.
    defaults: dict[str, Any]
    #: ``phase(seed, *, engine, witness, **knobs)`` -> the report's phase.
    phase: Callable[..., CampaignPhase]
    report: type[CampaignReport]
    #: ``objectives()`` -> the SLO objectives the phase's engine watches.
    objectives: Callable[[], Any]
    #: ``checks(report)`` -> the campaign's own violations.
    checks: Callable[[Any], Iterable[str]]
    #: ``witness_checks(report)`` -> the violations read off ``report.witness``.
    witness_checks: Callable[[Any], Iterable[str]] = lambda report: ()

    def run(
        self, seed: int, *, verify_determinism: bool = True, **overrides: Any
    ) -> CampaignReport:
        """Merge ``overrides`` onto the defaults (one merge, no per-knob
        fallbacks; an unknown knob is a ``TypeError``), double-run the phase
        under a fresh SLO engine and witness, build the report, append the
        campaign's checks, ``conclude``, then append the checks that read
        the witness verdict."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise TypeError(
                f"the {self.name} campaign has no knob {', '.join(unknown)} "
                f"(its knobs: {', '.join(self.defaults)}, verify_determinism)"
            )
        knobs = {**self.defaults, **overrides}
        outcome = verify_double_run(
            lambda engine, certifier: self.phase(
                seed, engine=engine, witness=certifier, **knobs
            ),
            make_engine=lambda: slo_engine(self.objectives(), knobs["duration"]),
            verify=verify_determinism,
        )
        names = {item.name for item in fields(self.report)}
        report = self.report(
            seed=seed,
            **{self.report.PHASE: outcome.result},
            **{name: value for name, value in knobs.items() if name in names},
        )
        report.violations.extend(self.checks(report))
        report.conclude(outcome)
        report.violations.extend(self.witness_checks(report))
        return report


@dataclass(frozen=True)
class CampaignCLI:
    """One ``python -m repro drill --campaign`` value, declared by the
    module that owns the campaign (column by column in ``docs/faults.md``,
    "Anatomy of a table row"); the report renders its own row."""

    #: Called as ``run(seed=..., duration=..., **knobs(args))``.
    run: Callable[..., Any]
    banner: Callable[[argparse.Namespace, dict[str, Any]], str]
    #: The campaign-specific flag dests it consumes (beyond the common
    #: ones); passing any other campaign's flag is a usage error.
    flags: tuple[str, ...] = ()
    #: parsed args -> the runner's knobs beyond seed/duration.
    knobs: Callable[[argparse.Namespace], dict[str, Any]] = lambda args: {}
    #: Flag dest -> the least value the campaign can run with.
    minimum: dict[str, int] = field(default_factory=dict)
    #: The runner's ``protocol`` values to sweep the seeds over (``(None,)``:
    #: it takes no such keyword), and the summary line's
    #: ``<runs> <noun>, <totals(reports)><failed> failed``.
    variants: Callable[[argparse.Namespace], tuple] = lambda args: (None,)
    noun: str = "campaigns"
    totals: Callable[[list], str] = lambda reports: ""


def cli_spec(args: argparse.Namespace, base: FaultSpec) -> FaultSpec:
    """The campaign's own fault mix, overridden by the flags that were passed."""
    passed = {
        name: getattr(args, name)
        for name in ("drop", "duplicate", "delay_spike")
        if getattr(args, name) is not None
    }
    return replace(base, **passed)


def spec_text(spec: FaultSpec) -> str:
    return f"spec=(drop={spec.drop}, dup={spec.duplicate}, spike={spec.delay_spike})"


# -- the phase scaffold ---------------------------------------------------------------


class PhaseRun:
    """One phase's simulation: clock, seeded streams, observers, clients.

    ``engine``/``witness`` ride the phase through an
    :class:`~repro.obs.pipeline.ObsPipeline` (which degrades to the null
    tracer when neither — nor a ``ring`` — is requested).
    """

    def __init__(
        self,
        seed: int,
        *,
        engine: Any | None = None,
        witness: Any | None = None,
        ring: int | None = None,
    ):
        self.seed = seed
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.pipeline = ObsPipeline(
            sim=self.sim, ring=ring, engine=engine, witness=witness
        )
        self.tracer = self.pipeline.tracer

    def courier(
        self,
        rate: float,
        *,
        spec: FaultSpec | None = None,
        retry: RetryPolicy | None = None,
    ) -> FaultyCourier:
        """A faulty courier on this phase's clock whose per-message latency
        is exponential at ``rate`` from the seeded ``latency`` stream.
        Without a ``spec`` the schedule is clean: the only faults are the
        ones the campaign injects explicitly."""
        latency_rng = self.streams.stream("latency")
        return FaultyCourier(
            schedule=FaultSchedule(spec=spec, seed=self.seed),
            retry=retry,
            sim=self.sim,
            latency=lambda: latency_rng.expovariate(rate),
        )

    def spawn(self, name: str, count: int, client: Callable[[int], Generator]) -> None:
        """Spawn ``client(0..count-1)`` as processes ``<name>-<i>``."""
        for i in range(count):
            self.sim.spawn(client(i), name=f"{name}-{i}")

    def quiesce(self, shippers: Iterable[Any], caught_up: Callable[[], bool]) -> None:
        """Drain after the clients stop: re-ship anything unacknowledged
        until every replica holds the full durable log (the extra rounds
        cover acks lost in the final drain)."""
        for _ in range(3):
            for shipper in shippers:
                shipper.catch_up_all()
            self.sim.run()
            if caught_up():
                break

    def wedged(self) -> list[str]:
        """Names of the processes still suspended — hung clients."""
        return [process.name for process in self.sim.blocked_processes()]

    def settle(self, phase: CampaignPhase) -> None:
        """Close the observers (finishing the engine's last window) and
        record how the simulation ended."""
        self.pipeline.close()
        phase.wedged = self.wedged()
        phase.events_dispatched = self.sim.events_dispatched

    def prober(
        self,
        until: float,
        interval: float,
        primary: Callable[[], Any],
        key: str,
        windows: list[float],
        violations: list[str],
        event: str,
        label: str = "",
        lead: tuple[Any, ...] = (),
    ) -> Generator:
        """Measure write availability: one tiny RW commit per tick.

        An outage opens at the begin-time of the first failed probe and
        closes at the first subsequent success; each window is appended to
        ``windows`` and emitted as one ``event`` for the SLO engine: its
        ``lead`` fields, then ``duration`` and ``healed_at``.  An outage
        still open at ``until`` is a violation.
        """
        sim, tracer = self.sim, self.tracer
        outage_start: float | None = None

        def probe():
            nonlocal outage_start
            db = primary()
            started = sim.now
            txn = db.begin()
            try:
                yield db.write(txn, key, started)
                yield db.commit(txn)
                if outage_start is not None:
                    window = sim.now - outage_start
                    windows.append(window)
                    if tracer.enabled:
                        tracer.emit(event, *lead, window, sim.now)
                    outage_start = None
            except TransactionAborted:
                if txn.is_active:
                    db.abort(txn)
                if outage_start is None:
                    outage_start = started

        yield from closed_loop(sim, until, lambda: interval, probe)
        if outage_start is not None:
            violations.append(
                f"{label}write availability never restored (outage open since "
                f"{outage_start:g})"
            )


# -- client-loop pieces ---------------------------------------------------------------


def backoff_loop(
    sim: Simulator,
    until: float,
    gap: Callable[[], float],
    begin: Callable[[], Any],
    attempt: Callable[[Any], Generator],
    shed: Callable[[], Any],
    jitter: Any,
) -> Generator:
    """A closed-loop client behind admission control: ``begin()`` may be
    shed with :class:`~repro.errors.Overloaded`, which calls ``shed()`` and
    backs off one :class:`~repro.qos.retry.Retry` delay drawn from seeded
    ``jitter`` before going back to the loop; an admitted transaction runs
    ``attempt(txn)`` and resets the back-off."""
    retry = Retry(BackoffPolicy(base=0.5, factor=2.0, cap=8.0, jitter=0.5), jitter)

    def once():
        try:
            txn = begin()
        except Overloaded as error:
            shed()
            yield retry.failed(error)
            return
        retry.reset()
        yield from attempt(txn)

    return closed_loop(sim, until, gap, once)


def rw_attempt(
    db: Any,
    txn: Any,
    keys: Iterable[Any],
    service: Callable[[], float] | None = None,
    commit: Callable[[], Generator] | None = None,
) -> Generator:
    """Read-increment-write each of ``keys`` in turn in the begun ``txn``,
    after ``service()`` time, then commit: ``commit()`` when given (a
    generator function), else ``yield db.commit(txn)``.  Returns ``None`` on
    commit and the error on abort.

    A client absorbs ``TransactionAborted``: a lock victim, a missed
    deadline, a site failure, a fenced or indeterminate quorum commit, a
    2PC timeout through a pending future, or the next operation's entry
    guard when the fault path aborted ``txn`` while the client slept.
    ``txn`` is aborted only if still active: the fault path may have
    finished it already.
    """
    try:
        for key in keys:
            if service is not None:
                yield service()
            value = yield db.read(txn, key)
            yield db.write(txn, key, (value or 0) + 1)
        if commit is None:
            yield db.commit(txn)
        else:
            yield from commit()
    except TransactionAborted as error:
        if txn.is_active:
            db.abort(txn)
        return error
    return None


def acked_commit(db: Any, txn: Any, note_ack: Callable[[int], Any]) -> Any:
    """Enter ``txn``'s commit and return its future; ``note_ack(tn)`` fires
    if it succeeds.

    The acknowledgement is recorded at *resolution* time (synchronous with
    the local force in async replication, with the majority ack in quorum
    mode — the exact event a durability promise is about), not at the
    committing generator's next resumption, so a fail-over landing between
    the two cannot undercount.
    """
    done = db.commit(txn)
    done.add_callback(
        lambda future: (
            note_ack(txn.tn) if not future.failed and txn.tn is not None else None
        )
    )
    return done
