"""The streaming SLO engine: signals, tumbling windows, hysteresis, verdicts.

:class:`SLOEngine` is a tracer *exporter* — plug it into any
:class:`~repro.obs.tracer.Tracer` (directly or via
:class:`~repro.obs.pipeline.ObsPipeline`) and it evaluates its objectives
online, in virtual time, while the run is still going.  Replay is the same
call: :meth:`export` takes the tracer's event record, live or rebuilt from
a JSONL line (``python -m repro watch``), and — because every judgment
depends only on event names, timestamps, and field values — two replays of
the same trace produce byte-identical reports and bundles.  Live and on
replay (:func:`repro.obs.tracer.replay`) an event reaches the engine only
when :meth:`route` subscribes to its name — a ``_DISPATCH`` name, or every
name while a flight recorder is attached — so ``events_seen`` counts the
events routed to it, and only those move the window clock.

**Signal taxonomy.**  Raw events are reduced to named signal samples; an
objective subscribes to signals, never to events:

=================  ==============================================================
signal             derivation
=================  ==============================================================
``latency.ro`` / ``latency.rw``
                   ``txn.begin`` → ``txn.commit`` pairing, per class
``blocked.ro`` / ``blocked.rw``
                   each ``txn.block``, per class
``begin.*`` etc.   1 per ``txn.begin`` / ``txn.commit`` / ``txn.abort``, per class
``lock.wait_depth``  live count of lock-blocked txns, sampled on every change
                   (``lock.block`` in; waited ``lock.grant``, commit, abort out)
``shed.rw``        each ``qos.shed`` (admission gates read-write only)
``shed.ro``        each ``slo.ro_shed`` (emitted by a campaign iff the
                   impossible happens — a tripwire, structurally zero)
``vc.lag``         the ``lag`` field of every ``vc.register`` /
                   ``vc.advance`` / ``vc.discard``
``staleness.ro``   ``staleness`` of ``qos.ro_snapshot`` / ``replica.ro_snapshot``
``staleness.replica``  ``staleness`` of every ``replica.watermark``
``replica.lag``    the ``lag`` field of every ``replica.lag``
``gc.live_versions`` / ``gc.max_chain`` / ``gc.scanned`` / ``gc.interior``
                   the ``live_versions`` / ``max_chain`` / ``scanned`` /
                   ``interior`` fields of every ``gc.sweep``
``snapshot.revoked``  each ``snapshot.revoked`` (lease revocation under
                   memory pressure or TTL expiry — expected under drills)
``avail.outage``   the ``duration`` of every ``avail.outage`` (a write-
                   availability prober's measured unavailability window)
``quorum.fenced`` / ``quorum.indeterminate``
                   1 per fenced / quorum-timeout commit (quorum mode)
``shard.staleness``  ``staleness`` of every ``shard.snapshot`` (vector
                   sweep cost in committed-transaction ticks, worst shard)
``shard.vc_lag``   the ``queue`` field of every ``shard.commit`` (held
                   commits at the shard at cross-shard commit time)
``shard.ro_blocked`` / ``shard.vector_inconsistent`` / ``shard.failover``
                   1 per blocked vector read / torn vector / fail-over
``shard.outage``   the ``duration`` of every ``shard.outage`` (per-shard
                   write-availability prober window)
=================  ==============================================================

Every row from ``shed.rw`` down is stateless — a field of one event, or a
count of it — and is routed by the :data:`SIGNAL_ROUTES` table; the rows
above it pair or track events and are methods.

**Windows.**  Virtual time is chopped into tumbling windows of width
``window``; window ``k`` is ``[k*W, (k+1)*W)``.  A timestamp *regression*
(the next drill of a campaign restarting its simulator at 0) closes the
current window, resets the pairing state, and restarts the window clock —
objective baselines and hysteresis streaks survive across the seam.

**Verdicts.**  Each closed window asks every objective for a
:class:`~repro.obs.slo.objectives.WindowVerdict`; hysteresis turns
consecutive violations into a :class:`Breach`.  A breach triggers the
flight recorder (if attached): the bundle captures the breach window plus
pre-roll, blocking chains, the critical-path profile, and a counter
snapshot — the cause at the moment it happened.  ``ok`` means *no
unexpected breach*: objectives marked ``expected=True`` (anomaly
watchdogs under injected faults) report without failing the run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs.events import positions
from repro.obs.slo.objectives import Objective, WindowVerdict

SLO_SCHEMA = "repro.slo/1"

#: Stateless signal routing: event name -> ((field, signal), ...).  Each
#: entry turns the event's ``field`` value into one sample of ``signal``
#: (no sample when its value is ``None``); a ``None`` field means the
#: constant 1.0, one count per event.  Each engine turns a field into its
#: position in the record once, at construction.  The stateful ``txn.*``
#: and ``lock.*`` families are handled by methods (``_DISPATCH``, below the
#: class, holds both).  The taxonomy table above and in docs/slo.md is
#: checked against this table (tests/obs/test_slo.py).
SIGNAL_ROUTES: dict[str, tuple[tuple[str | None, str], ...]] = {
    "qos.shed": ((None, "shed.rw"),),
    "slo.ro_shed": ((None, "shed.ro"),),
    "vc.register": (("lag", "vc.lag"),),
    "vc.advance": (("lag", "vc.lag"),),
    "vc.discard": (("lag", "vc.lag"),),
    "qos.ro_snapshot": (("staleness", "staleness.ro"),),
    "replica.ro_snapshot": (("staleness", "staleness.ro"),),
    "replica.watermark": (("staleness", "staleness.replica"),),
    "replica.lag": (("lag", "replica.lag"),),
    "gc.sweep": (
        ("live_versions", "gc.live_versions"),
        ("max_chain", "gc.max_chain"),
        ("scanned", "gc.scanned"),
        ("interior", "gc.interior"),
    ),
    "snapshot.revoked": ((None, "snapshot.revoked"),),
    "avail.outage": (("duration", "avail.outage"),),
    "quorum.fenced": ((None, "quorum.fenced"),),
    "quorum.indeterminate": ((None, "quorum.indeterminate"),),
    "shard.snapshot": (("staleness", "shard.staleness"),),
    "shard.commit": (("queue", "shard.vc_lag"),),
    "shard.ro_blocked": ((None, "shard.ro_blocked"),),
    "shard.vector_inconsistent": ((None, "shard.vector_inconsistent"),),
    "shard.failover": ((None, "shard.failover"),),
    "shard.outage": (("duration", "shard.outage"),),
}

#: Where the stateful handlers find their fields (the registry's order, read
#: once here): every ``txn.*`` name leads with ``txn, cls``, and both lock
#: names with ``txn``.
_TXN, _CLS = positions("txn.begin", "txn", "cls")
(_LOCK_TXN,) = positions("lock.block", "txn")
(_GRANT_WAITED,) = positions("lock.grant", "waited")

#: More empty windows than this between two events is fast-forwarded as a
#: seam instead of closed one by one (guards pathological window widths).
_GAP_LIMIT = 4096


@dataclass
class Breach:
    """One objective entering breach state at one window boundary."""

    objective: str
    kind: str
    expected: bool
    window_start: float
    window_end: float
    value: float
    threshold: str
    cleared_at: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective,
            "kind": self.kind,
            "expected": self.expected,
            "window": [round(self.window_start, 9), round(self.window_end, 9)],
            "value": round(self.value, 9),
            "threshold": self.threshold,
            "cleared_at": (
                round(self.cleared_at, 9) if self.cleared_at is not None else None
            ),
        }


class _ObjectiveState:
    __slots__ = (
        "status", "bad_streak", "good_streak",
        "windows", "violations", "breaches", "worst", "last",
    )

    def __init__(self) -> None:
        self.status = "ok"
        self.bad_streak = 0
        self.good_streak = 0
        self.windows = 0
        self.violations = 0
        self.breaches = 0
        self.worst: float | None = None
        self.last: float | None = None


class SLOEngine:
    """Evaluate declarative objectives over a live or replayed event stream."""

    def __init__(
        self,
        objectives: Iterable[Objective],
        *,
        window: float = 25.0,
        recorder: Any | None = None,
        bundle_dir: str | None = None,
        bundle_prefix: str = "slo",
        max_bundles: int = 8,
    ):
        if window <= 0:
            raise ValueError("window width must be > 0")
        self.objectives = list(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.window = float(window)
        self.recorder = recorder
        self.bundle_dir = bundle_dir
        self.bundle_prefix = bundle_prefix
        self.max_bundles = max_bundles
        self.breaches: list[Breach] = []
        self.bundles: list[dict] = []
        self.bundle_paths: list[str] = []
        self.windows_closed = 0
        self.events_seen = 0
        self.finished = False
        self._routes: dict[str, list[Objective]] = {}
        for objective in self.objectives:
            for signal in objective.signals:
                self._routes.setdefault(signal, []).append(objective)
        #: ``_DISPATCH`` with each SIGNAL_ROUTES entry narrowed to the signals
        #: an objective takes, as ``(position, signal, objectives)``: the
        #: field's position in the record, or ``None`` for a count.
        self._dispatch: dict[str, Any] = {
            name: route if type(route) is not tuple else tuple(
                (field and positions(name, field)[0], signal, tuple(self._routes[signal]))
                for field, signal in route
                if signal in self._routes
            )
            for name, route in _DISPATCH.items()
        }
        #: Per transaction class, its ``txn.*`` signals and their objectives,
        #: resolved on the class's first event.
        self._class_signals: dict[str, _ClassSignals] = {}
        self._states = {o.name: _ObjectiveState() for o in self.objectives}
        self._begin_ts: dict[Any, float] = {}
        self._begin_cls: dict[Any, str] = {}
        self._lock_blocked: set[Any] = set()
        self._win: int | None = None
        #: The least timestamp past window ``_win``; -inf before the first.
        self._win_end = -math.inf
        self._last_ts = -math.inf

    # -- the one entry point: live and replay --------------------------------------

    def route(self, name: str) -> Callable[[tuple], None] | None:
        """Tracer subscription: the names ``_DISPATCH`` holds — or every
        name while a flight recorder needs the whole stream."""
        if self.recorder is not None or name in _DISPATCH:
            return self.export
        return None

    def export(self, event: tuple) -> None:
        """Take one event record, live or replayed
        (:func:`repro.obs.tracer.replay`); its fields are read by position."""
        if self.finished:
            return  # still on a shared tracer after finish(): nothing to do
        self.events_seen += 1
        name, ts, fields, _optional, _span = event
        if self._last_ts <= ts < self._win_end:
            self._last_ts = ts  # same window, clock not behind
        else:
            self._advance(ts)
        if self.recorder is not None:
            self.recorder.export(event)
        if name == "lock.grant" and not fields[_GRANT_WAITED]:
            return  # an immediate grant changes no wait depth
        route = self._dispatch.get(name)
        if type(route) is tuple:  # a SIGNAL_ROUTES entry
            for at, signal, objectives in route:
                value = 1.0 if at is None else fields[at]
                if value is not None:
                    for objective in objectives:
                        objective.observe(signal, value)
        elif route is not None:  # a stateful name's method
            route(self, name, ts, fields)

    def close(self) -> None:
        """Tracer-close hook: finish evaluation (idempotent)."""
        self.finish()

    # -- event processing ----------------------------------------------------------

    def _resolve_class(self, cls: str) -> _ClassSignals:
        signals = self._class_signals[cls] = _ClassSignals(cls, self._routes)
        return signals

    def _txn_begin(self, name: str, ts: float, fields: tuple) -> None:
        txn = fields[_TXN]
        cls = fields[_CLS] or self._begin_cls.get(txn) or "rw"
        signals = self._class_signals.get(cls) or self._resolve_class(cls)
        if txn is not None:
            self._begin_ts[txn] = ts
            self._begin_cls[txn] = cls
        signal, objectives = signals.begin
        for objective in objectives:
            objective.observe(signal, 1.0)

    def _txn_commit(self, name: str, ts: float, fields: tuple) -> None:
        txn = fields[_TXN]
        cls = fields[_CLS] or self._begin_cls.get(txn) or "rw"
        signals = self._class_signals.get(cls) or self._resolve_class(cls)
        begun = self._begin_ts.pop(txn, None)
        self._begin_cls.pop(txn, None)
        if begun is not None:
            signal, objectives = signals.latency
            for objective in objectives:
                objective.observe(signal, ts - begun)
        signal, objectives = signals.commit
        for objective in objectives:
            objective.observe(signal, 1.0)
        if txn in self._lock_blocked:
            self._unblock(txn)

    def _txn_abort(self, name: str, ts: float, fields: tuple) -> None:
        txn = fields[_TXN]
        cls = fields[_CLS] or self._begin_cls.get(txn) or "rw"
        signals = self._class_signals.get(cls) or self._resolve_class(cls)
        self._begin_ts.pop(txn, None)
        self._begin_cls.pop(txn, None)
        signal, objectives = signals.abort
        for objective in objectives:
            objective.observe(signal, 1.0)
        if txn in self._lock_blocked:
            self._unblock(txn)

    def _txn_block(self, name: str, ts: float, fields: tuple) -> None:
        cls = fields[_CLS] or self._begin_cls.get(fields[_TXN]) or "rw"
        signals = self._class_signals.get(cls) or self._resolve_class(cls)
        signal, objectives = signals.blocked
        for objective in objectives:
            objective.observe(signal, 1.0)

    def _lock_event(self, name: str, ts: float, fields: tuple) -> None:
        txn = fields[_LOCK_TXN]
        if txn is None:
            return
        if name == "lock.block":
            self._lock_blocked.add(txn)
            self._signal("lock.wait_depth", float(len(self._lock_blocked)))
        elif txn in self._lock_blocked:  # a waited lock.grant
            self._unblock(txn)

    def _unblock(self, txn: Any) -> None:
        self._lock_blocked.discard(txn)
        self._signal("lock.wait_depth", float(len(self._lock_blocked)))

    def _signal(self, signal: str, value: float) -> None:
        for objective in self._routes.get(signal, ()):
            objective.observe(signal, value)

    # -- windowing -----------------------------------------------------------------

    def _advance(self, ts: float) -> None:
        if self._win is None:
            self._win = math.floor(ts / self.window)
        elif ts < self._last_ts - 1e-9:
            # Virtual clock restarted (next drill in a campaign sharing this
            # engine): close the window in progress, drop cross-run pairing
            # state, restart the window clock.  Baselines and streaks live on.
            self._close_window(self._win)
            self._begin_ts.clear()
            self._begin_cls.clear()
            self._lock_blocked.clear()
            self._win = math.floor(ts / self.window)
        else:
            index = math.floor(ts / self.window)
            if index - self._win > _GAP_LIMIT:
                self._close_window(self._win)
                self._win = index
            while index > self._win:
                self._close_window(self._win)
                self._win += 1
        self._last_ts = ts
        self._win_end = self._window_end(self._win)

    def _window_end(self, index: int) -> float:
        """The least timestamp ``math.floor(ts / window)`` puts past window
        ``index``, so that ``ts < end`` asks what the division would."""
        window = self.window
        end = (index + 1) * window
        while math.floor(end / window) <= index:
            end = math.nextafter(end, math.inf)
        while math.floor(math.nextafter(end, -math.inf) / window) > index:
            end = math.nextafter(end, -math.inf)
        return end

    def _close_window(self, index: int) -> None:
        start = index * self.window
        end = start + self.window
        self.windows_closed += 1
        for objective in self.objectives:
            verdict = objective.close_window()
            if verdict.value is None:
                continue
            state = self._states[objective.name]
            state.windows += 1
            state.last = verdict.value
            if state.worst is None or verdict.value > state.worst:
                state.worst = verdict.value
            if verdict.violated:
                state.violations += 1
                state.bad_streak += 1
                state.good_streak = 0
                if (
                    state.status == "ok"
                    and state.bad_streak >= objective.hysteresis.breach_after
                ):
                    state.status = "breached"
                    state.breaches += 1
                    self._on_breach(objective, verdict, start, end)
            else:
                state.good_streak += 1
                state.bad_streak = 0
                if (
                    state.status == "breached"
                    and state.good_streak >= objective.hysteresis.clear_after
                ):
                    state.status = "ok"
                    for breach in reversed(self.breaches):
                        if breach.objective == objective.name and breach.cleared_at is None:
                            breach.cleared_at = end
                            break

    def _on_breach(
        self, objective: Objective, verdict: WindowVerdict, start: float, end: float
    ) -> None:
        breach = Breach(
            objective=objective.name,
            kind=objective.kind,
            expected=objective.expected,
            window_start=start,
            window_end=end,
            value=verdict.value if verdict.value is not None else 0.0,
            threshold=verdict.threshold,
        )
        self.breaches.append(breach)
        if self.recorder is None or len(self.bundles) >= self.max_bundles:
            return
        # Pre-roll one extra window: the cause usually precedes the window
        # whose verdict finally tripped the hysteresis.
        pre_roll = self.window * max(1, objective.hysteresis.breach_after)
        bundle = self.recorder.bundle(breach, pre_roll=pre_roll)
        self.bundles.append(bundle)
        if self.bundle_dir is not None:
            os.makedirs(self.bundle_dir, exist_ok=True)
            path = os.path.join(
                self.bundle_dir,
                f"{self.bundle_prefix}_{len(self.bundles):03d}_{objective.name}.jsonl",
            )
            self.recorder.write_bundle(bundle, path)
            self.bundle_paths.append(path)

    # -- verdicts ------------------------------------------------------------------

    def finish(self) -> None:
        """Close the in-progress (partial) window and freeze the engine."""
        if self.finished:
            return
        if self._win is not None:
            self._close_window(self._win)
            self._win = None
            self._win_end = -math.inf
        self.finished = True

    @property
    def unexpected_breaches(self) -> list[Breach]:
        return [b for b in self.breaches if not b.expected]

    @property
    def expected_breaches(self) -> list[Breach]:
        return [b for b in self.breaches if b.expected]

    @property
    def ok(self) -> bool:
        return not self.unexpected_breaches

    def report(self) -> dict[str, Any]:
        """Deterministic verdict block — a pure function of the event stream.

        Deliberately excludes bundle *paths* and wall-clock anything, so
        two same-trace replays compare equal with ``==`` or as JSON bytes.
        """
        objectives: dict[str, Any] = {}
        for objective in self.objectives:
            state = self._states[objective.name]
            entry = objective.spec()
            entry.update(
                status=state.status,
                windows=state.windows,
                violations=state.violations,
                breaches=state.breaches,
                worst=round(state.worst, 9) if state.worst is not None else None,
                last=round(state.last, 9) if state.last is not None else None,
            )
            objectives[objective.name] = entry
        return {
            "schema": SLO_SCHEMA,
            "window": self.window,
            "windows_closed": self.windows_closed,
            "events_seen": self.events_seen,
            "ok": self.ok,
            "breaches": [b.as_dict() for b in self.breaches],
            "objectives": objectives,
        }

    def render(self) -> str:
        """Human-readable verdict table for the CLI."""
        report = self.report()
        verdict = "ok" if report["ok"] else "BREACHED"
        lines = [
            f"slo verdict: {verdict} — {len(self.breaches)} breach(es) "
            f"({len(self.unexpected_breaches)} unexpected) over "
            f"{report['windows_closed']} windows of {self.window:g} time units"
        ]
        width = max((len(n) for n in report["objectives"]), default=4)
        for name, entry in report["objectives"].items():
            status = entry["status"] if entry["breaches"] else (
                "ok" if entry["violations"] == 0 else "noisy"
            )
            worst = entry["worst"]
            lines.append(
                f"  {name:<{width}}  {status:<8}  "
                f"windows={entry['windows']:<5d} violations={entry['violations']:<4d} "
                f"breaches={entry['breaches']:<3d} "
                f"worst={worst if worst is not None else '-'}  "
                f"[{entry['threshold']}]"
            )
        for breach in self.breaches:
            tag = "expected" if breach.expected else "UNEXPECTED"
            cleared = (
                f" cleared@{breach.cleared_at:g}"
                if breach.cleared_at is not None
                else " (never cleared)"
            )
            lines.append(
                f"  breach [{tag}] {breach.objective} @"
                f"[{breach.window_start:g}, {breach.window_end:g}) "
                f"value={breach.value:g} vs {breach.threshold}{cleared}"
            )
        return "\n".join(lines)


class _ClassSignals:
    """The ``txn.*`` signals of one transaction class, each paired with the
    objectives it feeds."""

    __slots__ = ("begin", "latency", "commit", "abort", "blocked")

    def __init__(self, cls: str, routes: dict[str, list[Objective]]):
        for kind in self.__slots__:
            signal = f"{kind}.{cls}"
            setattr(self, kind, (signal, tuple(routes.get(signal, ()))))


#: The one lookup an event takes: its SIGNAL_ROUTES entry, or the method that
#: pairs or tracks it (the stateful names; any other ``txn.*``/``lock.*``
#: name carries no signal).  Its keys are the engine's subscription; each
#: engine narrows the routes to its objectives (``SLOEngine._dispatch``).
_DISPATCH: dict[str, Any] = {
    **SIGNAL_ROUTES,
    "txn.begin": SLOEngine._txn_begin,
    "txn.commit": SLOEngine._txn_commit,
    "txn.abort": SLOEngine._txn_abort,
    "txn.block": SLOEngine._txn_block,
    **dict.fromkeys(("lock.block", "lock.grant"), SLOEngine._lock_event),
}
