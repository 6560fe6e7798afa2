"""The streaming SLO engine: signals, tumbling windows, hysteresis, verdicts.

:class:`SLOEngine` is a tracer *exporter* — plug it into any
:class:`~repro.obs.tracer.Tracer` (directly or via
:class:`~repro.obs.pipeline.ObsPipeline`) and it evaluates its objectives
online, in virtual time, while the run is still going.  Replay is the same
call: :meth:`export` takes the tracer's event dict live and a decoded JSONL
line on replay (``python -m repro watch``), and — because every judgment
depends only on event names, timestamps, and field values — two replays of
the same trace produce byte-identical reports and bundles.

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
                   the ``live_versions`` / ``max_chain`` gauges and the
                   ``scanned`` / ``interior`` cost counters on every ``gc.sweep``
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
from typing import Any, Iterable

from repro.obs.slo.objectives import Objective, WindowVerdict

SLO_SCHEMA = "repro.slo/1"

#: Stateless signal routing: event name -> ((field, signal), ...).  Each
#: entry turns the event's ``field`` value into one sample of ``signal``
#: (no sample when the field is absent); a ``None`` field means the constant
#: 1.0, one count per event.  The stateful ``txn.*`` and ``lock.*`` families
#: are handled by methods (``_DISPATCH``, below the class, holds both).  The
#: taxonomy table above and in docs/slo.md is checked against this table
#: (tests/obs/test_slo.py).
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
        self._states = {o.name: _ObjectiveState() for o in self.objectives}
        self._begin_ts: dict[Any, float] = {}
        self._begin_cls: dict[Any, str] = {}
        self._lock_blocked: set[Any] = set()
        self._win: int | None = None
        self._last_ts = -math.inf

    # -- the one entry point: live and replay --------------------------------------

    def export(self, event: dict[str, Any]) -> None:
        """Take one event: the tracer's dict live, a decoded trace line on
        replay (:func:`~repro.obs.analyze.load_trace` checked it)."""
        if self.finished:
            return  # still on a shared tracer after finish(): nothing to do
        self.events_seen += 1
        ts = event["ts"]
        if ts >= self._last_ts and math.floor(ts / self.window) == self._win:
            self._last_ts = ts  # same window, clock not behind
        else:
            self._advance(ts)
        if self.recorder is not None:
            self.recorder.export(event)
        name = event["name"]
        route = _DISPATCH.get(name)
        if type(route) is tuple:  # a SIGNAL_ROUTES entry
            for field, signal in route:
                value = 1.0 if field is None else event.get(field)
                if value is not None:
                    self._signal(signal, value)
        elif route is not None:  # a stateful name's method
            route(self, name, ts, event)

    def close(self) -> None:
        """Tracer-close hook: finish evaluation (idempotent)."""
        self.finish()

    # -- event processing ----------------------------------------------------------

    def _txn_event(self, name: str, ts: float, fields: dict[str, Any]) -> None:
        txn = fields.get("txn")
        cls = fields.get("cls") or self._begin_cls.get(txn) or "rw"
        if name == "txn.begin":
            if txn is not None:
                self._begin_ts[txn] = ts
                self._begin_cls[txn] = cls
            self._signal(f"begin.{cls}", 1.0)
        elif name == "txn.commit":
            begun = self._begin_ts.pop(txn, None)
            self._begin_cls.pop(txn, None)
            if begun is not None:
                self._signal(f"latency.{cls}", ts - begun)
            self._signal(f"commit.{cls}", 1.0)
            self._unblock(txn)
        elif name == "txn.abort":
            self._begin_ts.pop(txn, None)
            self._begin_cls.pop(txn, None)
            self._signal(f"abort.{cls}", 1.0)
            self._unblock(txn)
        elif name == "txn.block":
            self._signal(f"blocked.{cls}", 1.0)

    def _lock_event(self, name: str, ts: float, fields: dict[str, Any]) -> None:
        txn = fields.get("txn")
        if txn is None:
            return
        if name == "lock.block":
            self._lock_blocked.add(txn)
            self._signal("lock.wait_depth", float(len(self._lock_blocked)))
        elif name == "lock.grant" and fields.get("waited"):
            self._unblock(txn)

    def _unblock(self, txn: Any) -> None:
        if txn in self._lock_blocked:
            self._lock_blocked.discard(txn)
            self._signal("lock.wait_depth", float(len(self._lock_blocked)))

    def _signal(self, signal: str, value: float) -> None:
        for objective in self._routes.get(signal, ()):
            objective.observe(signal, value)

    # -- windowing -----------------------------------------------------------------

    def _advance(self, ts: float) -> None:
        if self._win is None:
            self._win = math.floor(ts / self.window)
            self._last_ts = ts
            return
        if ts < self._last_ts - 1e-9:
            # Virtual clock restarted (next drill in a campaign sharing this
            # engine): close the window in progress, drop cross-run pairing
            # state, restart the window clock.  Baselines and streaks live on.
            self._close_window(self._win)
            self._begin_ts.clear()
            self._begin_cls.clear()
            self._lock_blocked.clear()
            self._win = math.floor(ts / self.window)
            self._last_ts = ts
            return
        self._last_ts = ts
        index = math.floor(ts / self.window)
        if index - self._win > _GAP_LIMIT:
            self._close_window(self._win)
            self._win = index
            return
        while index > self._win:
            self._close_window(self._win)
            self._win += 1

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


#: The one lookup an event takes: its SIGNAL_ROUTES entry, or the method that
#: pairs or tracks it (the stateful names; any other ``txn.*``/``lock.*``
#: name carries no signal).
_DISPATCH: dict[str, Any] = {
    **SIGNAL_ROUTES,
    **dict.fromkeys(
        ("txn.begin", "txn.commit", "txn.abort", "txn.block"), SLOEngine._txn_event
    ),
    **dict.fromkeys(("lock.block", "lock.grant"), SLOEngine._lock_event),
}
