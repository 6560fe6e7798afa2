"""Deterministic discrete-event simulation engine.

This is the substitution for real concurrent hardware (see DESIGN.md): the
paper's claims concern protocol-level effects — who blocks, who aborts, how
stale a snapshot is — which are properties of the operation interleaving,
not of wall-clock parallelism.  A virtual-time event loop produces exactly
those interleavings, reproducibly under a seed, with every event observable.

Processes are plain generators.  A process yields:

* a finite, non-negative number — sleep that many virtual time units;
* an :class:`~repro.core.futures.OpFuture` — suspend until it settles; the
  yield expression evaluates to the future's value, or the future's failure
  exception is thrown into the generator at the suspension point.

Resumptions after a future settles are *scheduled*, never run inline from
its callback, so scheduler internals are not re-entered while they resolve
futures.

The queue holds *records* ``(target, value, error)``: ``target`` is a
:class:`Process` to resume with ``value`` (or to throw ``error`` into), or a
plain callable to call.  Records due later sit on a heap keyed
``(when, seq)``; records due at ``now`` — a spawn, ``call_in(0)``, every
resumption on a settled future — go to a FIFO beside it, because a
zero-delay event always sorts after everything already queued for this
instant and before anything later.  :meth:`Simulator.run` is one loop over
both; a settled yield with nothing else due resumes in place, as its record
would be popped next anyway (DESIGN.md, "Simulation driver").

:func:`closed_loop` is the arrival rule every closed-loop client process
shares: think, then start only while still before the deadline.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from math import inf
from typing import Any, Callable, Generator

from repro.core.futures import OpFuture, OpStatus
from repro.obs.tracer import NULL_TRACER, Tracer

_PENDING = OpStatus.PENDING


class SimError(Exception):
    """Raised for simulation misuse (bad yields, running a finished sim)."""


class Process:
    """Handle for a running simulated process."""

    __slots__ = ("name", "generator", "finished", "result", "error", "_ready")

    def __init__(self, name: str, generator: Generator):
        self.name = name
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self.error: BaseException | None = None
        self._ready: deque | None = None  # its simulator's "now" queue; spawn sets it

    def _resume_with(self, future: OpFuture) -> None:
        """Settle callback of the future this process is parked on: resume
        via the event queue (same timestamp), never inline."""
        self._ready.append((self, future._value, future._error))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Virtual-clock event loop.

    Args:
        tracer: optional structured-event tracer; when enabled, the
            simulator emits ``sim.spawn`` / ``sim.process.end`` /
            ``sim.process.error`` events stamped with virtual time, so a
            trace shows exactly when each client entered and left the run.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.now = 0.0
        self._sequence = itertools.count()
        #: Records due after ``now``: ``(when, seq, target, value, error)``.
        self._heap: list[tuple] = []
        #: Records due at ``now``, in arrival order: ``(target, value, error)``.
        self._ready: deque[tuple] = deque()
        self.processes: list[Process] = []
        #: Total events dispatched (a determinism fingerprint for tests).
        self.events_dispatched = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- scheduling primitives -------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        now = self.now
        if when == now:
            self._ready.append((fn, None, None))
        elif now < when < inf:  # a NaN fails both comparisons
            heapq.heappush(self._heap, (float(when), next(self._sequence), fn, None, None))
        elif when < now:
            raise SimError(f"cannot schedule in the past ({when} < {now})")
        else:
            raise SimError(f"cannot schedule at a non-finite time ({when})")

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    # -- processes ----------------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process; it starts at the current time."""
        process = Process(name or f"p{len(self.processes)}", generator)
        process._ready = self._ready
        self.processes.append(process)
        if self.tracer.enabled:
            self.tracer.emit("sim.spawn", process.name)
        self._ready.append((process, None, None))
        return process

    # -- running ------------------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Dispatch events until the queue drains or virtual time passes ``until``.

        One rule: the heap's head if it is due (``when <= now``), else the
        head of the "now" queue, else advance the clock to the heap's head.
        ``now`` is written before a record at a new instant runs and
        ``events_dispatched`` whenever this returns or raises.  Returns the
        final virtual time.  Processes still blocked when the queue drains
        simply stay suspended — :meth:`blocked_processes` lists them.
        """
        heap, ready, sequence = self._heap, self._ready, self._sequence
        heappop, heappush, append = heapq.heappop, heapq.heappush, ready.append
        now, dispatched = self.now, self.events_dispatched
        if until is not None and until < now:
            return now  # everything queued is due at ``now`` or later
        try:
            while True:
                if heap and heap[0][0] <= now:
                    _when, _seq, target, value, error = heappop(heap)
                elif ready:
                    target, value, error = ready.popleft()
                elif heap and (until is None or heap[0][0] <= until):
                    now, _seq, target, value, error = heappop(heap)
                    self.now = now
                else:
                    break
                dispatched += 1
                if type(target) is not Process:
                    target()
                    continue
                while not target.finished:  # once per resumption of ``target``
                    try:
                        if error is not None:
                            yielded = target.generator.throw(error)
                        else:
                            yielded = target.generator.send(value)
                    except StopIteration as stop:
                        target.finished, target.result = True, stop.value
                        if self.tracer.enabled:
                            self.tracer.emit("sim.process.end", target.name)
                        break
                    except BaseException as exc:  # noqa: BLE001 - report, do not mask
                        target.finished, target.error = True, exc
                        if self.tracer.enabled:
                            name = type(exc).__name__
                            self.tracer.emit("sim.process.error", target.name, name)
                        raise
                    if isinstance(yielded, OpFuture):
                        if yielded._status is _PENDING:  # its own method queues the record
                            yielded.add_callback(target._resume_with)
                        elif ready or (heap and heap[0][0] <= now):
                            append((target, yielded._value, yielded._error))
                        else:  # the record would be the next one popped
                            dispatched += 1
                            value, error = yielded._value, yielded._error
                            continue
                    elif isinstance(yielded, (int, float)):
                        if not 0 <= yielded < inf:  # a NaN fails both comparisons
                            kind = "negative" if yielded < 0 else "non-finite"
                            raise SimError(f"process {target.name} yielded {kind} delay")
                        when = now + float(yielded)
                        if when == now:
                            append((target, None, None))
                        else:
                            heappush(heap, (when, next(sequence), target, None, None))
                    else:
                        expected = "expected a delay or an OpFuture"
                        raise SimError(f"process {target.name} yielded {yielded!r}; {expected}")
                    break
        finally:
            self.events_dispatched = dispatched
        if until is not None and now < until:
            self.now = float(until)
        return self.now

    def blocked_processes(self) -> list[Process]:
        """Processes that have neither finished nor any queued resumption."""
        queued = {id(record[0]) for record in self._ready}
        queued |= {id(entry[2]) for entry in self._heap}
        return [p for p in self.processes if not p.finished and id(p) not in queued]

    def all_finished(self) -> bool:
        return all(p.finished for p in self.processes)


def closed_loop(
    sim: Simulator,
    until: float,
    gap: Callable[[], float],
    once: Callable[[], Generator | None],
) -> Generator:
    """A closed-loop client: think for ``gap()``, then run ``once()`` to
    completion, until virtual time ``until`` — an arrival that lands past
    the deadline is not started.  ``once`` is a generator function, or a
    plain function when its body never waits."""
    while sim.now < until:
        yield gap()
        if sim.now >= until:
            return
        yield from once() or ()
