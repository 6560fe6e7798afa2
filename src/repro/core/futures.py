"""Cooperative operation futures.

The whole library is threadless and deterministic: a scheduler is a state
machine mutated only by explicit calls.  An operation (read/write/commit)
returns an :class:`OpFuture` that is either resolved immediately or parked
until some later scheduler call (a lock release, a pending write clearing)
resolves it.  Drivers — the scripted interleaving driver used in tests and
the discrete-event simulator — subscribe callbacks to learn about resolution.

This is the one concurrency primitive shared by every protocol in the
library, so its semantics are kept deliberately small:

* a future resolves exactly once, either with a value or with an exception;
* callbacks added after resolution fire synchronously;
* ``result()`` never blocks — a pending future raises
  :class:`~repro.errors.FutureNotReady`, because in a cooperative model
  waiting in place can never make progress.

A label may be a deferred format: a site on a hot path passes
``(fmt, *args)`` instead of a string and :attr:`OpFuture.label` renders
``fmt.format(*args)`` the first time someone reads it — ``repr``, the
``FutureNotReady`` and "settled twice" messages — and keeps the string.
Most futures are never printed, so most labels are never built.

The simulator's step (``repro.sim.engine``) is the one driver on every hot
path; it reads ``_status``, ``_value`` and ``_error`` directly instead of
through the properties.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import FutureNotReady


class OpStatus(enum.Enum):
    """Lifecycle states of an :class:`OpFuture`."""

    PENDING = "pending"
    RESOLVED = "resolved"
    FAILED = "failed"


class OpFuture:
    """Single-assignment result of a scheduler operation.

    Args:
        label: human-readable description ("r1[x]", "commit T3") used in
            ``repr`` and error messages — a string, or ``(fmt, *args)`` to
            be formatted when first read.
    """

    __slots__ = ("_label", "_status", "_value", "_error", "_callbacks")

    def __init__(self, label: str | tuple = ""):
        self._label = label
        self._status = OpStatus.PENDING
        self._value: Any = None
        self._error: BaseException | None = None
        # A list while pending; () once settled (nothing subscribes after).
        self._callbacks: list[Callable[[OpFuture], None]] | tuple = []

    # -- inspection ---------------------------------------------------------

    @property
    def label(self) -> str:
        label = self._label
        if type(label) is tuple:
            label = self._label = label[0].format(*label[1:])
        return label

    @property
    def status(self) -> OpStatus:
        return self._status

    @property
    def pending(self) -> bool:
        return self._status is OpStatus.PENDING

    @property
    def done(self) -> bool:
        return self._status is not OpStatus.PENDING

    @property
    def failed(self) -> bool:
        return self._status is OpStatus.FAILED

    @property
    def error(self) -> BaseException | None:
        """The exception the future failed with, or None."""
        return self._error

    def result(self) -> Any:
        """Return the value, re-raising the failure exception if any.

        Raises:
            FutureNotReady: if the operation is still blocked.
        """
        if self._status is OpStatus.PENDING:
            raise FutureNotReady(
                f"operation {self.label or '<unnamed>'} is still blocked; "
                "drive another transaction to unblock it"
            )
        if self._status is OpStatus.FAILED:
            assert self._error is not None
            raise self._error
        return self._value

    # -- resolution (scheduler side) ----------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        self._settle(OpStatus.RESOLVED, value=value)

    def fail(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        self._settle(OpStatus.FAILED, error=error)

    def _settle(
        self, status: OpStatus, value: Any = None, error: BaseException | None = None
    ) -> None:
        if self._status is not OpStatus.PENDING:
            raise RuntimeError(
                f"future {self.label or '<unnamed>'} settled twice "
                f"(was {self._status.value}, now {status.value})"
            )
        self._status = status
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    # -- subscription (driver side) -----------------------------------------

    def add_callback(self, callback: Callable[[OpFuture], None]) -> None:
        """Invoke ``callback(self)`` when the future settles.

        If the future is already settled the callback fires immediately, so
        drivers need no resolved-vs-pending special case.
        """
        if self._status is OpStatus.PENDING:
            self._callbacks.append(callback)
        else:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._status is OpStatus.RESOLVED:
            return f"<OpFuture {self.label} = {self._value!r}>"
        if self._status is OpStatus.FAILED:
            return f"<OpFuture {self.label} ! {self._error!r}>"
        return f"<OpFuture {self.label} pending>"


def resolved(value: Any = None, label: str | tuple = "") -> OpFuture:
    """An already-successful future, built settled: nobody can have
    subscribed, so there is no callback list to allocate or run."""
    future = OpFuture.__new__(OpFuture)
    future._label = label
    future._status = OpStatus.RESOLVED
    future._value = value
    future._error = None
    future._callbacks = ()
    return future


def failed(error: BaseException, label: str | tuple = "") -> OpFuture:
    """An already-failed future."""
    future = resolved(None, label)
    future._status = OpStatus.FAILED
    future._error = error
    return future
