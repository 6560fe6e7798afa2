"""Adaptive concurrency control under one version-control module.

Paper Section 1 claims the decoupling enables "more experimentation …  in
areas such as garbage collection algorithms and adaptive concurrency control
schemes without introducing major modifications to the entire protocol."
This module is that experiment: a scheduler that *switches* its concurrency
control between optimistic (low contention: no locks, cheap) and two-phase
locking (high contention: waiting beats restarting) based on the observed
read-write abort rate — while the :class:`VersionControl` module, the
multiversion store, and the entire read-only path are shared, untouched,
across the switch.

**Soundness.**  2PL and OCC transactions must not overlap: an optimistic
writer ignores locks, so a locking reader concurrent with it can form an
MVSG cycle.  Mode changes therefore *quiesce*: a requested switch takes
effect only when no read-write transaction of the old mode is in flight;
until then new transactions keep using the old mode.  Read-only
transactions are oblivious to all of this — they interact only with version
control — which is precisely the paper's modularity argument.

The policy is a sliding window over recent read-write outcomes with
hysteresis: above ``high_watermark`` abort rate switch to 2PL, below
``low_watermark`` switch back to OCC.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable

from repro.core.futures import OpFuture
from repro.core.transaction import Transaction, TxnState
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.core.version_control import VersionControl
from repro.errors import AbortReason
from repro.obs.tracer import Tracer
from repro.protocols.vc_optimistic import VCOCCScheduler
from repro.protocols.vc_two_phase_locking import VC2PLScheduler
from repro.storage.mvstore import MVStore


class _AdaptiveEngineMixin:
    """Reports every read-write completion back to the adaptive parent.

    ``_finish`` is the last step of the one completion tail, which every
    read-write transaction passes exactly once on every path — normal
    commit, validation failure, deadlock victimhood, user abort — so
    outcome accounting hooks there.
    """

    _parent: "AdaptiveVCScheduler"

    def _bridge_vc(self, tracer: Tracer) -> None:
        """The VC is the parent's: it bridges it once."""

    def _finish(self, txn: Transaction) -> None:
        # begin() ran on the parent: it holds the admission token to return.
        self._parent._finish(txn)
        self._parent._on_engine_outcome(txn, aborted=txn.state is TxnState.ABORTED)


class _Engaged:
    """``txn.private`` of a read-write transaction: the engine that began it."""

    __slots__ = ("engine",)

    def __init__(self, engine: VersionControlledScheduler):
        self.engine: VersionControlledScheduler | None = engine

    def release(self) -> None:
        self.engine = None


class _Adaptive2PL(_AdaptiveEngineMixin, VC2PLScheduler):
    pass


class _AdaptiveOCC(_AdaptiveEngineMixin, VCOCCScheduler):
    pass


class AdaptiveVCScheduler(VersionControlledScheduler):
    """Mode-switching (2PL <-> OCC) scheduler over one shared VC module."""

    name = "vc-adaptive"
    multiversion = True

    def __init__(
        self,
        store: MVStore | None = None,
        version_control: VersionControl | None = None,
        initial_mode: str = "occ",
        window: int = 40,
        high_watermark: float = 0.25,
        low_watermark: float = 0.05,
    ):
        super().__init__(store, version_control)
        if initial_mode not in ("occ", "2pl"):
            raise ValueError("initial_mode must be 'occ' or '2pl'")
        if not 0.0 <= low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 <= low_watermark <= high_watermark <= 1")
        self._engines: dict[str, VersionControlledScheduler] = {
            "2pl": _Adaptive2PL(store=self.store, version_control=self.vc),
            "occ": _AdaptiveOCC(store=self.store, version_control=self.vc),
        }
        # The engines report through the adaptive scheduler's recorder and
        # counters so metrics and the oracle see one unified system, and
        # look transactions up in its active table (begin runs only here).
        for engine in self._engines.values():
            engine.recorder = self.recorder
            engine.counters = self.counters
            engine._active = self._active
            engine._parent = self  # type: ignore[attr-defined]
        self.mode = initial_mode
        self._pending_mode: str | None = None
        self._inflight_rw = 0
        self._outcomes: deque[bool] = deque(maxlen=window)  # True == aborted
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        #: Completed mode switches, as (at_rw_commit_count, new_mode) pairs.
        self.switches: list[tuple[int, str]] = []

    def _trace(self, tracer: Tracer) -> None:
        super()._trace(tracer)
        for engine in self._engines.values():
            engine._trace(tracer)

    # -- policy ---------------------------------------------------------------

    def abort_rate(self) -> float:
        """Read-write abort rate over the sliding window."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def _consider_switch(self) -> None:
        if len(self._outcomes) == self._outcomes.maxlen:
            rate = self.abort_rate()
            if self.mode == "occ" and rate > self.high_watermark:
                self._pending_mode = "2pl"
            elif self.mode == "2pl" and rate < self.low_watermark:
                self._pending_mode = "occ"
        self._apply_pending()

    def _apply_pending(self) -> None:
        if self._pending_mode is None:
            return
        if self._pending_mode == self.mode:
            self._pending_mode = None
            return
        if self._inflight_rw > 0:
            return  # quiesce: wait for old-mode transactions to drain
        self.mode = self._pending_mode
        self._pending_mode = None
        self._outcomes.clear()
        self.counters.bump(f"adaptive.switch_to_{self.mode}")
        self.switches.append((self.counters.get("commit.rw"), self.mode))

    def _on_engine_outcome(self, txn: Transaction, aborted: bool) -> None:
        self._inflight_rw -= 1
        self._outcomes.append(aborted)
        self._consider_switch()

    # -- read-write hooks: delegate to the transaction's engine -----------------

    def _rw_begin(self, txn: Transaction) -> None:
        self._apply_pending()
        engine = self._engines[self.mode]
        txn.private = _Engaged(engine)
        self._inflight_rw += 1
        engine._rw_begin(txn)

    def _rw_read(self, txn: Transaction, key: Hashable) -> OpFuture:
        return txn.private.engine._rw_read(txn, key)

    def _rw_write(self, txn: Transaction, key: Hashable, value: Any) -> OpFuture:
        return txn.private.engine._rw_write(txn, key, value)

    def _rw_commit(self, txn: Transaction) -> OpFuture:
        return txn.private.engine._rw_commit(txn)

    def _rw_abort(self, txn: Transaction, reason: AbortReason) -> None:
        if not txn.is_finished:
            txn.private.engine._rw_abort(txn, reason)
