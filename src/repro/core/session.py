"""User-facing session API.

The scheduler interface is deliberately low-level (explicit descriptors,
futures).  :class:`Database` wraps any scheduler in the ergonomic API an
application would actually use::

    db = Database("vc-2pl")
    with db.transaction() as txn:
        txn["x"] = txn["x"] + 1          # read/write by subscript

    with db.snapshot() as snap:           # read-only, Figure 2 underneath
        print(snap["x"])

    total = db.run(transfer, retries=5)   # auto-retry on *retryable* aborts

``run`` retries only failures a fresh attempt can fix
(:func:`repro.errors.is_retryable`): contention aborts and transient
infrastructure trouble retry with exponential backoff and deterministic
seeded jitter; ``CorruptLogError``, ``ProtocolError``, deadline expiry and
any other exception the body raises propagate immediately.  The rule is
:class:`~repro.qos.retry.Retry`, the one the campaign clients use too (see
``docs/robustness.md``).

Sessions are for *sequential* client code: an operation that would block on
another in-flight transaction raises
:class:`~repro.errors.FutureNotReady` rather than deadlocking the caller —
concurrent interleavings belong to the scripted drivers and the simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.core.interface import Scheduler
from repro.core.transaction import Transaction
from repro.errors import AbortReason
from repro.qos.retry import BackoffPolicy, Retry
from repro.sim.random_streams import RandomStreams


class TransactionContext:
    """Context-manager handle over one transaction."""

    def __init__(self, scheduler: Scheduler, txn: Transaction):
        self._scheduler = scheduler
        self._txn = txn

    # -- operations -----------------------------------------------------------

    @property
    def txn(self) -> Transaction:
        """The underlying descriptor (tn, sn, state...)."""
        return self._txn

    def read(self, key: Hashable) -> Any:
        return self._scheduler.read(self._txn, key).result()

    def write(self, key: Hashable, value: Any) -> None:
        self._scheduler.write(self._txn, key, value).result()

    def read_many(self, keys: Iterable[Hashable]) -> dict[Hashable, Any]:
        return {key: self.read(key) for key in keys}

    __getitem__ = read
    __setitem__ = write

    @property
    def staleness(self) -> int | None:
        """Snapshot staleness bound reported at begin (read-only sessions).

        The number of assigned-but-invisible transaction numbers at the
        moment ``VCstart()`` took the snapshot — 0 means the snapshot was
        perfectly fresh.  None for read-write transactions.
        """
        return self._txn.meta.get("qos.staleness")

    def abort(self) -> None:
        """Abort explicitly; exiting the context is then a no-op."""
        self._scheduler.abort(self._txn, AbortReason.USER_REQUESTED)

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "TransactionContext":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self._txn.is_finished:
            # Already aborted (protocol rejection or explicit abort).
            return False
        if exc_type is None:
            self._scheduler.commit(self._txn).result()
            return False
        self._scheduler.abort(self._txn, AbortReason.USER_REQUESTED)
        return False  # propagate the exception


class Database:
    """Convenience facade binding a scheduler to the session API.

    QoS knobs (all optional, keyword-only; defaults in docs/robustness.md):

    Args:
        admission: an :class:`~repro.qos.AdmissionController` installed on
            the scheduler — read-write begins then take a token or raise
            :class:`~repro.errors.Overloaded`; read-only begins bypass it.
        retry_seed: master seed for the deterministic retry jitter stream.

    Retries back off per the default :class:`~repro.qos.BackoffPolicy`,
    and each delay is recorded in :attr:`last_retry_schedule`.
    """

    def __init__(
        self,
        scheduler: Scheduler | str = "vc-2pl",
        *,
        admission=None,
        retry_seed: int = 0,
        **scheduler_kwargs,
    ):
        if isinstance(scheduler, str):
            from repro.protocols.registry import make_scheduler

            scheduler = make_scheduler(scheduler, **scheduler_kwargs)
        elif scheduler_kwargs:
            raise TypeError("scheduler kwargs only apply when passing a name")
        self.scheduler = scheduler
        if admission is not None:
            self.scheduler.admission = admission
        self._retry_rng = RandomStreams(retry_seed).stream("session.retry")
        #: Called with each backoff delay when assigned (a test drives the
        #: contention it retries against from here); None only records.
        self._sleep: Callable[[float], None] | None = None
        #: Backoff delays issued by the most recent :meth:`run` call — the
        #: deterministic retry schedule (same seed => same schedule).
        self.last_retry_schedule: list[float] = []

    # -- transactions -----------------------------------------------------------

    def transaction(self, deadline: float | None = None) -> TransactionContext:
        """A read-write transaction as a context manager."""
        return TransactionContext(self.scheduler, self.scheduler.begin(deadline=deadline))

    def snapshot(self) -> TransactionContext:
        """A read-only transaction (Figure 2) as a context manager."""
        return TransactionContext(
            self.scheduler, self.scheduler.begin(read_only=True)
        )

    def run(
        self,
        body: Callable[[TransactionContext], Any],
        retries: int = 10,
        read_only: bool = False,
        deadline: float | None = None,
    ) -> Any:
        """Execute ``body`` transactionally, retrying *retryable* failures.

        ``body`` receives a :class:`TransactionContext`; its return value is
        returned after a successful commit.  Failures are classified by
        :func:`repro.errors.is_retryable`:

        * contention aborts (timestamp rejections, deadlock victims,
          validation failures, wounds), fault aborts (site failures,
          prepare timeouts) and :class:`Overloaded` shedding retry up to
          ``retries`` times, after an exponential-backoff delay with
          deterministic seeded jitter;
        * everything else — ``CorruptLogError``, ``ProtocolError``,
          deadline expiry, user-requested aborts, and any other exception
          ``body`` raises — aborts and propagates immediately.

        The last error is re-raised when the retries run out.
        """
        retry = Retry(BackoffPolicy(), self._retry_rng, limit=retries)
        self.last_retry_schedule = []
        while True:
            txn = None
            try:
                txn = self.scheduler.begin(read_only=read_only, deadline=deadline)
                result = body(TransactionContext(self.scheduler, txn))
                self.scheduler.commit(txn).result()
                return result
            except BaseException as error:
                if txn is not None:
                    self.scheduler.abort(txn)
                delay = retry.failed(error)
            self.last_retry_schedule.append(delay)
            if self._sleep is not None:
                self._sleep(delay)

    # -- passthroughs ----------------------------------------------------------------

    def check_serializable(self):
        """Run the oracle on everything committed so far."""
        from repro.histories.checker import assert_one_copy_serializable

        return assert_one_copy_serializable(self.scheduler.history)
