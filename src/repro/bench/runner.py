"""Closed-loop simulation runner.

Runs any scheduler under a workload with ``n_clients`` concurrent client
processes over the virtual clock: each client repeatedly draws a transaction
template, executes its operations (with service and think delays), and
commits; an aborted transaction is retried up to :data:`MAX_RESTARTS`
times (counted), as a real application would.

After the run the recorded history is fed to the one-copy-serializability
oracle (skippable for very large runs), and all scheduler counters are
merged into the returned :class:`~repro.bench.metrics.RunMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.bench.metrics import RunMetrics
from repro.core.interface import Scheduler
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.errors import TransactionAborted, VersionNotFound
from repro.histories.checker import check_one_copy_serializable
from repro.obs.instrument import attach_tracer
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator, closed_loop
from repro.sim.stats import TimeWeighted
from repro.workload.spec import WorkloadGenerator, WorkloadSpec


#: Virtual time one operation takes before it is submitted.
OP_SERVICE_TIME = 1.0
#: Mean of the exponential think time before a restart.
THINK_TIME_MEAN = 2.0
#: An aborted transaction is retried at most this many times.
MAX_RESTARTS = 10


@dataclass
class SimConfig:
    """Knobs of the closed-loop simulation."""

    duration: float = 1_000.0
    n_clients: int = 8
    check_serializability: bool = True
    #: Probability that a client abandons (user-aborts) its transaction
    #: after any operation — failure injection for robustness tests.
    user_abort_probability: float = 0.0
    #: Run the garbage collector every this many time units (VC schedulers
    #: only); 0 disables collection.
    gc_period: float = 0.0


def run_simulation(
    scheduler: Scheduler,
    workload: WorkloadSpec,
    config: SimConfig | None = None,
    tracer: Tracer | None = None,
    sim: Simulator | None = None,
) -> RunMetrics:
    """Execute one closed-loop run and return its metrics.

    When ``tracer`` is given it is bound to the simulator's virtual clock
    and attached across the scheduler's components for the duration of the
    run (and detached afterward), so every exported event carries a
    virtual-time stamp from this run only.

    ``sim`` lets the caller supply the simulator — required when the
    scheduler is a distributed database whose courier must share the
    runner's clock (``Courier(sim=sim)``); by default a fresh one is made.
    """
    config = config or SimConfig()
    instrumentation = None
    if sim is None:
        sim = (
            Simulator(tracer=tracer)
            if tracer is not None and tracer.enabled
            else Simulator()
        )
    if tracer is not None and tracer.enabled:
        tracer.clock = partial(getattr, sim, "now")  # no Python frame per read
        instrumentation = attach_tracer(scheduler, tracer)
    generator = WorkloadGenerator(workload)
    think_rng = generator.streams.stream("think")
    metrics = RunMetrics(protocol=scheduler.name)
    lag_observer = None

    # Track version-control lag over virtual time for VC schedulers.
    if isinstance(scheduler, VersionControlledScheduler):
        lag = TimeWeighted(0.0, 0.0)
        metrics.vc_lag = lag

        def lag_observer(_event: str, _number: int) -> None:
            lag.update(sim.now, scheduler.vc.lag)

        scheduler.vc.subscribe(lag_observer)

    def think() -> float:
        return think_rng.expovariate(1.0 / THINK_TIME_MEAN)

    def _run_transaction():
        spec = generator.next_txn()
        attempts = 0
        while attempts <= MAX_RESTARTS:
            attempts += 1
            start = sim.now
            txn = scheduler.begin(read_only=spec.read_only)
            if spec.read_only and isinstance(scheduler, VersionControlledScheduler):
                metrics.staleness_ro.add(scheduler.vc.lag)
            try:
                for op in spec.ops:
                    yield OP_SERVICE_TIME
                    if op.kind == "r":
                        yield scheduler.read(txn, op.key)
                    else:
                        yield scheduler.write(txn, op.key, sim.now)
                    if (
                        config.user_abort_probability > 0
                        and think_rng.random() < config.user_abort_probability
                    ):
                        scheduler.abort(txn)
                        scheduler.counters.bump("user_abort.injected")
                        return
                yield scheduler.commit(txn)
            except (TransactionAborted, VersionNotFound):
                scheduler.abort(txn)
                if spec.read_only:
                    metrics.aborts_ro += 1
                else:
                    metrics.aborts_rw += 1
                if attempts <= MAX_RESTARTS:
                    metrics.restarts += 1
                    yield think()
                    continue
                return
            latency = sim.now - start
            if spec.read_only:
                metrics.commits_ro += 1
                metrics.latency_ro.add(latency)
            else:
                metrics.commits_rw += 1
                metrics.latency_rw.add(latency)
            return

    def collector():
        assert isinstance(scheduler, VersionControlledScheduler)
        while sim.now < config.duration:
            yield config.gc_period
            scheduler.gc.collect()

    for i in range(config.n_clients):
        sim.spawn(
            closed_loop(sim, config.duration, think, _run_transaction),
            name=f"client-{i}",
        )
    if config.gc_period > 0 and isinstance(scheduler, VersionControlledScheduler):
        sim.spawn(collector(), name="gc")

    try:
        sim.run()
    finally:
        # Run teardown: a long-lived scheduler must not keep notifying this
        # run's collectors (or a closed trace exporter) after the run ends.
        if lag_observer is not None:
            scheduler.vc.unsubscribe(lag_observer)
        if instrumentation is not None:
            instrumentation.detach()
    metrics.duration = sim.now if sim.now > 0 else config.duration

    # Post-run bookkeeping.
    metrics.counters = scheduler.counters.as_dict()
    store = getattr(scheduler, "store", None)
    if store is not None and hasattr(store, "version_count"):
        metrics.version_count_final = store.version_count()
        metrics.gc_discarded = getattr(store, "gc_discarded", 0)
    if config.check_serializability:
        report = check_one_copy_serializable(scheduler.history)
        metrics.serializable = report.serializable
        metrics.history_transactions = report.transactions
    return metrics

