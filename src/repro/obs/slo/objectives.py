"""Declarative SLO objectives evaluated over tumbling windows.

An :class:`Objective` binds one or two *signals* — per-window sample
streams the engine derives from raw trace events (see
:class:`repro.obs.slo.engine.SLOEngine` for the signal taxonomy) — to a
verdict rule.  Four rule shapes cover the paper's runtime promises:

* :class:`PercentileObjective` — a windowed quantile against an absolute
  ceiling and/or an EWMA baseline (RO p99 flat under overload);
* :class:`MaxObjective` — the windowed maximum against a ceiling/baseline
  (visibility lag, replica staleness, lock-wait depth);
* :class:`ZeroObjective` — the signal must not occur at all (RO blocking,
  RO shedding: the paper's hard structural promises);
* :class:`RatioObjective` — windowed numerator/denominator against a
  ceiling (abort rate, shed rate).

Every objective carries a :class:`Hysteresis`: a breach verdict fires only
after ``breach_after`` consecutive violating windows and clears only after
``clear_after`` consecutive clean ones, so one noisy window cannot flap
the verdict.  ``expected=True`` marks watchdogs whose breaches are
*anticipated* under the campaign's injected faults (a partition spiking
replica lag); they are reported and still trigger the flight recorder but
do not fail the run's verdict — only unexpected breaches do.

The ``*_objectives`` builders at the bottom are the stock profiles used by
the overload/replication/fault campaigns and the ``watch`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.slo.windows import Ewma
from repro.sim.stats import nearest_rank


@dataclass(frozen=True)
class Hysteresis:
    """Consecutive-window counts required to enter / leave breach state."""

    breach_after: int = 1
    clear_after: int = 1

    def __post_init__(self) -> None:
        if self.breach_after < 1 or self.clear_after < 1:
            raise ValueError("hysteresis counts must be >= 1")


@dataclass(frozen=True)
class WindowVerdict:
    """One objective's evaluation of one closed window.

    ``value is None`` means the window held too little data to judge
    (below ``min_count``); such windows advance neither streak.
    """

    value: float | None
    violated: bool
    threshold: str


class Objective:
    """Base: a named rule over one or more signals, with hysteresis."""

    kind = "abstract"

    def __init__(
        self,
        name: str,
        signals: tuple[str, ...],
        *,
        expected: bool = False,
        hysteresis: Hysteresis | None = None,
        description: str = "",
    ):
        self.name = name
        self.signals = signals
        self.expected = expected
        self.hysteresis = hysteresis if hysteresis is not None else Hysteresis()
        self.description = description

    def observe(self, signal: str, value: float) -> None:
        raise NotImplementedError

    def close_window(self) -> WindowVerdict:
        raise NotImplementedError

    def threshold_text(self) -> str:
        raise NotImplementedError

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "signals": list(self.signals),
            "expected": self.expected,
            "threshold": self.threshold_text(),
            "description": self.description,
        }


class PercentileObjective(Objective):
    """Windowed quantile must stay under a ceiling and/or near its baseline.

    A window's samples are kept exactly, as floats, and judged when it
    closes by the nearest-rank rule every report uses
    (:func:`~repro.sim.stats.nearest_rank`); :class:`MaxObjective` is this
    rule at the quantile 1.
    """

    kind = "percentile"

    def __init__(
        self,
        name: str,
        signal: str,
        quantile: float = 0.99,
        *,
        ceiling: float | None = None,
        baseline: Ewma | None = None,
        rel_limit: float = 1.0,
        min_count: int = 1,
        **kwargs,
    ):
        super().__init__(name, (signal,), **kwargs)
        if ceiling is None and baseline is None:
            raise ValueError(f"objective {name!r} needs a ceiling or a baseline")
        self.quantile = quantile
        self.label = f"p{quantile * 100:g}"
        self.ceiling = ceiling
        self.baseline = baseline
        self.rel_limit = rel_limit
        self.min_count = max(1, min_count)
        self._samples: list[float] = []

    def observe(self, signal: str, value: float) -> None:
        self._samples.append(float(value))

    def threshold_text(self) -> str:
        parts = []
        if self.ceiling is not None:
            parts.append(f"{self.label} <= {self.ceiling:g}")
        if self.baseline is not None:
            parts.append(f"{self.label} <= ewma*(1+{self.rel_limit:g})")
        return " and ".join(parts)

    def close_window(self) -> WindowVerdict:
        samples, self._samples = self._samples, []
        if len(samples) < self.min_count:
            return WindowVerdict(None, False, self.threshold_text())
        value = nearest_rank(samples, self.quantile)
        violated = self.ceiling is not None and value > self.ceiling
        if (
            not violated
            and self.baseline is not None
            and self.baseline.ready
            and self.baseline.relative_deviation(value) > self.rel_limit
        ):
            violated = True
        if self.baseline is not None and not violated:
            self.baseline.update(value)
        return WindowVerdict(value, violated, self.threshold_text())


class MaxObjective(PercentileObjective):
    """Windowed maximum must stay under a ceiling and/or near its baseline."""

    kind = "max"

    def __init__(self, name: str, signal: str, *, rel_limit: float = 2.0, **kwargs):
        super().__init__(name, signal, 1.0, rel_limit=rel_limit, **kwargs)
        self.label = "max"


class ZeroObjective(Objective):
    """The signal must never fire — the paper's hard structural promises.

    Unlike the statistical objectives, an *empty* window is a verdict here
    (zero occurrences is exactly what the promise demands), so every
    window counts and the clean streak advances through quiet stretches.
    """

    kind = "zero"

    def __init__(self, name: str, signal: str, **kwargs):
        super().__init__(name, (signal,), **kwargs)
        self._count = 0

    def observe(self, signal: str, value: float) -> None:
        self._count += 1

    def threshold_text(self) -> str:
        return "count == 0"

    def close_window(self) -> WindowVerdict:
        count = self._count
        self._count = 0
        return WindowVerdict(float(count), count > 0, self.threshold_text())


class RatioObjective(Objective):
    """Windowed numerator/denominator must stay under a ceiling."""

    kind = "ratio"

    def __init__(
        self,
        name: str,
        numerator: str,
        denominator: str,
        *,
        ceiling: float,
        min_denominator: int = 1,
        **kwargs,
    ):
        super().__init__(name, (numerator, denominator), **kwargs)
        self.ceiling = ceiling
        self.min_denominator = max(1, min_denominator)
        self._num = 0.0
        self._den = 0.0

    def observe(self, signal: str, value: float) -> None:
        if signal == self.signals[0]:
            self._num += value
        else:
            self._den += value

    def threshold_text(self) -> str:
        return f"{self.signals[0]}/{self.signals[1]} <= {self.ceiling:g}"

    def close_window(self) -> WindowVerdict:
        num, den = self._num, self._den
        self._num = 0.0
        self._den = 0.0
        if den < self.min_denominator:
            return WindowVerdict(None, False, self.threshold_text())
        value = num / den
        return WindowVerdict(value, value > self.ceiling, self.threshold_text())


# -- stock profiles ----------------------------------------------------------------


def default_objectives() -> list[Objective]:
    """General-purpose watchdogs for an arbitrary VC-family trace.

    Hard promise: read-only transactions never block (paper Figure 2).
    Everything else is an anomaly *watchdog* (``expected=True``): latency
    and lag are judged against their own EWMA baselines, so a breach
    flags "this run changed character mid-flight", not "this run is
    slower than some other run".
    """
    return [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="read-only transactions must never block (Figure 2)",
        ),
        PercentileObjective(
            "ro_p99", "latency.ro", 0.99,
            baseline=Ewma(alpha=0.3, warmup=3), rel_limit=1.5, min_count=5,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="read-only p99 vs its own EWMA baseline",
        ),
        PercentileObjective(
            "rw_p99", "latency.rw", 0.99,
            baseline=Ewma(alpha=0.3, warmup=3), rel_limit=2.0, min_count=5,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="read-write p99 vs its own EWMA baseline",
        ),
        MaxObjective(
            "visibility_lag", "vc.lag",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="vtnc lag behind tnc vs its own EWMA baseline",
        ),
        MaxObjective(
            "lock_wait_depth", "lock.wait_depth",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="simultaneously lock-blocked transactions",
        ),
        RatioObjective(
            "abort_rate", "abort.rw", "begin.rw",
            ceiling=0.9, min_denominator=10, expected=True,
            hysteresis=Hysteresis(2, 2),
            description="read-write aborts per begin",
        ),
        MaxObjective(
            "ro_staleness", "staleness.ro",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="snapshot staleness reported at RO begin",
        ),
    ]


def overload_objectives(
    *, capacity: int, ro_p99_ceiling: float | None = None
) -> list[Objective]:
    """The overload campaign's online verdicts (``repro.qos.overload``).

    ``ro_p99_ceiling`` is derived from the campaign's own uncontended
    baseline phase.  It is deliberately *looser* than the run-level
    ``RO_P99_CEILING`` gate (2x vs 1.5x of the baseline's whole-run p99):
    a per-window p99 over a few dozen samples is effectively a maximum
    and has far heavier tails than the run-level quantile, which the
    campaign still enforces separately.
    """
    objectives: list[Objective] = [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="read-only transactions must never block (Figure 2)",
        ),
        ZeroObjective(
            "ro_shed", "shed.ro",
            description="read-only transactions never pass admission, so "
            "they can never be shed",
        ),
        MaxObjective(
            "ro_staleness", "staleness.ro", ceiling=float(capacity),
            description="snapshot staleness bounded by admitted writers "
            "in flight",
        ),
        MaxObjective(
            "lock_wait_depth", "lock.wait_depth",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="writer convoy depth vs its own EWMA baseline",
        ),
    ]
    if ro_p99_ceiling is not None and ro_p99_ceiling > 0:
        objectives.insert(
            1,
            PercentileObjective(
                "ro_p99", "latency.ro", 0.99,
                ceiling=ro_p99_ceiling, min_count=4,
                hysteresis=Hysteresis(2, 2),
                description="read-only p99 per window vs the uncontended "
                "baseline phase",
            ),
        )
    return objectives


def replication_objectives(
    *, max_staleness: int, writers: int
) -> list[Objective]:
    """The replication campaign's online verdicts (``repro.replica``).

    ``ro_staleness`` bounds what sessions actually *observe*: the serving
    bound ``max_staleness`` plus the primary's own visibility lag (at most
    the concurrent writer count, plus slack for commits that raced the
    begin).  ``replica_lag`` is the anomaly watchdog: primary-measured
    watermark lag spikes during injected partition windows — that breach
    is *expected* and is precisely the intentional-breach scenario whose
    flight-recorder bundle must contain the injected cause.
    """
    return [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="replica reads never block (Figure 2, served "
            "off-primary)",
        ),
        MaxObjective(
            "ro_staleness", "staleness.ro",
            ceiling=float(max_staleness + writers + 2),
            description="served snapshot staleness: serving bound plus the "
            "primary's own visibility lag",
        ),
        MaxObjective(
            "replica_lag", "replica.lag", ceiling=float(max_staleness),
            expected=True, hysteresis=Hysteresis(2, 2),
            description="primary-measured watermark lag; spikes during "
            "injected partitions (expected breach)",
        ),
    ]


def faults_objectives() -> list[Objective]:
    """The fault drill's online verdicts (``repro.faults.drill``).

    Distributed drills emit no ``vc.*`` events (the distributed VC module
    has its own observer surface), so the watchdogs here lean on the
    transaction-level signals both databases share.
    """
    return [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="distributed read-only transactions never block",
        ),
        RatioObjective(
            "abort_rate", "abort.rw", "begin.rw",
            ceiling=0.95, min_denominator=8, expected=True,
            hysteresis=Hysteresis(2, 2),
            description="fault-driven abort storm detector",
        ),
        PercentileObjective(
            "rw_p99", "latency.rw", 0.99,
            baseline=Ewma(alpha=0.3, warmup=3), rel_limit=3.0, min_count=4,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="read-write p99 vs its own EWMA baseline",
        ),
    ]


def bench_objectives(*, ro_never_blocks: bool) -> list[Objective]:
    """Per-protocol watchdogs riding a benchmark run (``repro.bench``).

    ``ro_never_blocks`` holds for the VC family and the distributed VC
    database — their read-only path structurally bypasses concurrency
    control, so blocking a reader is a hard failure.  The baselines
    (MV2PL, single-version 2PL/TO, DMV2PL) block readers by design;
    for them the same objective runs as an expected tally instead.
    """
    return [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            expected=not ro_never_blocks,
            description="read-only transactions never block"
            + ("" if ro_never_blocks else " (expected for this baseline)"),
        ),
        PercentileObjective(
            "ro_p99", "latency.ro", 0.99,
            baseline=Ewma(alpha=0.3, warmup=3), rel_limit=2.0, min_count=5,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="read-only p99 vs its own EWMA baseline",
        ),
        PercentileObjective(
            "rw_p99", "latency.rw", 0.99,
            baseline=Ewma(alpha=0.3, warmup=3), rel_limit=2.0, min_count=5,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="read-write p99 vs its own EWMA baseline",
        ),
        MaxObjective(
            "visibility_lag", "vc.lag",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="vtnc lag behind tnc vs its own EWMA baseline",
        ),
    ]


def memory_objectives(*, live_versions_bound: float | None = None) -> list[Objective]:
    """The memory campaign's online verdicts (``repro.qos.memory``).

    ``gc_live_versions`` is the headline: the retained-version footprint
    after every sweep must stay under the configured bound *regardless of
    run length* — that is what range-tracked GC plus lease revocation buys.
    ``snapshot_revoked`` is an expected-anomaly watchdog: revocations are
    the degradation mechanism working as designed under a pinned long
    scan, so they are reported (and trip the flight recorder) without
    failing the run.  A breach of ``ro_blocking`` remains a hard failure —
    degrading a reader means revoking its lease, never blocking it.
    """
    objectives: list[Objective] = [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="read-only transactions must never block (Figure 2) "
            "— memory pressure revokes leases, it never blocks readers",
        ),
        ZeroObjective(
            "snapshot_revoked", "snapshot.revoked",
            expected=True,
            description="lease revocations (memory pressure / TTL expiry): "
            "anticipated degradation, recorded not failed",
        ),
        MaxObjective(
            "gc_max_chain", "gc.max_chain",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=1,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="longest single version chain vs its own EWMA "
            "baseline",
        ),
        MaxObjective(
            "gc_scan_cost", "gc.scanned",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=1,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="versions examined per sweep vs its own EWMA "
            "baseline — a blow-up means range tracking stopped amortizing",
        ),
    ]
    if live_versions_bound is not None:
        objectives.insert(
            1,
            MaxObjective(
                "gc_live_versions", "gc.live_versions",
                ceiling=float(live_versions_bound), min_count=1,
                description="retained versions after each sweep, bounded "
                "independent of run length",
            ),
        )
    return objectives


def availability_objectives(*, max_outage: float = 30.0) -> list[Objective]:
    """The availability drill's online verdicts (``repro.replica.availability``).

    ``write_outage`` is the headline: the campaign's prober measures each
    write-unavailability window (first failed probe to the next success,
    spanning lease lapse, election, and automatic promotion) and emits it
    as one ``avail.outage`` event — the window must close within
    ``max_outage`` of virtual time.  Fenced and indeterminate commits are
    the degradation machinery *working* (the lease lapsed, so the primary
    refuses instead of double-acknowledging); they are recorded, not
    failed.  ``ro_blocking`` stays a hard promise: read-only service keeps
    running off replicas straight through the fail-over.
    """
    return [
        ZeroObjective(
            "ro_blocking", "blocked.ro",
            description="read-only transactions never block, even mid "
            "fail-over (Figure 2, served off-primary)",
        ),
        MaxObjective(
            "write_outage", "avail.outage", ceiling=float(max_outage),
            description="write-unavailability window across an automatic "
            "fail-over (lease lapse + election + promotion)",
        ),
        ZeroObjective(
            "quorum_fenced", "quorum.fenced", expected=True,
            description="commits refused by a lapsed lease: anticipated "
            "fencing during the induced partition",
        ),
        ZeroObjective(
            "quorum_indeterminate", "quorum.indeterminate", expected=True,
            description="commits whose quorum ack timed out: anticipated "
            "on the partitioned primary",
        ),
    ]


def shard_objectives(
    *, max_staleness: float = 24.0, max_outage: float = 30.0
) -> list[Objective]:
    """The shard drill's online verdicts (``repro.shard.campaign``).

    ``vector_consistency`` is the headline hard zero: a snapshot vector
    that tears a cross-shard commit (visible on one participant, missing
    on another) is a serializability violation, full stop.
    ``ro_blocked`` guards the zero-coordination claim — a vector read
    never waits on any shard's watermark.  ``snapshot_staleness`` bounds
    what the sweep costs: how many committed transactions (worst shard)
    a vector had to give up to reach consistency.  ``vc_lag`` watches
    each shard's commit-queue depth at cross-shard commit time, and
    ``shard_failover``/``shard_outage`` are expected-anomaly watchdogs —
    the drill partitions and fails over one shard on purpose; the breach
    must be recorded (with its flight-recorder bundle), not failed.
    """
    return [
        ZeroObjective(
            "vector_consistency", "shard.vector_inconsistent",
            description="snapshot vectors never tear a cross-shard commit "
            "(the 1SR read promise)",
        ),
        ZeroObjective(
            "ro_blocked", "shard.ro_blocked",
            description="vector reads never block on a shard watermark "
            "(the zero-coordination claim)",
        ),
        MaxObjective(
            "snapshot_staleness", "shard.staleness",
            ceiling=float(max_staleness),
            description="committed-transaction ticks the consistency sweep "
            "cost a vector, worst shard",
        ),
        MaxObjective(
            "vc_lag", "shard.vc_lag",
            baseline=Ewma(alpha=0.3, warmup=4), rel_limit=3.0, min_count=2,
            expected=True, hysteresis=Hysteresis(2, 2),
            description="per-shard held-commit queue depth at cross-shard "
            "commit time vs its own EWMA baseline",
        ),
        ZeroObjective(
            "shard_failover", "shard.failover", expected=True,
            description="shard fail-overs: the drill injects exactly these "
            "(anticipated, recorded not failed)",
        ),
        MaxObjective(
            "shard_outage", "shard.outage", ceiling=float(max_outage),
            expected=True, hysteresis=Hysteresis(1, 1),
            description="write-unavailability window on the partitioned "
            "shard (injected; the other shards must show none)",
        ),
    ]


PROFILES = {
    "default": lambda: default_objectives(),
    "faults": lambda: faults_objectives(),
    "memory": lambda: memory_objectives(),
    "availability": lambda: availability_objectives(),
    "shard": lambda: shard_objectives(),
}
