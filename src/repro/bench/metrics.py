"""Aggregated metrics of one simulated run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import Summary, TimeWeighted


@dataclass
class RunMetrics:
    """Everything a simulated run measures, split by transaction class.

    Combined with the scheduler's own
    :class:`~repro.core.interface.SchedulerCounters`, this is the raw
    material every experiment table is printed from.
    """

    protocol: str = ""
    duration: float = 0.0
    commits_ro: int = 0
    commits_rw: int = 0
    aborts_ro: int = 0
    aborts_rw: int = 0
    restarts: int = 0
    latency_ro: Summary = field(default_factory=Summary)
    latency_rw: Summary = field(default_factory=Summary)
    staleness_ro: Summary = field(default_factory=Summary)
    vc_lag: TimeWeighted | None = None
    counters: dict[str, int] = field(default_factory=dict)
    serializable: bool | None = None
    history_transactions: int = 0
    version_count_final: int = 0
    gc_discarded: int = 0

    # -- derived -------------------------------------------------------------

    @property
    def commits(self) -> int:
        return self.commits_ro + self.commits_rw

    @property
    def aborts(self) -> int:
        return self.aborts_ro + self.aborts_rw

    @property
    def throughput(self) -> float:
        """Committed transactions per unit virtual time."""
        return self.commits / self.duration if self.duration > 0 else 0.0

    @property
    def abort_rate_rw(self) -> float:
        attempts = self.commits_rw + self.aborts_rw
        return self.aborts_rw / attempts if attempts else 0.0

    @property
    def abort_rate_ro(self) -> float:
        attempts = self.commits_ro + self.aborts_ro
        return self.aborts_ro / attempts if attempts else 0.0

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def per_ro_commit(self, name: str) -> float:
        """A counter normalized per committed read-only transaction."""
        return self.counter(name) / self.commits_ro if self.commits_ro else 0.0
