"""High-level serializability checking with diagnostics.

Wraps the MVSG machinery into a one-call oracle used as a post-condition by
tests, examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.histories.mvsg import multiversion_serialization_graph
from repro.histories.operations import History


class NotSerializable(ReproError):
    """The checked history is not one-copy serializable."""

    def __init__(self, cycle: list[int], history: History):
        self.cycle = cycle
        self.history = history
        super().__init__(
            f"history is not one-copy serializable; MVSG cycle: "
            f"{' -> '.join(str(t) for t in cycle)}"
        )


@dataclass
class CheckReport:
    """Result of a serializability check.

    Attributes:
        serializable: verdict.
        transactions: committed transaction count examined.
        edges: number of MVSG edges.
        cycle: offending cycle when not serializable, else empty.
        witness_order: a topological witness serial order when serializable.
    """

    serializable: bool
    transactions: int
    edges: int
    cycle: list[int]
    witness_order: list[int]


def check_one_copy_serializable(history: History) -> CheckReport:
    """Build MVSG(H) under the version-number order and report the verdict."""
    graph = multiversion_serialization_graph(history)
    cycle = graph.find_cycle()
    return CheckReport(
        serializable=cycle is None,
        transactions=len(history.committed()),
        edges=graph.edge_count(),
        cycle=list(cycle or ()),
        witness_order=[] if cycle else graph.topological_order(tie_break=lambda t: t),
    )


def assert_one_copy_serializable(history: History) -> CheckReport:
    """Raise :class:`NotSerializable` unless the history is 1SR."""
    report = check_one_copy_serializable(history)
    if not report.serializable:
        raise NotSerializable(report.cycle, history)
    return report
