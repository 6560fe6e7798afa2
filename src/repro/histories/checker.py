"""High-level serializability checking with diagnostics.

Wraps the MVSG machinery into a one-call oracle used as a post-condition by
tests, examples and the benchmark harness.  One check is one pass over the
history, one graph of O(operations) stored edges (:mod:`repro.histories.mvsg`)
and one topological pass that yields verdict and witness order together; a
cycle is searched for only when that pass leaves nodes behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.histories.graphs import CycleError
from repro.histories.mvsg import committed_accesses, mvsg_of_accesses
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
        edges: edges the certifier stored -- the MVSG in compact form, a
            few per operation; the graph they spell out has more.
        cycle: offending cycle when not serializable, else empty.
        witness_order: when serializable, the witness serial order that takes
            the smallest transaction id whenever it has a choice.
    """

    serializable: bool
    transactions: int
    edges: int
    cycle: list[int]
    witness_order: list[int]


def check_one_copy_serializable(history: History) -> CheckReport:
    """Build MVSG(H) under the version-number order and report the verdict."""
    accesses = committed_accesses(history)
    graph = mvsg_of_accesses(accesses)
    try:
        cycle, order = [], graph.topological_order(tie_break=lambda t: t)
    except CycleError as error:
        cycle, order = error.cycle, []
    return CheckReport(
        serializable=not cycle,
        transactions=len(accesses.committed),
        edges=graph.edge_count(),
        cycle=cycle,
        witness_order=order,
    )


def assert_one_copy_serializable(history: History) -> CheckReport:
    """Raise :class:`NotSerializable` unless the history is 1SR."""
    report = check_one_copy_serializable(history)
    if not report.serializable:
        raise NotSerializable(report.cycle, history)
    return report
