"""FIG1 — the VersionControl module of paper Figure 1, behaviorally and timed.

Times the module's entry procedures under randomized completion orders and
verifies the ordering/visibility invariants at scale.  The trace benchmark
replays the paper's motivating sequence (young transactions completing while
an older one is active) and asserts the exact counter movements.
"""

import random

from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl


def register_complete_in_order(n: int) -> VersionControl:
    vc = VersionControl()
    for _ in range(n):
        txn = Transaction()
        vc.vc_register(txn)
        vc.vc_complete(txn)
    return vc


def register_complete_shuffled(n: int, seed: int) -> VersionControl:
    rng = random.Random(seed)
    vc = VersionControl()
    txns = [Transaction() for _ in range(n)]
    for txn in txns:
        vc.vc_register(txn)
    order = list(txns)
    rng.shuffle(order)
    for txn in order:
        if rng.random() < 0.1:
            vc.vc_discard(txn)
        else:
            vc.vc_complete(txn)
    return vc


def test_fig1_inorder_throughput(benchmark):
    """Registration + completion cycles, in serialization order."""
    vc = benchmark(register_complete_in_order, 1_000)
    assert vc.vtnc == vc.tnc - 1
    assert vc.lag == 0


def test_fig1_shuffled_completions(benchmark):
    """Randomized completion orders with 10% aborts, invariants checked."""
    vc = benchmark(register_complete_shuffled, 1_000, 42)
    assert vc.vtnc == vc.tnc - 1
    assert len(vc) == 0


def test_fig1_paper_trace(benchmark):
    """The Figure 1 semantics on the paper's motivating interleaving."""

    def trace() -> list[tuple[int, int]]:
        vc = VersionControl()
        t1, t2, t3 = Transaction(), Transaction(), Transaction()
        movements = []
        for txn in (t1, t2, t3):
            vc.vc_register(txn)
            movements.append((vc.tnc, vc.vtnc))
        vc.vc_complete(t3)          # youngest first: visibility must wait
        movements.append((vc.tnc, vc.vtnc))
        vc.vc_complete(t2)
        movements.append((vc.tnc, vc.vtnc))
        vc.vc_complete(t1)          # oldest completes: all become visible
        movements.append((vc.tnc, vc.vtnc))
        return movements

    movements = benchmark(trace)
    assert movements == [
        (2, 0),
        (3, 0),
        (4, 0),
        (4, 0),
        (4, 0),
        (4, 3),
    ]
