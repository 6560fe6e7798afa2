"""What a call allocates must not depend on how much history has piled up.

A snapshot read is "the largest version ``<= sn(T)``" and ``VCcomplete`` is a
flag and a look at the queue head (paper Figures 1 and 2); neither may copy
the chain or the queue to get there.  ``tracemalloc`` peaks over 1 000 calls
are held under 16 KiB — a per-call copy of a 20 000-version chain or a
2 000-entry queue is an order of magnitude above that.
"""

import tracemalloc

from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.storage.mvstore import MVStore

CALLS = 1_000
LIMIT = 16 * 1024


def peak_bytes(calls) -> int:
    """Peak traced allocation while running ``calls()``."""
    tracemalloc.start()
    try:
        calls()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_snapshot_read_allocation_is_independent_of_chain_length():
    store = MVStore()
    for tn in range(1, 20_001):
        store.install("x", tn, tn)

    def reads():
        for sn in range(10_000, 10_000 + CALLS):
            assert store.read_snapshot("x", sn).tn == sn

    assert peak_bytes(reads) < LIMIT


def test_complete_allocation_is_independent_of_queue_depth():
    vc = VersionControl()
    txns = [Transaction() for _ in range(2_000)]
    for txn in txns:
        vc.vc_register(txn)  # txns[0] never finishes: the head stays stuck
    youngest = txns[-CALLS:]

    def completes():
        for txn in youngest:
            vc.vc_complete(txn)

    assert peak_bytes(completes) < LIMIT
    assert vc.vtnc == 0 and len(vc) == 2_000
