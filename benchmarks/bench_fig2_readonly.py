"""FIG2 — read-only transaction execution (paper Figure 2), per protocol.

Times the complete read-only path — one ``VCstart``, k snapshot reads, a
no-op end — against a store with deep version chains, and asserts the
figure's structural properties: zero concurrency-control interaction, no
blocking, snapshot stability.
"""

import pytest

from repro.protocols.registry import VC_PROTOCOLS, make_scheduler


def build_scheduler(name: str, versions_per_key: int = 20, keys: int = 50):
    db = make_scheduler(name)
    for i in range(versions_per_key):
        w = db.begin()
        for k in range(keys):
            db.write(w, f"o{k}", i).result()
        db.commit(w).result()
    return db


def run_read_only(db, keys: int = 50):
    txn = db.begin(read_only=True)
    total = 0
    for k in range(keys):
        total += db.read(txn, f"o{k}").result()
    db.commit(txn).result()
    return total


@pytest.mark.parametrize("name", VC_PROTOCOLS)
def test_fig2_read_only_path(benchmark, name):
    db = build_scheduler(name)
    cc_before = db.counters.get("cc.ro")
    result = benchmark(run_read_only, db)
    assert result == 50 * 19, "all reads see the newest visible version"
    assert db.counters.get("cc.ro") == cc_before == 0
    assert db.counters.get("block.ro") == 0


def test_fig2_snapshot_under_concurrent_writer(benchmark):
    """The figure's guarantee while a writer holds every lock."""
    db = build_scheduler("vc-2pl")
    writer = db.begin()
    for k in range(50):
        db.write(writer, f"o{k}", 999).result()

    def read_all():
        txn = db.begin(read_only=True)
        values = [db.read(txn, f"o{k}").result() for k in range(50)]
        db.commit(txn).result()
        return values

    values = benchmark(read_all)
    assert all(v == 19 for v in values), "uncommitted writes invisible, no waits"
    assert db.counters.get("block.ro") == 0
