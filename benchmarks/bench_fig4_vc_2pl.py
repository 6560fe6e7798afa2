"""FIG4 — read-write execution under VC + two-phase locking (paper Figure 4).

Times the figure path — lock acquisition, private staging "with version
phi", register-at-lock-point, install-with-tn, release, complete — and
asserts the figure's ordering guarantees.
"""

from repro.protocols import VC2PLScheduler


def build() -> VC2PLScheduler:
    db = VC2PLScheduler()
    seed = db.begin()
    for k in range(20):
        db.write(seed, f"o{k}", 0).result()
    db.commit(seed).result()
    return db


def rw_cycle(db: VC2PLScheduler, ops: int = 10) -> None:
    txn = db.begin()
    for k in range(ops // 2):
        db.read(txn, f"o{k}").result()
    for k in range(ops // 2, ops):
        db.write(txn, f"o{k}", 1).result()
    db.commit(txn).result()


def test_fig4_read_write_cycle(benchmark):
    db = build()
    benchmark(rw_cycle, db)
    assert db.locks.is_idle()
    assert db.vc.lag == 0


def test_fig4_lock_point_order_is_serial_order(benchmark):
    """tn assignment happens at the lock point, in lock-point order."""

    def scenario():
        db = VC2PLScheduler()
        first, second = db.begin(), db.begin()
        db.write(second, "a", 1).result()
        db.write(first, "b", 2).result()
        db.commit(second).result()   # reaches its lock point first
        db.commit(first).result()
        return second.tn, first.tn

    second_tn, first_tn = benchmark(scenario)
    assert second_tn < first_tn


def test_fig4_version_phi_staging(benchmark):
    """Writes stay private ("version phi") until the lock point."""

    def scenario():
        db = build()
        txn = db.begin()
        db.write(txn, "o0", 123).result()
        staged_invisible = db.store.read_latest_committed("o0").value == 0
        db.commit(txn).result()
        installed = db.store.read_latest_committed("o0")
        return staged_invisible, installed.tn == txn.tn, installed.value

    staged_invisible, tn_matches, value = benchmark(scenario)
    assert staged_invisible
    assert tn_matches
    assert value == 123


def test_fig4_deadlock_resolution_throughput(benchmark):
    """Deadlock detect-and-recover cycles per second."""

    def deadlock_round():
        db = VC2PLScheduler()
        t1, t2 = db.begin(), db.begin()
        db.write(t1, "x", 1).result()
        db.write(t2, "y", 2).result()
        db.write(t1, "y", 3)          # blocks
        failed = db.write(t2, "x", 4)  # victim
        assert failed.failed
        db.commit(t1).result()
        return db

    db = benchmark(deadlock_round)
    assert db.counters.get("deadlock") == 1
