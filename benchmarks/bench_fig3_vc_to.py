"""FIG3 — read-write execution under VC + timestamp ordering (paper Figure 3).

Times the full figure path — register at begin, timestamped reads/writes
with pending-version bookkeeping, commit with visibility advance — and
replays the figure's conflict cases as assertions.
"""

from repro.errors import AbortReason
from repro.protocols import VCTOScheduler


def build() -> VCTOScheduler:
    db = VCTOScheduler()
    seed = db.begin()
    for k in range(20):
        db.write(seed, f"o{k}", 0).result()
    db.commit(seed).result()
    return db


def rw_cycle(db: VCTOScheduler, ops: int = 10) -> None:
    txn = db.begin()
    for k in range(ops // 2):
        db.read(txn, f"o{k}").result()
    for k in range(ops // 2):
        db.write(txn, f"o{k}", txn.tn).result()
    db.commit(txn).result()


def test_fig3_read_write_cycle(benchmark):
    db = build()
    benchmark(rw_cycle, db)
    assert db.counters.get("abort.rw") == 0
    assert db.vc.lag == 0


def test_fig3_conflict_cases(benchmark):
    """The figure's IF-clause: late writes abort; pending writes block."""

    def scenario():
        db = VCTOScheduler()
        outcomes = {}
        # Case 1: r-ts(x) > tn(T) -> abort.
        t1, t2 = db.begin(), db.begin()
        db.read(t2, "x").result()
        outcomes["late_write_rejected"] = db.write(t1, "x", 1).failed
        db.commit(t2).result()
        # Case 2: pending write blocks a younger read until commit.
        t3, t4 = db.begin(), db.begin()
        db.write(t3, "y", 3).result()
        blocked = db.read(t4, "y")
        outcomes["read_blocked"] = blocked.pending
        db.commit(t3).result()
        outcomes["read_released"] = blocked.result() == 3
        db.commit(t4).result()
        return outcomes, db

    outcomes, db = benchmark(scenario)
    assert outcomes == {
        "late_write_rejected": True,
        "read_blocked": True,
        "read_released": True,
    }
    assert db.counters.get("abort.rw.timestamp_rejected") == 1


def test_fig3_visibility_advances_in_tn_order(benchmark):
    def scenario():
        db = VCTOScheduler()
        t1 = db.begin()
        t2 = db.begin()
        db.write(t2, "a", 2).result()
        db.commit(t2).result()
        lag_mid = db.vc.lag
        db.commit(t1).result()
        return lag_mid, db.vc.lag

    lag_mid, lag_end = benchmark(scenario)
    assert lag_mid == 2, "t2 committed but invisible behind active t1"
    assert lag_end == 0
