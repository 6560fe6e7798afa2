"""Micro-benchmarks of the substrates every protocol is built on.

Not tied to a paper table — these keep the building blocks honest: lock
grant/release cycles, version-chain operations, MVSG checking cost at
growing history sizes (the scaling side of EXP-I), and raw simulator event
dispatch.
"""

import random

from repro.cc.lock_manager import LockManager
from repro.cc.locks import LockMode
from repro.histories.checker import check_one_copy_serializable
from repro.histories.operations import History
from repro.sim.engine import Simulator
from repro.storage.mvstore import MVStore


def test_lock_grant_release_cycle(benchmark):
    lm = LockManager()

    def cycle():
        for txn in range(1, 51):
            lm.acquire(txn, f"k{txn % 10}", LockMode.SHARED)
        for txn in range(1, 51):
            lm.release_all(txn)

    benchmark(cycle)
    assert lm.is_idle()


def test_lock_contention_with_waits(benchmark):
    def contended():
        lm = LockManager()
        futures = [lm.acquire(t, "hot", LockMode.EXCLUSIVE) for t in range(1, 21)]
        for t in range(1, 21):
            lm.release_all(t)
        return futures

    futures = benchmark(contended)
    assert all(f.done for f in futures)


def test_version_chain_install_and_snapshot_read(benchmark):
    def build_and_read():
        store = MVStore()
        for tn in range(1, 201):
            store.install("x", tn, tn)
        total = 0
        for sn in range(0, 201, 5):
            total += store.read_snapshot("x", sn).tn
        return total

    assert benchmark(build_and_read) > 0


def _thirty_key_history(n_txns: int) -> History:
    """Two reads of the latest version and one write per transaction, 30 keys."""
    rng = random.Random(0)
    ops = []
    last_writer = {}
    for txn in range(1, n_txns + 1):
        keys = rng.sample([f"k{i}" for i in range(30)], 3)
        for key in keys[:2]:
            ops.append(f"r{txn}[{key}_{last_writer.get(key, 0)}]")
        ops.append(f"w{txn}[{keys[2]}_{txn}]")
        last_writer[keys[2]] = txn
        ops.append(f"c{txn}")
    return History.parse(" ".join(ops))


def test_mvsg_checker_scaling_500_txns(benchmark):
    """Checker cost on a 500-transaction, zipf-keyed history."""
    report = benchmark(check_one_copy_serializable, _thirty_key_history(500))
    assert report.serializable
    assert report.transactions == 500


def test_mvsg_checker_scaling_5000_txns(benchmark):
    """Ten times the history over the same 30 keys, so ten times the versions
    per key: the certifier still stores the same few edges per transaction
    (8.2 -> 8.6; one stored edge per rule edge was 24 -> 225)."""
    short = check_one_copy_serializable(_thirty_key_history(500))
    report = benchmark(check_one_copy_serializable, _thirty_key_history(5_000))
    assert report.serializable
    assert report.transactions == 5_000
    assert report.edges / 5_000 <= 1.5 * short.edges / 500


def test_simulator_event_dispatch(benchmark):
    def run_events():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1

        for i in range(2_000):
            sim.call_at(i * 0.5, tick)
        sim.run()
        return count["n"]

    assert benchmark(run_events) == 2_000


def test_simulator_process_switching(benchmark):
    def run_processes():
        sim = Simulator()

        def proc():
            for _ in range(50):
                yield 1.0

        for _ in range(20):
            sim.spawn(proc())
        sim.run()
        return sim.events_dispatched

    assert benchmark(run_processes) > 1_000
