"""Adversarial random-interleaving stress tests for every protocol.

Each run explores a different interleaving of direct scheduler calls; after
the run the full battery of invariants is checked: one-copy serializability,
clean shutdown of every synchronization structure, and — for the VC
protocols — the paper's read-only guarantees.
"""

import pytest

from repro.histories import assert_one_copy_serializable
from repro.protocols.registry import PROTOCOLS, VC_PROTOCOLS, make_scheduler
from tests.stress.driver import RandomDriver

SEEDS = range(6)

#: Protocols safe to drive through the adversarial interleaver.
STRESSABLE = sorted(set(PROTOCOLS) - {"vc-2pl-wal"}) + ["vc-2pl-wal"]


def run_driver(name: str, seed: int, steps: int = 250) -> RandomDriver:
    scheduler = make_scheduler(name)
    driver = RandomDriver(scheduler, seed=seed)
    driver.run(steps)
    return driver


@pytest.mark.parametrize("name", STRESSABLE)
@pytest.mark.parametrize("seed", SEEDS)
def test_history_serializable_under_adversarial_interleaving(name, seed):
    driver = run_driver(name, seed)
    assert_one_copy_serializable(driver.scheduler.history)


@pytest.mark.parametrize("name", STRESSABLE)
def test_synchronization_structures_drain_clean(name):
    driver = run_driver(name, seed=99)
    scheduler = driver.scheduler
    locks = getattr(scheduler, "locks", None)
    if locks is not None:
        assert locks.is_idle(), "locks leaked"
        assert not locks.waits_for.waiters(), "waits-for edges leaked"
    waiting = getattr(scheduler, "_waiting", None)
    if waiting is not None:
        assert waiting.is_empty(), "parked operations leaked"
    vc = getattr(scheduler, "vc", None)
    if vc is not None:
        assert len(vc) == 0, "VCQueue entries leaked"
        assert vc.lag == 0


@pytest.mark.parametrize("name", VC_PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_vc_read_only_guarantees_under_stress(name, seed):
    driver = run_driver(name, seed)
    counters = driver.scheduler.counters
    assert counters.get("cc.ro") == 0
    assert counters.get("block.ro") == 0
    assert counters.get("abort.rw.caused_by_readonly") == 0
    ro_aborts = counters.get("abort.ro")
    # The driver never aborts read-only transactions except to break jams,
    # which cannot involve them (they never wait): none should be aborted by
    # the protocol itself.
    assert ro_aborts == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_every_committed_value_was_written_by_its_version(seed):
    """Snapshot reads return exactly the value the creator wrote."""
    driver = run_driver("vc-2pl", seed)
    history = driver.scheduler.history.committed_projection()
    written: dict[tuple, float] = {}
    for txn in driver.all_txns:
        if txn.is_read_write and txn.tn is not None and not txn.is_active:
            for key, value in txn.write_set.items():
                written[(key, txn.tn)] = value
    store = driver.scheduler.store
    for key in store.keys():
        for version in store.object(key).versions():
            if version.tn == 0:
                continue
            assert written[(key, version.tn)] == version.value
