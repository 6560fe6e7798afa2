"""Crash-point sweep over the per-site commit leg.

Every partitioned protocol commits at a site through one sequence —
``SiteBase.commit_leg``: log, force, adopt the number, install, release,
complete — so one loop can fail the site at every boundary of that
sequence, for every way the leg is reached.  The simulator never crashes a
site *inside* a delivery (deliveries are atomic events), which is exactly
why the seeded drills cannot cover these points and a scripted sweep must.

The crashed site's state is cut by raising out of the leg at the chosen
boundary, then failing and restarting the site.  Whatever happened before
the cut happened; nothing after it did.
"""

import pytest

from repro.distributed import Courier, DistributedMV2PL, DistributedVCDatabase
from repro.histories import assert_one_copy_serializable
from repro.histories.mvsg import multiversion_serialization_graph
from repro.shard import ShardedDatabase


class _PowerLoss(Exception):
    """Raised out of the commit leg at the chosen boundary."""


def _cut_before(monkeypatch, owner, name):
    """Fail the site on entry to ``owner.name``."""

    def cut(*_args, **_kwargs):
        raise _PowerLoss(name)

    monkeypatch.setattr(owner, name, cut)


def _cut_after_first(monkeypatch, owner, name):
    """Let the next ``owner.name`` call finish, then fail the site."""
    real = getattr(owner, name)

    def cut(*args, **kwargs):
        real(*args, **kwargs)
        raise _PowerLoss(name)

    monkeypatch.setattr(owner, name, cut)


#: Boundary -> how to cut the leg there, given the site about to run it.
CRASH_POINTS = {
    "before-log-append": lambda mp, site: _cut_before(mp, site.wal, "append"),
    "appended-not-forced": lambda mp, site: _cut_before(mp, site.wal, "force"),
    "forced-not-installed": lambda mp, site: _cut_after_first(mp, site.wal, "force"),
    "installed-not-completed": lambda mp, site: _cut_before(mp, site.locks, "release_all"),
    "completed-not-acked": lambda mp, site: _cut_after_first(mp, site, "apply_commit"),
}

#: How the leg is reached -> (database factory, keys written, site crashed).
TOPOLOGIES = {
    "dvc-2pc-participant": (
        lambda courier: DistributedVCDatabase(n_sites=2, courier=courier),
        ("s1:x", "s2:y", "s2:z"), 2,
    ),
    "shard-fast-commit": (
        lambda courier: ShardedDatabase(n_shards=2, courier=courier),
        ("s2:y", "s2:z"), 2,
    ),
    "shard-cross-shard-commit": (
        lambda courier: ShardedDatabase(n_shards=2, courier=courier),
        ("s1:x", "s2:y", "s2:z"), 2,
    ),
    "dmv2pl-participant": (
        lambda courier: DistributedMV2PL(n_sites=2, courier=courier),
        ("s1:x", "s2:y", "s2:z"), 2,
    ),
}


def _write_all(db, courier, keys, value):
    txn = db.begin()
    for key in keys:
        op = db.write(txn, key, value)
        courier.pump()
        op.result()
    return txn, db.commit(txn)


def _latest(db, key):
    return db.site_of_key(key).store.read_latest_committed(key).value


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_crash_at_every_point_of_the_commit_leg(topology, point, monkeypatch):
    build, keys, crash_sid = TOPOLOGIES[topology]
    courier = Courier(manual=True)
    db = build(courier)
    site = db.sites[crash_sid]
    local_keys = [key for key in keys if db.site_of_key(key) is site]
    assert len(local_keys) >= 2, "all-or-nothing needs two writes at the site"

    # An acknowledged commit over the same keys: it must survive everything.
    _, first = _write_all(db, courier, keys, 1)
    courier.pump()
    first.result()

    victim, done = _write_all(db, courier, keys, 2)
    CRASH_POINTS[point](monkeypatch, site)
    with pytest.raises(_PowerLoss):
        courier.pump()
    monkeypatch.undo()  # the cut belongs to the incarnation that just died
    assert done.pending, "the cut precedes the final ack"
    db.crash_site(crash_sid)
    db.recover_site(crash_sid)
    courier.pump()  # parked and still-in-flight messages redeliver

    # All-or-nothing at the crashed site.
    seen = {_latest(db, key) for key in local_keys}
    assert len(seen) == 1, f"torn commit at site {crash_sid}: {seen}"
    # No acknowledged write is lost: the first commit always, the victim's
    # once its future resolved — which the in-doubt path guarantees here,
    # since the victim was past its decision when the site failed.
    assert done.done and not done.failed, "in-doubt commit finished by recovery"
    assert victim.state.value == "committed"
    for key in keys:
        assert _latest(db, key) == 2, f"acknowledged write to {key} lost"

    # The healed database still commits, and the whole history is 1SR.
    _, third = _write_all(db, courier, keys, 3)
    courier.pump()
    third.result()
    reader = db.begin()
    for key in keys:
        op = db.read(reader, key)
        courier.pump()
        assert op.result() == 3
    finish = db.commit(reader)
    courier.pump()
    finish.result()
    if isinstance(db, DistributedMV2PL):
        # Its own version order, read-write subhistory (the read-only
        # anomaly is the paper's result, not a fault bug).
        graph = multiversion_serialization_graph(
            db.history.committed_projection(), db.global_version_order()
        )
        assert graph.find_cycle() is None
    else:
        assert_one_copy_serializable(db.history)
