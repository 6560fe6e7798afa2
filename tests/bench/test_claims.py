"""The claims EXPERIMENTS.md tabulates, asserted.

One row per experiment id of :data:`repro.bench.report.EXPERIMENTS` — the
experiment runs with the arguments its table was generated with and the
row's check reads the result — plus the paper's four figures (``FIG1`` …
``FIG4``) as scenarios over the modules themselves.  The paper reports no
numbers, so every assertion is a property the paper states (section cited
per row), never a magnitude of ours.
"""

import random

import pytest

from repro.bench.experiments import VC
from repro.bench.report import EXPERIMENTS
from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.protocols import VC2PLScheduler, VCTOScheduler
from repro.protocols.registry import VC_PROTOCOLS, make_scheduler

# -- EXP-A … ABL-OCC: one check per experiment ------------------------------------


def _exp_a(result):
    """Sections 1, 6: a read-only transaction makes one version-control call
    and no concurrency-control call; every baseline synchronizes per read."""
    assert len(result.rows) == 8, "one row per protocol"
    for name in VC:
        assert result.summary[f"{name}.cc_per_ro"] == 0
        assert result.summary[f"{name}.sync_per_ro"] == 0
    for name in ("mvto-reed", "mv2pl-chan", "weihl-ti", "sv-2pl", "sv-to"):
        assert result.summary[f"{name}.cc_per_ro"] > 0


def _exp_b(result):
    """Section 2: in Reed's MVTO a reader's r-ts update can abort a writer;
    under version control it cannot."""
    for name in VC:
        assert result.summary[f"{name}.ro_caused"] == 0
    assert result.summary["mvto-reed.ro_caused"] > 0


def _exp_c(result):
    """Section 2: "read operations may be blocked due to a pending write" —
    the baselines block read-only readers under a hot spot, VC never does."""
    for name in VC:
        assert result.summary[f"{name}.ro_blocks"] == 0
    assert result.summary["mvto-reed.ro_blocks"] > 0
    assert result.summary["sv-2pl.ro_blocks"] > 0
    # Blocking shows up as latency: the blocked baselines are slower for ROs.
    vc_latency = max(result.summary[f"{name}.ro_latency_mean"] for name in VC)
    assert result.summary["sv-2pl.ro_latency_mean"] > vc_latency


def _exp_d(result):
    """Section 6: the lag between tnc and vtnc grows with read-write
    transaction length, and read-only snapshots get staler with it."""
    assert [row[0] for row in result.rows] == [
        "short(2-4)", "medium(6-10)", "long(14-20)",
    ]
    short = result.summary["short(2-4).lag_avg"]
    long = result.summary["long(14-20).lag_avg"]
    assert long > short, "longer transactions hold visibility back further"
    assert (
        result.summary["long(14-20).staleness_mean"]
        >= result.summary["short(2-4).staleness_mean"]
    )


def _exp_e(result):
    """Section 1: multiversioning keeps read-only latency flat while the
    single-version twins make readers queue behind writers."""
    for ro_fraction in (0.2, 0.5, 0.8):
        assert (
            result.summary[f"sv-2pl@{ro_fraction}.ro_latency"]
            > result.summary[f"vc-2pl@{ro_fraction}.ro_latency"]
        ), f"at RO fraction {ro_fraction} the SV reader queues behind writers"
    # The gap matters most where the paper says it does: read-heavy mixes.
    assert (
        result.summary["vc-2pl@0.8.throughput"]
        > 0.95 * result.summary["sv-2pl@0.8.throughput"]
    )


def _exp_f(result):
    """Section 2: Chan's completed-transaction list grows with committed
    history; the VC read-only cost is one counter read, forever."""
    ctl_small = result.summary["200.0.ctl_entries_per_ro"]
    ctl_large = result.summary["800.0.ctl_entries_per_ro"]
    assert ctl_large > ctl_small * 2, "CTL copies grow with history"
    for duration in (200.0, 400.0, 800.0):
        assert result.summary[f"{duration}.vc_calls_per_ro"] == 1.0


def _exp_g(result):
    """Section 4.4: read-only transactions never appear in the waits-for
    graph; under single-version 2PL they block and die as victims."""
    assert result.summary["vc-2pl.ro_victims"] == 0
    assert result.summary["vc-2pl.ro_blocks"] == 0
    assert result.summary["sv-2pl.ro_blocks"] > 0
    assert result.summary["vc-2pl.deadlocks"] > 0, "RW-RW deadlocks still happen"


def _exp_h(result):
    """Section 6: collection bounded by vtnc keeps fewer versions the more
    often it runs and never discards one a read-only transaction needs."""
    assert result.summary["off.versions"] > result.summary["every 25.versions"]
    assert result.summary["every 25.versions"] >= result.summary["every 5.versions"]
    for label in ("off", "every 100", "every 25", "every 5"):
        assert result.summary[f"{label}.ro_aborts"] == 0


def _exp_i(result):
    """Theorem 1: every history of the VC protocols is one-copy serializable."""
    for name in VC:
        for duration in (150.0, 450.0):
            assert result.summary[f"{name}@{duration}.serializable"] is True


def _exp_j(result):
    """Sections 2, 6: distributed VC gives read-only transactions an
    all-or-nothing view; per-site CTLs (ref [8]) produce torn reads."""
    assert result.summary["dvc-2pl.torn"] == 0
    assert result.summary["dvc-2pl.non_1sr_runs"] == 0
    assert result.summary["dmv2pl.torn"] > 0
    assert result.summary["dmv2pl.non_1sr_runs"] > 0


def _exp_j2(result):
    """Global 1SR holds at every site count; 2PC rounds cost messages."""
    for n_sites in (2, 4, 8):
        assert result.summary[f"{n_sites}.serializable"] is True
        assert result.summary[f"{n_sites}.msgs_per_commit"] > 0


def _exp_k(result):
    """Section 2: timestamps-at-initiation make readers synchronize with
    writers and writers re-timestamp past readers; both are zero under VC."""
    assert result.summary["weihl-ti.ro_sync"] > 0
    assert result.summary["weihl-ti.retimestamps"] > 0
    for name in ("vc-2pl", "vc-to"):
        assert result.summary[f"{name}.ro_sync"] == 0
        assert result.summary[f"{name}.retimestamps"] == 0


def _exp_l(result):
    """The architectural claim: one VC module under 2PL, TO and OCC gives
    the same read-only profile and 1SR histories under all three."""
    for name in VC:
        assert result.summary[f"{name}.cc_ro"] == 0
        assert result.summary[f"{name}.vc_per_ro"] == 1.0
        assert result.summary[f"{name}.serializable"] is True


def _abl_gc(result):
    """Section 6: every strategy respects the same horizon rule; none may
    victimize a read-only reader."""
    none_peak = result.summary["none.peak"]
    for label in ("periodic(25)", "eager(stride=5)", "budgeted(8, every 10)"):
        assert result.summary[f"{label}.peak"] < none_peak
        assert result.summary[f"{label}.ro_aborts"] == 0
    # Eager bounds the footprint tightest; budgeted trades footprint for
    # bounded per-pass work.
    assert result.summary["eager(stride=5).peak"] <= result.summary["periodic(25).peak"]
    assert result.summary["eager(stride=5).passes"] > result.summary["periodic(25).passes"]


def _abl_victim(result):
    """Every deadlock victim policy preserves serializability."""
    for policy in ("requester", "youngest", "oldest"):
        assert result.summary[f"{policy}.serializable"] is True
        assert result.summary[f"{policy}.deadlocks"] > 0


def _abl_adapt(result):
    """Section 1, extensibility: the CC component switches at runtime under
    one untouched VC module, stays 1SR and beats the worst fixed mode."""
    for label in ("vc-adaptive", "vc-occ (fixed)", "vc-2pl (fixed)"):
        assert result.summary[f"{label}.serializable"] is True
    assert result.summary["vc-adaptive.switches"] >= 1
    worst_fixed = min(
        result.summary["vc-occ (fixed).commits"],
        result.summary["vc-2pl (fixed).commits"],
    )
    assert result.summary["vc-adaptive.commits"] > worst_fixed


def _abl_granularity(result):
    """Flat S/X locks and an intention hierarchy are the same protocol to
    the VC module; a scan costs one root lock instead of one per key."""
    flat = result.summary["vc-2pl (flat).grants"]
    granular = result.summary["vc-2pl-granular.grants"]
    assert granular < flat / 2, "intention locks slash scan lock traffic"
    assert result.summary["vc-2pl (flat).serializable"] is True
    assert result.summary["vc-2pl-granular.serializable"] is True


def _abl_occ(result):
    """Backward and forward validation under the identical VC module are
    both serializable; they differ in who pays for conflicts."""
    for key, value in result.summary.items():
        if key.endswith(".serializable"):
            assert value is True, key
    # Forward validation's aborts are wounds, delivered early.
    assert result.summary["vc-occ-fwd@hot.aborts"] > 0
    assert result.summary["vc-occ@hot.aborts"] > 0


#: experiment id -> (the arguments its EXPERIMENTS.md table was run with, check).
CLAIMS = {
    "EXP-A": (dict(duration=400.0), _exp_a),
    "EXP-B": (dict(duration=600.0), _exp_b),
    "EXP-C": (dict(duration=500.0), _exp_c),
    "EXP-D": (dict(duration=500.0), _exp_d),
    "EXP-E": (dict(duration=400.0), _exp_e),
    "EXP-F": ({}, _exp_f),
    "EXP-G": (dict(duration=600.0), _exp_g),
    "EXP-H": (dict(duration=500.0), _exp_h),
    "EXP-I": ({}, _exp_i),
    "EXP-J": ({}, _exp_j),
    "EXP-J2": ({}, _exp_j2),
    "EXP-K": (dict(duration=500.0), _exp_k),
    "EXP-L": (dict(duration=400.0), _exp_l),
    "ABL-GC": ({}, _abl_gc),
    "ABL-VICTIM": ({}, _abl_victim),
    "ABL-ADAPT": ({}, _abl_adapt),
    "ABL-GRANULARITY": ({}, _abl_granularity),
    "ABL-OCC": ({}, _abl_occ),
}


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_claim(exp_id):
    # Iterating EXPERIMENTS, not CLAIMS: an experiment without a claim fails.
    arguments, check = CLAIMS[exp_id]
    result = EXPERIMENTS[exp_id](**arguments)
    assert result.exp_id == exp_id
    check(result)


# -- FIG1: the VersionControl module ----------------------------------------------


def fig1_in_order():
    """Registration + completion cycles in serialization order: nothing lags."""
    vc = VersionControl()
    for _ in range(1_000):
        txn = Transaction()
        vc.vc_register(txn)
        vc.vc_complete(txn)
    assert vc.vtnc == vc.tnc - 1
    assert vc.lag == 0


def fig1_shuffled_completions():
    """Randomized completion orders with 10% aborts drain the queue."""
    rng = random.Random(42)
    vc = VersionControl()
    txns = [Transaction() for _ in range(1_000)]
    for txn in txns:
        vc.vc_register(txn)
    rng.shuffle(txns)
    for txn in txns:
        if rng.random() < 0.1:
            vc.vc_discard(txn)
        else:
            vc.vc_complete(txn)
    assert vc.vtnc == vc.tnc - 1
    assert len(vc) == 0


def fig1_paper_trace():
    """The paper's motivating interleaving: young transactions complete while
    an older one is active, and visibility waits for the oldest."""
    vc = VersionControl()
    t1, t2, t3 = Transaction(), Transaction(), Transaction()
    movements = []
    for txn in (t1, t2, t3):
        vc.vc_register(txn)
        movements.append((vc.tnc, vc.vtnc))
    for txn in (t3, t2, t1):  # youngest first
        vc.vc_complete(txn)
        movements.append((vc.tnc, vc.vtnc))
    assert movements == [(2, 0), (3, 0), (4, 0), (4, 0), (4, 0), (4, 3)]


# -- FIG2: read-only execution ----------------------------------------------------


def _deep_chains(name, versions_per_key=20, keys=50):
    db = make_scheduler(name)
    for i in range(versions_per_key):
        writer = db.begin()
        for k in range(keys):
            db.write(writer, f"o{k}", i).result()
        db.commit(writer).result()
    return db


def _read_all(db, keys=50):
    txn = db.begin(read_only=True)
    values = [db.read(txn, f"o{k}").result() for k in range(keys)]
    db.commit(txn).result()
    return values


def fig2_read_only_path(name):
    """One VCstart, k snapshot reads, a no-op end: no CC call, no block."""
    db = _deep_chains(name)
    cc_before = db.counters.get("cc.ro")
    assert sum(_read_all(db)) == 50 * 19, "all reads see the newest visible version"
    assert db.counters.get("cc.ro") == cc_before == 0
    assert db.counters.get("block.ro") == 0


def fig2_snapshot_under_concurrent_writer():
    """The figure's guarantee while a writer holds every lock."""
    db = _deep_chains("vc-2pl")
    writer = db.begin()
    for k in range(50):
        db.write(writer, f"o{k}", 999).result()
    assert all(v == 19 for v in _read_all(db)), "uncommitted writes invisible, no waits"
    assert db.counters.get("block.ro") == 0


# -- FIG3: read-write execution under VC + timestamp ordering ----------------------


def _seeded(scheduler_class):
    db = scheduler_class()
    seed = db.begin()
    for k in range(20):
        db.write(seed, f"o{k}", 0).result()
    db.commit(seed).result()
    return db


def fig3_read_write_cycle():
    """Register at begin, timestamped reads and writes, commit: no abort."""
    db = _seeded(VCTOScheduler)
    txn = db.begin()
    for k in range(5):
        db.read(txn, f"o{k}").result()
    for k in range(5):
        db.write(txn, f"o{k}", txn.tn).result()
    db.commit(txn).result()
    assert db.counters.get("abort.rw") == 0
    assert db.vc.lag == 0


def fig3_conflict_cases():
    """The figure's IF-clause: late writes abort; pending writes block."""
    db = VCTOScheduler()
    # Case 1: r-ts(x) > tn(T) -> abort.
    t1, t2 = db.begin(), db.begin()
    db.read(t2, "x").result()
    assert db.write(t1, "x", 1).failed, "late write rejected"
    db.commit(t2).result()
    # Case 2: pending write blocks a younger read until commit.
    t3, t4 = db.begin(), db.begin()
    db.write(t3, "y", 3).result()
    blocked = db.read(t4, "y")
    assert blocked.pending
    db.commit(t3).result()
    assert blocked.result() == 3
    db.commit(t4).result()
    assert db.counters.get("abort.rw.timestamp_rejected") == 1


def fig3_visibility_advances_in_tn_order():
    db = VCTOScheduler()
    t1 = db.begin()
    t2 = db.begin()
    db.write(t2, "a", 2).result()
    db.commit(t2).result()
    assert db.vc.lag == 2, "t2 committed but invisible behind active t1"
    db.commit(t1).result()
    assert db.vc.lag == 0


# -- FIG4: read-write execution under VC + two-phase locking -----------------------


def fig4_read_write_cycle():
    """Lock, stage privately, register at the lock point, install, release."""
    db = _seeded(VC2PLScheduler)
    txn = db.begin()
    for k in range(5):
        db.read(txn, f"o{k}").result()
    for k in range(5, 10):
        db.write(txn, f"o{k}", 1).result()
    db.commit(txn).result()
    assert db.locks.is_idle()
    assert db.vc.lag == 0


def fig4_lock_point_order_is_serial_order():
    """tn assignment happens at the lock point, in lock-point order."""
    db = VC2PLScheduler()
    first, second = db.begin(), db.begin()
    db.write(second, "a", 1).result()
    db.write(first, "b", 2).result()
    db.commit(second).result()  # reaches its lock point first
    db.commit(first).result()
    assert second.tn < first.tn


def fig4_version_phi_staging():
    """Writes stay private ("version phi") until the lock point."""
    db = _seeded(VC2PLScheduler)
    txn = db.begin()
    db.write(txn, "o0", 123).result()
    assert db.store.read_latest_committed("o0").value == 0, "staged, invisible"
    db.commit(txn).result()
    installed = db.store.read_latest_committed("o0")
    assert installed.tn == txn.tn
    assert installed.value == 123


def fig4_deadlock_resolution():
    """One detect-and-recover cycle: the requester closing the cycle dies."""
    db = VC2PLScheduler()
    t1, t2 = db.begin(), db.begin()
    db.write(t1, "x", 1).result()
    db.write(t2, "y", 2).result()
    db.write(t1, "y", 3)  # blocks
    assert db.write(t2, "x", 4).failed  # victim
    db.commit(t1).result()
    assert db.counters.get("deadlock") == 1


#: figure id -> its scenarios, each ``(scenario, *arguments)``.
FIGURES = {
    "FIG1": [(fig1_in_order,), (fig1_shuffled_completions,), (fig1_paper_trace,)],
    "FIG2": [
        *((fig2_read_only_path, name) for name in VC_PROTOCOLS),
        (fig2_snapshot_under_concurrent_writer,),
    ],
    "FIG3": [
        (fig3_read_write_cycle,),
        (fig3_conflict_cases,),
        (fig3_visibility_advances_in_tn_order,),
    ],
    "FIG4": [
        (fig4_read_write_cycle,),
        (fig4_lock_point_order_is_serial_order,),
        (fig4_version_phi_staging,),
        (fig4_deadlock_resolution,),
    ],
}


@pytest.mark.parametrize(
    "scenario, arguments",
    [
        pytest.param(
            scenario, arguments,
            id="-".join([fig_id, scenario.__name__.split("_", 1)[1], *arguments]),
        )
        for fig_id, scenarios in FIGURES.items()
        for scenario, *arguments in scenarios
    ],
)
def test_figure(scenario, arguments):
    scenario(*arguments)
