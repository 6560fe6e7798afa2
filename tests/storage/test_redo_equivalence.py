"""The log-order record applier against the tn-order replay it replaced.

``replay_committed`` and ``recover`` below are the earlier redo, kept
verbatim but for one rule: every committed transaction's write set
collected over the whole log, then installed in transaction-number order,
from the last checkpoint that carries versions (a version-less marker once
counted as a restart point too, and recovered a shard's log to an empty
store).  :class:`Redo` applies
records in log order instead.  Hypothesis writes the logs the protocols
write — interleaved WRITE/COMMIT/ABORT, per-site commit legs (WRITE* then
COMMIT, forced), an in-doubt leg re-applied after a crash (the same
WRITE+COMMIT logged twice), full checkpoints, visibility markers and xlog
markers, and a torn, volatile or crashed tail — and every rebuild path
must agree with the reference: :func:`repro.storage.wal.recover`, a site's
restart (:meth:`SiteBase.recover` and the numbers it hands
``_restart_numbering``) and a replica fed the log in duplicated,
out-of-order segments.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import WaitsForGraph
from repro.core.version_control import VersionControl
from repro.distributed.base import SiteBase
from repro.replica.node import Replica
from repro.storage import wal
from repro.storage.mvstore import MVStore
from repro.storage.wal import (
    LogRecord,
    RecordKind,
    Redo,
    WriteAheadLog,
    checkpoint_record,
    install_committed,
    validate_durable,
)

# -- the reference: the tn-order replay, verbatim ----------------------------------------


def replay_committed(store: MVStore, records: Iterable[LogRecord]) -> list[int]:
    """Redo ``records`` into ``store``; returns the committed tns, ascending.

    The one place WRITE/COMMIT/ABORT records are parsed into committed
    write sets, shared by every recovery path (the centralized
    :func:`recover`, a distributed site's restart).  A transaction's
    writes are installed — idempotently, via :func:`install_committed` —
    only if its COMMIT record is among ``records``; uncommitted and
    aborted transactions are skipped, CHECKPOINT records ignored.
    Transactions replay in transaction-number order.
    """
    writes: dict[int, list[tuple[Hashable, Any]]] = {}
    committed: dict[int, int] = {}  # txn_id -> tn
    aborted: set[int] = set()
    for record in records:
        if record.kind is RecordKind.WRITE:
            writes.setdefault(record.txn_id, []).append((record.key, record.value))
        elif record.kind is RecordKind.COMMIT:
            assert record.tn is not None
            committed[record.txn_id] = record.tn
        elif record.kind is RecordKind.ABORT:
            aborted.add(record.txn_id)
    tns: list[int] = []
    for txn_id, tn in sorted(committed.items(), key=lambda item: item[1]):
        if txn_id in aborted:  # pragma: no cover - protocol never does both
            continue
        install_committed(store, tn, writes.get(txn_id, ()))
        tns.append(tn)
    return tns


def recover(log: WriteAheadLog) -> tuple[MVStore, VersionControl]:
    """Rebuild store and version control from the durable log.

    Recovery starts from the last durable CHECKPOINT carrying versions (if
    any) — the retained version set and the numbering frontier — and
    replays committed transactions' writes after it, in transaction-number
    order; a version-less marker after it only raises the frontier.  Uncommitted writes (no durable COMMIT) and aborted transactions
    are skipped — their versions never existed durably.  The rebuilt
    ``VersionControl`` resumes numbering above the highest committed
    number, with full visibility (every surviving transaction is complete).

    A torn tail record (interrupted ``force()``) marks the durable
    boundary; a malformed record before the tail raises
    :class:`~repro.errors.CorruptLogError`.
    """
    records = validate_durable(log)
    start = 0
    base_versions: list[tuple[Hashable, int, Any]] = []
    base_next_tn = 1
    for index in range(len(records) - 1, -1, -1):
        if records[index].kind is RecordKind.CHECKPOINT and records[index].value["versions"]:
            base_versions = records[index].value["versions"]
            base_next_tn = records[index].value["next_tn"]
            start = index + 1
            break
    for record in records[start:]:
        if record.kind is RecordKind.CHECKPOINT:
            base_next_tn = max(base_next_tn, record.value["next_tn"])

    store = MVStore()
    for key, tn, value in base_versions:
        if tn == 0:
            store.object(key)  # initial version exists implicitly
        else:
            store.install(key, tn, value)
    replayed = replay_committed(store, records[start:])
    max_tn = max(base_next_tn - 1, replayed[-1] if replayed else 0)
    return store, VersionControl(first_tn=max_tn + 1)


# -- logs the protocols write --------------------------------------------------------------

KEYS = ("a", "b", "c", "d")
STEPS = ("write", "write", "commit", "abort", "leg", "leg", "reapply", "checkpoint", "marker")


def _chains(store: MVStore) -> dict:
    return {
        key: [(v.tn, v.value) for v in store.object(key).versions()]
        for key in store.keys()
    }


@st.composite
def logs(draw, markers: bool = True, checkpoints: bool = True) -> WriteAheadLog:
    """A log as the schedulers and sites append it.

    Commit numbers are distinct, ascending in log order (one version
    control, the centralized scheduler) or drawn in any order (2PC sites,
    where ``tn = max`` of the holds).  A full checkpoint lists every
    committed version and is taken only with no transaction's writes in
    flight, as ``RecoverableVC2PLScheduler.checkpoint`` requires.
    """
    log = WriteAheadLog()
    numbers = draw(st.permutations(range(1, 41)))
    if draw(st.booleans()):
        numbers = sorted(numbers)
    numbers = iter(numbers)
    values = iter(range(1, 1_000))
    open_writes: dict[int, list] = {}  # txn_id -> its writes so far
    committed: dict[int, tuple[int, list]] = {}  # txn_id -> (tn, writes)
    txn_ids = iter(range(100, 1_000))
    for step in draw(st.lists(st.sampled_from(STEPS), max_size=30)):
        if step == "write":
            txn = draw(st.sampled_from([*open_writes, next(txn_ids)]))
            item = (draw(st.sampled_from(KEYS)), next(values))
            open_writes.setdefault(txn, []).append(item)
            log.append(LogRecord(RecordKind.WRITE, txn, key=item[0], value=item[1]))
        elif step in ("commit", "abort") and open_writes:
            txn = draw(st.sampled_from(sorted(open_writes)))
            writes = open_writes.pop(txn)
            if step == "abort":
                log.append(LogRecord(RecordKind.ABORT, txn))
                continue
            committed[txn] = (next(numbers), writes)
            log.append(LogRecord(RecordKind.COMMIT, txn, tn=committed[txn][0]))
            if draw(st.booleans()):
                log.force()  # else a later force makes it durable (group commit)
        elif step == "leg":
            keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True))
            txn, writes = next(txn_ids), [(key, next(values)) for key in keys]
            committed[txn] = (next(numbers), writes)
            _log_leg(log, txn, *committed[txn])
        elif step == "reapply":
            # An in-doubt leg finished again after the site restarted: its
            # write set (one value per key) logged a second time.
            legs = [t for t, (_tn, w) in committed.items() if len(dict(w)) == len(w)]
            if legs:
                txn = draw(st.sampled_from(legs))
                _log_leg(log, txn, *committed[txn])
        elif step == "checkpoint" and checkpoints and not any(open_writes.values()):
            store = MVStore()
            replay_committed(store, log.all_records())
            versions = [
                (key, v.tn, v.value)
                for key in store.keys()
                for v in store.object(key).versions()
                if v.tn != 0 or draw(st.booleans())
            ]
            top = max((tn for tn, _ in committed.values()), default=0)
            log.append(checkpoint_record(top + 1, versions))
            log.force()
        elif step == "marker" and markers:
            top = max((tn for tn, _ in committed.values()), default=0)
            next_tn = draw(st.integers(1, top + 1))
            if committed and draw(st.booleans()):
                txn = draw(st.sampled_from(sorted(committed)))
                sites = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True))
                entry = (committed[txn][0], sites)
                log.append(checkpoint_record(next_tn, xlog=entry, txn_id=txn))
            else:
                log.append(checkpoint_record(next_tn))
            log.force()
    tail = draw(st.sampled_from(("force", "torn", "volatile", "crash")))
    if tail == "force":
        log.force()
    elif tail == "torn":  # power lost while a leg's force was flushing
        _log_leg(log, next(txn_ids), next(numbers), [("a", next(values))], force=False)
        log.partial_force(draw(st.integers(1, len(log) - log.durable_length())))
    elif tail == "crash":
        log.crash()
    return log


def _log_leg(log: WriteAheadLog, txn: int, tn: int, writes: list, force: bool = True) -> None:
    """``SiteBase.log_commit``: WRITE* and COMMIT(tn), then forced."""
    for key, value in writes:
        log.append(LogRecord(RecordKind.WRITE, txn, key=key, value=value))
    log.append(LogRecord(RecordKind.COMMIT, txn, tn=tn))
    if force:
        log.force()


def _in_flight(records: list[LogRecord]) -> set[int]:
    """Transactions with a WRITE after their last COMMIT or ABORT."""
    open_txns: set[int] = set()
    for record in records:
        if record.kind is RecordKind.WRITE:
            open_txns.add(record.txn_id)
        elif record.kind in (RecordKind.COMMIT, RecordKind.ABORT):
            open_txns.discard(record.txn_id)
    return open_txns


class _Site(SiteBase):
    """A site that keeps what its restart hands the numbering hook."""

    def _restart_numbering(self, committed: list[int]) -> None:
        self.committed = committed


# -- the equivalences ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(logs())
def test_recover_matches_the_tn_order_reference(log):
    store, vc = wal.recover(log)
    reference_store, reference_vc = recover(log)
    assert _chains(store) == _chains(reference_store)
    assert (vc.tnc, vc.vtnc) == (reference_vc.tnc, reference_vc.vtnc)


@settings(max_examples=300, deadline=None)
@given(logs())
def test_site_restart_matches_the_tn_order_reference(log):
    site = _Site(0, WaitsForGraph())
    site.wal = log
    site.recover()
    reference = MVStore()
    assert site.committed == replay_committed(reference, validate_durable(log))
    assert _chains(site.store) == _chains(reference)


@settings(max_examples=300, deadline=None)
@given(logs())
def test_the_applier_keeps_only_in_flight_writes_staged(log):
    records = validate_durable(log)
    redo = Redo(MVStore())
    redo.replay(records)
    assert set(redo._staged) == _in_flight(records)


@settings(max_examples=200, deadline=None)
@given(logs(markers=False), st.data())
def test_a_replica_fed_any_segmentation_ends_with_the_recovered_chains(log, data):
    records = validate_durable(log)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(len(records) - 1, 1)), max_size=6)))
    bounds = [0, *(c for c in cuts if c < len(records)), len(records)]
    segments = [(start, records[start:end]) for start, end in zip(bounds, bounds[1:])]
    segments += data.draw(st.lists(st.sampled_from(segments), max_size=4))  # duplicates
    replica = Replica(1)
    for start, segment in data.draw(st.permutations(segments)):
        replica.receive_segment(0, start, segment)
    assert replica.applied_offset == len(records)
    store, _vc = wal.recover(log)
    assert _chains(replica.store) == _chains(store)


def test_a_marker_is_not_a_restart_point():
    """A shard's visibility marker after a commit: the commit survives."""
    log = WriteAheadLog()
    _log_leg(log, 100, 1, [("x", 1)])
    log.append(checkpoint_record(2))
    log.force()
    store, vc = wal.recover(log)
    assert _chains(store) == {"x": [(0, None), (1, 1)]}
    assert (vc.tnc, vc.vtnc) == (2, 1)


@settings(max_examples=300, deadline=None)
@given(logs(checkpoints=False))
def test_a_log_of_commits_and_markers_recovers_every_commit(log):
    """With no checkpoint carrying versions, recovery redoes the whole
    durable log — visibility and xlog markers interleaved with the commits
    only raise the numbering frontier — as the reference does over it."""
    records = validate_durable(log)
    store, vc = wal.recover(log)
    reference = MVStore()
    tns = replay_committed(reference, records)
    assert _chains(store) == _chains(reference)
    floor = max(
        (r.value["next_tn"] - 1 for r in records if r.kind is RecordKind.CHECKPOINT), default=0
    )
    assert vc.tnc == max(floor, tns[-1] if tns else 0) + 1
