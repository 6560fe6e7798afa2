"""Per-transaction state: named fields with one owner, nothing kept past finish.

Two contracts (DESIGN.md, "Per-transaction state"):

* **The guard.**  ``Transaction.meta`` is five client-facing annotations
  and nothing else.  An AST walk over ``src/repro`` holds every access to a
  string literal from that set and every *reader* to the three clients that
  read them; protocol state is slots, so a misspelt name raises.
* **Finish.**  After commit and after abort — user, deadlock victim, site
  failure — no slot of the descriptor, or of the record on ``private``,
  holds a future, a callable or a scheduler.
"""

import ast
import pathlib

import pytest

import repro
from repro.core.futures import OpFuture
from repro.core.interface import TransactionBookkeeping
from repro.core.transaction import Transaction, TxnClass
from repro.distributed import DistributedMV2PL, DistributedVCDatabase
from repro.errors import TransactionAborted
from repro.obs.instrument import attach_tracer
from repro.obs.tracer import Tracer
from repro.protocols.registry import PROTOCOLS, make_scheduler
from repro.qos import AdmissionController
from repro.replica.cluster import ReplicaCluster
from repro.replica.node import Replica
from repro.replica.session import ReplicatedDatabase
from repro.shard import ShardedDatabase
from repro.storage.gc import SnapshotLease

SRC = pathlib.Path(repro.__file__).parent

#: What the database reports about the snapshot it handed out.
ANNOTATIONS = {
    "qos.staleness", "shard.staleness", "replica.id", "replica.stale", "replica.lag",
}
#: The session façade and the two campaign clients.
READERS = {"core/session.py", "qos/overload.py", "shard/campaign.py"}
#: Packages the descriptor may not know about.
TOPOLOGY = ("distributed", "shard", "replica", "protocols", "qos")


def meta_accesses():
    """``(file, line, key node, reads)`` for every use of an attribute named
    ``meta`` under ``src/repro``; ``key`` is None for a use that is neither a
    subscript nor a ``get``/``pop``/``setdefault`` call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        keyed = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and _is_meta(node.value):
                keyed[id(node.value)] = (node.slice, isinstance(node.ctx, ast.Load))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop", "setdefault")
                and _is_meta(node.func.value)
            ):
                keyed[id(node.func.value)] = (node.args[0], True)
        for node in ast.walk(tree):
            if _is_meta(node):
                key, reads = keyed.get(id(node), (None, False))
                found.append((path.relative_to(SRC).as_posix(), node.lineno, key, reads))
    return found


def _is_meta(node):
    return isinstance(node, ast.Attribute) and node.attr == "meta"


class TestGuard:
    def test_meta_is_keyed_by_the_five_annotation_literals_only(self):
        accesses = meta_accesses()
        bare = [(f, line) for f, line, key, _ in accesses if key is None]
        assert bare == [("core/transaction.py", bare[0][1])], (
            "the one unkeyed use is the constructor's `self.meta = {}`"
        )
        for file, line, key, _ in accesses:
            if key is not None:
                assert isinstance(key, ast.Constant) and key.value in ANNOTATIONS, (
                    f"{file}:{line}: txn.meta is keyed by {ast.unparse(key)}"
                )
        assert len(accesses) - 1 <= 11

    def test_only_clients_read_annotations(self):
        readers = {file for file, _, _, reads in meta_accesses() if reads}
        assert readers == READERS

    def test_descriptor_has_no_dict_and_rejects_misspelt_names(self):
        txn = Transaction()
        assert not hasattr(txn, "__dict__")
        with pytest.raises(AttributeError):
            txn.particpants = set()
        with pytest.raises(AttributeError):
            txn.dedline

    def test_class_flags_are_slots_that_cannot_drift_from_txn_class(self):
        """``is_read_only`` / ``is_read_write`` are set once from ``txn_class``
        so the hot path reads a slot; nothing may assign any of the three
        again, or the flags would say one class and ``txn_class`` another."""
        for txn_class in TxnClass:
            txn = Transaction(txn_class)
            assert txn.is_read_only is (txn_class is TxnClass.READ_ONLY)
            assert txn.is_read_write is (txn_class is TxnClass.READ_WRITE)
            assert txn.is_read_only is not txn.is_read_write
        assert {"txn_class", "is_read_only", "is_read_write"} <= set(
            Transaction.__slots__
        )
        stores = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("txn_class", "is_read_only", "is_read_write")
                    and not isinstance(node.ctx, ast.Load)
                ):
                    stores.append((path.relative_to(SRC).as_posix(), node.attr))
        assert stores == [
            ("core/transaction.py", "txn_class"),
            ("core/transaction.py", "is_read_only"),
            ("core/transaction.py", "is_read_write"),
        ]

    def test_descriptor_imports_no_topology(self):
        tree = ast.parse((SRC / "core/transaction.py").read_text())
        imported = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert not [
            name for name in imported
            if name.startswith(tuple(f"repro.{package}" for package in TOPOLOGY))
        ]


# -- finish ----------------------------------------------------------------------


def held_machinery(txn):
    """``slot = value`` for everything in flight a descriptor still holds."""

    def in_flight(value):
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(in_flight(item) for item in value)
        if isinstance(value, dict):
            return any(in_flight(item) for item in value.values())
        return callable(value) or isinstance(
            value, (OpFuture, TransactionBookkeeping, Replica)
        )

    def slots(obj):
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                yield slot, getattr(obj, slot)

    held = [(f"txn.{slot}", value) for slot, value in slots(txn) if in_flight(value)]
    if txn.private is not None:
        held += [
            (f"txn.private.{slot}", value)
            for slot, value in slots(txn.private)
            if in_flight(value)
        ]
    return held


def _do(op, *args):
    """Issue one operation; a refused one fails its future or raises."""
    try:
        return op(*args)
    except TransactionAborted:
        return None


def exercise(db, begin_ro, keys, crash=None):
    """Every way a transaction ends; returns every descriptor begun."""
    x, y = keys
    begun = []

    def begin(read_only=False):
        txn = begin_ro() if read_only else db.begin()
        begun.append(txn)
        return txn

    committed = begin()
    db.write(committed, x, 1).result()
    db.read(committed, y).result()
    db.commit(committed).result()
    reader = begin(read_only=True)
    db.read(reader, x).result()
    db.commit(reader).result()
    db.abort(begin(read_only=True))
    quitter = begin()
    db.write(quitter, x, 2).result()
    db.abort(quitter)
    # Two writers crossing on two keys: a deadlock under locking, a
    # rejection or a wait under timestamps and validation.
    crossing = begin(), begin()
    for txn, key in zip(crossing * 2, (x, y, y, x)):
        if txn.is_active:
            _do(db.write, txn, key, 3)
    for txn in crossing:
        if txn.is_active:
            _do(db.commit, txn)
    if crash is not None:
        stranded = begin()
        db.write(stranded, x, 4).result()
        crash(x)
        assert stranded.abort_reason is repro.AbortReason.SITE_FAILURE
    for txn in begun:
        if txn.is_active:
            db.abort(txn)
    return begun


def _distributed(cls, keys, **begin_ro):
    def build():
        db = cls(3)
        return db, (lambda: db.begin(read_only=True, **begin_ro)), keys, (
            lambda key: db.crash_restart_site(db.site_of_key(key).site_id)
        )

    return build


def _registry(name):
    def build():
        db = make_scheduler(name)
        db.admission = AdmissionController()
        return db, (lambda: db.begin(read_only=True)), ("x", "y"), None

    return build


def _replica():
    db = ReplicatedDatabase(ReplicaCluster(n_replicas=1))
    with db.transaction() as txn:
        txn.write("x", 1)
    (replica,) = db.cluster.replicas.values()
    return replica


TARGETS = {name: _registry(name) for name in PROTOCOLS}
TARGETS["dist-vc"] = _distributed(DistributedVCDatabase, ("s1:x", "s2:y"))
TARGETS["dist-mv2pl"] = _distributed(
    DistributedMV2PL, ("s1:x", "s2:y"), read_sites=(1, 2)
)
TARGETS["shard"] = _distributed(ShardedDatabase, ("x", "y"))


class TestFinishedTransactionHoldsNothing:
    @pytest.mark.parametrize("name", TARGETS)
    def test_after_commit_and_after_every_abort(self, name):
        db, begin_ro, keys, crash = TARGETS[name]()
        attach_tracer(db, Tracer())  # so the root span is really there to drop
        begun = exercise(db, begin_ro, keys, crash)
        assert {txn.state.value for txn in begun} == {"committed", "aborted"}
        for txn in begun:
            assert held_machinery(txn) == [], txn
            assert txn.span is None and not txn.admitted, txn
            # The walk reads ``__slots__``: a record with a ``__dict__``
            # would pass it unseen.
            assert txn.private is None or not hasattr(txn.private, "__dict__"), txn
        assert not db.active_transactions()

    @pytest.mark.parametrize("name", sorted(n for n in PROTOCOLS if n.startswith("vc-")))
    def test_version_controlled_reader_holds_its_snapshot_lease(self, name):
        """The DESIGN.md owner row: written at read-only begin, never
        cleared — ``release()`` has nothing to drop."""
        db, begin_ro, keys, _ = TARGETS[name]()
        begun = exercise(db, begin_ro, keys)
        readers = [txn for txn in begun if txn.is_read_only]
        assert len(readers) == 2
        for txn in readers:
            assert type(txn.private) is SnapshotLease
            assert txn.private.txn_id == txn.txn_id and txn.private.sn == txn.sn
            assert db.ro_registry.lease_of(txn) is None  # deregistered at finish

    def test_replica_session(self):
        replica = _replica()
        attach_tracer(replica, Tracer())
        reader = replica.begin(read_only=True, deadline=5)
        assert reader.deadline == 5.0
        assert replica.read(reader, "x").result() == 1
        replica.commit(reader).result()
        quitter = replica.begin(read_only=True)
        replica.abort(quitter)
        for txn in (reader, quitter):
            assert txn.is_finished and held_machinery(txn) == [] and txn.span is None
