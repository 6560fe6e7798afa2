"""Distributed commits must yield one connected span tree per transaction.

The acceptance bar for the span layer: a 2PC commit that touches several
sites — coordinator bookkeeping, per-site prepare and commit legs, the
courier hops between them — reconstructs as a *single* tree rooted at the
transaction's ``txn`` span, and the critical path through that tree names
both 2PC legs.  Anything disconnected means a context was dropped at a
courier hop.
"""

from repro.distributed.courier import Courier
from repro.distributed.database import DistributedVCDatabase
from repro.distributed.dmv2pl import DistributedMV2PL
from repro.obs.exporters import RingBufferExporter
from repro.obs.instrument import attach_tracer
from repro.obs.profile import critical_path, phase_shares, site_shares
from repro.obs.spans import transaction_trees
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator


def traced_commit(make_db):
    """Run one two-site read-write transaction to commit under tracing."""
    sim = Simulator()
    ring = RingBufferExporter(capacity=65_536)
    tracer = Tracer(exporters=[ring], clock=lambda: sim.now)
    courier = Courier(sim=sim, latency=1.0)
    db = make_db(courier)
    instrumentation = attach_tracer(db, tracer)
    done = {}

    def proc():
        txn = db.begin()
        yield db.write(txn, "s1:a", 1)
        yield db.write(txn, "s2:b", 2)
        yield db.commit(txn)
        done["txn"] = txn

    sim.spawn(proc())
    sim.run()
    instrumentation.detach()
    assert "txn" in done, "transaction did not commit"
    events = ring.events()
    return done["txn"], transaction_trees(events), events


class TestDistributedVC2PC:
    def test_commit_produces_single_connected_tree(self):
        txn, trees, events = traced_commit(
            lambda courier: DistributedVCDatabase(n_sites=3, courier=courier)
        )
        root = trees[txn.txn_id]
        assert root.name == "txn" and root.ok is True
        # Connectedness: every span event of this trace is inside the tree.
        tree_ids = {n.span_id for n in root.walk() if n.span_id > 0}
        trace_ids = {
            e["span"]
            for e in events
            if e["name"] == "span.start" and e.get("trace") == root.trace_id
        }
        assert trace_ids == tree_ids

    def test_tree_spans_coordinator_and_participant_sites(self):
        txn, trees, _ = traced_commit(
            lambda courier: DistributedVCDatabase(n_sites=3, courier=courier)
        )
        root = trees[txn.txn_id]
        sites = {
            n.fields.get("site")
            for n in root.walk()
            if n.fields.get("site") is not None
        }
        assert {1, 2} <= sites  # both written sites ran 2PC legs
        names = {n.name for n in root.walk()}
        assert {"commit", "msg", "2pc.prepare", "2pc.commit"} <= names

    def test_critical_path_includes_prepare_and_commit_legs(self):
        txn, trees, _ = traced_commit(
            lambda courier: DistributedVCDatabase(n_sites=3, courier=courier)
        )
        names = critical_path(trees[txn.txn_id]).span_names()
        assert "2pc.prepare" in names
        assert "2pc.commit" in names
        assert names.index("2pc.prepare") < names.index("2pc.commit")

    def test_phase_and_site_attribution(self):
        txn, trees, _ = traced_commit(
            lambda courier: DistributedVCDatabase(n_sites=3, courier=courier)
        )
        root = trees[txn.txn_id]
        shares = phase_shares(root)
        assert sum(shares.values()) > 0.999
        assert shares.get("network", 0.0) > 0.0  # courier hops cost 1.0 each
        assert set(site_shares(root)) >= {"local"}


class TestDMV2PL2PC:
    def test_commit_produces_single_connected_tree(self):
        txn, trees, events = traced_commit(
            lambda courier: DistributedMV2PL(n_sites=3, courier=courier)
        )
        root = trees[txn.txn_id]
        assert root.name == "txn" and root.ok is True
        tree_ids = {n.span_id for n in root.walk() if n.span_id > 0}
        trace_ids = {
            e["span"]
            for e in events
            if e["name"] == "span.start" and e.get("trace") == root.trace_id
        }
        assert trace_ids == tree_ids

    def test_critical_path_includes_prepare_and_commit_legs(self):
        txn, trees, _ = traced_commit(
            lambda courier: DistributedMV2PL(n_sites=3, courier=courier)
        )
        names = critical_path(trees[txn.txn_id]).span_names()
        # One-phase commit: the forced-WAL durability point is the prepare
        # leg, the install/release step the commit leg — same arrival, so
        # they ride the path as ordered zero-length steps.
        assert "2pc.prepare" in names
        assert "2pc.commit" in names
        assert names.index("2pc.prepare") < names.index("2pc.commit")

    def test_both_written_sites_on_the_tree(self):
        txn, trees, _ = traced_commit(
            lambda courier: DistributedMV2PL(n_sites=3, courier=courier)
        )
        sites = {
            n.fields.get("site")
            for n in trees[txn.txn_id].walk()
            if n.fields.get("site") is not None
        }
        assert {1, 2} <= sites
