"""The online serializability witness: topology, engine, sealing, parity.

Four layers of evidence that the streaming certifier is the offline
checker's equal (see ``docs/witness.md``):

* unit tests of the Pearce–Kelly incremental topology, including the
  ordering invariant and both removal operations (sealing / rebase);
* synthetic ``history.*`` streams exercising the edge rules, the
  committed projection, pending-read resolution, and the tripwires;
* parity between :class:`WitnessEngine` and
  :func:`~repro.histories.checker.check_one_copy_serializable` on real
  protocol runs and on hypothesis-randomized histories;
* the sealing bound: peak tracked state depends on the live-transaction
  window, not run length.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories import History, check_one_copy_serializable
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.witness import IncrementalTopology, WitnessEngine, witness_history


# -- incremental topology ----------------------------------------------------------


class TestIncrementalTopology:
    def test_edges_respecting_order_are_cheap_noops(self):
        topo = IncrementalTopology()
        assert topo.add_edge(1, 2) is None
        assert topo.add_edge(2, 3) is None
        assert topo.order() == [1, 2, 3]
        assert topo.check()

    def test_order_violating_insert_renumbers_locally(self):
        topo = IncrementalTopology()
        for node in (1, 2, 3, 4):
            topo.add_node(node)
        # Insertion order gave 1 < 2 < 3 < 4; edge 4 -> 1 must flip it.
        assert topo.add_edge(4, 1) is None
        order = topo.order()
        assert order.index(4) < order.index(1)
        assert topo.check()

    def test_cycle_refused_and_returned_as_node_list(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(2, 3)
        cycle = topo.add_edge(3, 1)
        assert cycle is not None
        assert cycle[0] == cycle[-1] == 3
        assert set(cycle) == {1, 2, 3}
        # Refused: the structure stays acyclic and the edge is absent.
        assert not topo.has_edge(3, 1)
        assert topo.check()

    def test_consecutive_cycle_nodes_are_real_edges(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(2, 3)
        topo.add_edge(2, 4)
        topo.add_edge(4, 5)
        cycle = topo.add_edge(5, 1)
        assert cycle[0] == cycle[-1] == 5
        for u, v in zip(cycle[1:-1], cycle[2:]):
            assert topo.has_edge(u, v)

    def test_self_loop_is_a_cycle(self):
        topo = IncrementalTopology()
        assert topo.add_edge(7, 7) == [7, 7]

    def test_duplicate_edges_counted_once(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(1, 2)
        assert topo.edges == 1 and topo.edges_added == 1

    def test_remove_source_refuses_non_sources(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        with pytest.raises(ValueError, match="predecessors"):
            topo.remove_source(2)

    def test_remove_source_unlinks_outgoing(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(1, 3)
        topo.remove_source(1)
        assert 1 not in topo
        assert topo.indegree(2) == 0 and topo.indegree(3) == 0
        assert topo.edges == 0
        assert topo.check()

    def test_remove_node_unlinks_both_directions(self):
        # The rebase operation: unlike sealing, incoming edges go too.
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(2, 3)
        topo.remove_node(2)
        assert 2 not in topo
        assert topo.successors(1) == set() and topo.predecessors(3) == set()
        assert topo.edges == 0
        assert topo.check()

    def test_randomized_inserts_keep_invariant(self):
        import random

        rng = random.Random(0)
        topo = IncrementalTopology()
        refused = 0
        for _ in range(400):
            u, v = rng.randrange(30), rng.randrange(30)
            if topo.add_edge(u, v) is not None:
                refused += 1
            assert topo.check()
        assert refused > 0  # dense random graphs do close cycles


# -- synthetic event streams -------------------------------------------------------


def feed(engine, *events):
    ts = engine._last_ts  # stay monotone across calls (no seam rollover)
    for name, fields in events:
        ts += 1.0
        engine.export({"name": name, "ts": ts, **fields})
    return engine


def commit_rw(engine, txn, tn, *, reads=(), writes=()):
    """One full committed read-write transaction through the live surface."""
    events = [("history.begin", {"txn": txn, "cls": "rw"})]
    events += [
        ("history.read", {"txn": txn, "key": k, "version": v}) for k, v in reads
    ]
    events += [("history.write", {"txn": txn, "key": k}) for k in writes]
    events.append(
        ("history.commit", {"txn": txn, "ident": tn, "tn": tn, "cls": "rw"})
    )
    feed(engine, *events)


class TestWitnessSyntheticStreams:
    def test_serial_writers_certify(self):
        engine = WitnessEngine(seal=False)
        commit_rw(engine, 1, 1, writes=["x"])
        commit_rw(engine, 2, 2, reads=[("x", 1)], writes=["x"])
        engine.finish()
        assert engine.ok and engine.serializable
        assert engine.committed == 2

    def test_write_skew_cycle_reported_at_closing_edge(self):
        # T1 reads x_0 writes y; T2 reads y_0 writes x — the classic MVSG
        # cycle; the second commit closes it.
        engine = WitnessEngine(seal=False)
        feed(
            engine,
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            ("history.read", {"txn": 1, "key": "x", "version": 0}),
            ("history.read", {"txn": 2, "key": "y", "version": 0}),
            ("history.write", {"txn": 1, "key": "y"}),
            ("history.write", {"txn": 2, "key": "x"}),
            ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}),
            ("history.commit", {"txn": 2, "ident": 2, "tn": 2, "cls": "rw"}),
        )
        engine.finish()
        assert not engine.serializable
        assert engine.violation_count == 1
        violation = engine.violations[0]
        assert violation["cycle"][0] == violation["cycle"][-1]
        assert set(violation["cycle"]) == {1, 2}
        assert violation["edge_kind"] in ("rw", "ww")
        # The report carries the violation verbatim.
        report = engine.report()
        assert report["ok"] is False and report["violation_count"] == 1

    def test_aborted_transactions_leave_the_projection(self):
        # Same write skew, but T2 aborts: committed projection is clean.
        engine = WitnessEngine(seal=False)
        feed(
            engine,
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            ("history.read", {"txn": 1, "key": "x", "version": 0}),
            ("history.read", {"txn": 2, "key": "y", "version": 0}),
            ("history.write", {"txn": 1, "key": "y"}),
            ("history.write", {"txn": 2, "key": "x"}),
            ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}),
            ("history.abort", {"txn": 2, "ident": -1, "tn": None, "cls": "rw"}),
        )
        engine.finish()
        assert engine.ok
        assert engine.committed == 1 and engine.aborted == 1

    def test_read_from_uncommitted_writer_is_pending_until_its_commit(self):
        engine = WitnessEngine(seal=False)
        feed(
            engine,
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.write", {"txn": 1, "key": "x"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            # T2 reads version 1 before T1 (tn=1) commits.
            ("history.read", {"txn": 2, "key": "x", "version": 1}),
            ("history.commit", {"txn": 2, "ident": 2, "tn": 2, "cls": "rw"}),
        )
        report = engine.report()
        assert report["pending_unresolved"] == 1
        feed(engine, ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}))
        engine.finish()
        assert engine.ok
        assert engine.report()["pending_unresolved"] == 0

    def test_pending_read_dropped_when_writer_aborts(self):
        # The projection drops reads from never-committed writers.
        engine = WitnessEngine(seal=False)
        feed(
            engine,
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.write", {"txn": 1, "key": "x"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            ("history.read", {"txn": 2, "key": "x", "version": 1}),
            ("history.commit", {"txn": 2, "ident": 2, "tn": 2, "cls": "rw"}),
            ("history.abort", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}),
        )
        engine.finish()
        assert engine.ok
        assert engine.pending_dropped == 1

    def test_duplicate_commit_is_idempotent(self):
        engine = WitnessEngine(seal=False)
        commit_rw(engine, 1, 1, writes=["x"])
        feed(engine, ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}))
        engine.finish()
        assert engine.duplicate_commits == 1
        assert engine.committed == 1

    def test_read_only_snapshot_reader(self):
        engine = WitnessEngine(seal=False)
        commit_rw(engine, 1, 1, writes=["x"])
        commit_rw(engine, 2, 2, writes=["x"])
        ro = RO_ID_OFFSET + 3
        feed(
            engine,
            ("history.begin", {"txn": 3, "cls": "ro"}),
            # Snapshot read of the superseded version: legal, serializes
            # before tn=2 (an rw anti-dependency edge).
            ("history.read", {"txn": 3, "key": "x", "version": 1}),
            ("history.commit", {"txn": 3, "ident": ro, "tn": None, "cls": "ro"}),
        )
        engine.finish()
        assert engine.ok


class TestGateViolations:
    def test_empty_when_certified(self):
        engine = WitnessEngine()
        commit_rw(engine, 1, 1, writes=["x"])
        engine.finish()
        assert engine.gate_violations() == []

    def test_cycle_becomes_campaign_violation_string(self):
        engine = WitnessEngine(seal=False)
        feed(
            engine,
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            ("history.read", {"txn": 1, "key": "x", "version": 0}),
            ("history.read", {"txn": 2, "key": "y", "version": 0}),
            ("history.write", {"txn": 1, "key": "y"}),
            ("history.write", {"txn": 2, "key": "x"}),
            ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}),
            ("history.commit", {"txn": 2, "ident": 2, "tn": 2, "cls": "rw"}),
        )
        engine.finish()
        violations = engine.gate_violations()
        assert len(violations) == 1
        assert "MVSG cycle" in violations[0] and "->" in violations[0]


# -- sealing -----------------------------------------------------------------------


def watermarked_writer_stream(engine, n, *, keys=4):
    """n sequential committed writers with the watermark chasing them."""
    ts = 0.0
    for tn in range(1, n + 1):
        ts += 1.0
        engine.export({"name": "history.begin", "ts": ts, "txn": tn, "cls": "rw"})
        engine.export({
            "name": "history.read", "ts": ts,
            "txn": tn, "key": f"k{tn % keys}", "version": max(0, tn - keys),
        })
        engine.export({"name": "history.write", "ts": ts, "txn": tn, "key": f"k{tn % keys}"})
        engine.export(
            {"name": "history.commit", "ts": ts, "txn": tn, "ident": tn, "tn": tn, "cls": "rw"}
        )
        engine.export({"name": "vc.advance", "ts": ts, "number": tn, "tnc": tn + 1, "vtnc": tn})


class TestSealing:
    def test_peak_tracked_independent_of_run_length(self):
        short = WitnessEngine(seal=True)
        watermarked_writer_stream(short, 100)
        short.finish()
        long = WitnessEngine(seal=True)
        watermarked_writer_stream(long, 1000)
        long.finish()
        assert short.ok and long.ok
        assert long.committed == 10 * short.committed
        # The bound: 10x the events, identical footprint.
        assert long.peak_tracked == short.peak_tracked
        assert long.peak_tracked < 20

    def test_sealed_run_verdict_matches_exact_mode(self):
        exact = WitnessEngine(seal=False)
        watermarked_writer_stream(exact, 300)
        exact.finish()
        sealed = WitnessEngine(seal=True)
        watermarked_writer_stream(sealed, 300)
        sealed.finish()
        assert sealed.serializable == exact.serializable
        assert sealed.late_sealed_reads == 0
        assert sealed.sealed > 0
        assert exact.sealed == 0  # exact mode never folds

    def test_late_read_below_pruned_frontier_taints_verdict(self):
        # Adversarial stream: advance the watermark far past version 1,
        # then read it after the frontier pruned it.  Impossible for the
        # protocols here; the tripwire must refuse to certify.
        engine = WitnessEngine(seal=True)
        watermarked_writer_stream(engine, 50, keys=1)
        ro = RO_ID_OFFSET + 99
        engine.export({"name": "history.begin", "ts": 1000.0, "txn": 99, "cls": "ro"})
        engine.export({"name": "history.read", "ts": 1001.0, "txn": 99, "key": "k0", "version": 1})
        engine.export({
            "name": "history.commit", "ts": 1002.0,
            "txn": 99, "ident": ro, "tn": None, "cls": "ro",
        })
        engine.finish()
        assert engine.late_sealed_reads > 0
        assert not engine.ok  # serializable may hold; certification must not
        assert any("sealed frontier" in v for v in engine.gate_violations())

    def test_live_reader_blocks_sealing_of_its_version(self):
        engine = WitnessEngine(seal=True)
        # A reader holds version 1 of k0 open across the whole stream.
        engine.export({"name": "history.begin", "ts": 0.5, "txn": 999, "cls": "ro"})
        watermarked_writer_stream(engine, 60, keys=1)
        engine.export({"name": "history.read", "ts": 100.0, "txn": 999, "key": "k0", "version": 1})
        ro = RO_ID_OFFSET + 999
        engine.export({
            "name": "history.commit", "ts": 101.0,
            "txn": 999, "ident": ro, "tn": None, "cls": "ro",
        })
        engine.finish()
        assert engine.ok
        assert engine.late_sealed_reads == 0

    @staticmethod
    def _two_readers_one_reading_twice(twice):
        """A held token pins writer 1 of ``k``; two read-only readers of its
        version commit behind it (reader ``twice`` reads ``k`` twice), the
        token aborts so all three seal in one pass, and writer 2 of ``k``
        folds the sealed readers' pairs into ``edges_folded``."""
        engine = WitnessEngine(seal=True)
        feed(engine, ("history.begin", {"txn": 100, "cls": "rw"}))
        commit_rw(engine, 1, 1, writes=["k"])
        for txn in (11, 12):
            feed(engine, ("history.begin", {"txn": txn, "cls": "ro"}))
            for _ in range(2 if txn == twice else 1):
                feed(engine, ("history.read", {"txn": txn, "key": "k", "version": 1}))
            feed(engine, ("history.commit", {
                "txn": txn, "ident": RO_ID_OFFSET + txn, "tn": None, "cls": "ro",
            }))
        assert engine.sealed == 0
        feed(engine, ("history.abort", {"txn": 100, "ident": None, "tn": None}))
        assert engine.sealed == 3
        commit_rw(engine, 2, 2, writes=["k"])
        engine.finish()
        assert engine.ok
        return engine.report()

    def test_edges_folded_does_not_depend_on_which_reader_read_twice(self):
        """Sealing order decides which reader leaves ``_rf_pairs`` last; a
        pair read twice must count once either way (one edge per distinct
        pair, as the live write rule derives)."""
        first = self._two_readers_one_reading_twice(11)
        second = self._two_readers_one_reading_twice(12)
        assert first["edges_folded"] == second["edges_folded"]
        assert first == second


class TestFailoverRebase:
    def _pre_failover(self, engine):
        watermarked_writer_stream(engine, 3)
        # Replicas acked through tn=3; the deposed primary then commits
        # 4 and 5 which never ship.
        engine.export(
            {"name": "replica.watermark", "ts": engine._last_ts + 1, "replica": "r1", "vtnc": 3}
        )
        commit_rw(engine, 4, 4, writes=["k0"])
        commit_rw(engine, 5, 5, writes=["k1"])

    def test_lost_suffix_dropped_and_counters_clamped(self):
        engine = WitnessEngine(seal=True)
        self._pre_failover(engine)
        engine.export(
            {"name": "replica.promote", "ts": engine._last_ts + 1, "replica": "r1", "vtnc": 3}
        )
        assert engine.rebases == 1
        assert engine.lost_commits == 2
        # The new primary re-issues tns 4 and 5: no identity collision,
        # no phantom cycle.
        commit_rw(engine, 104, 4, reads=[("k0", 3)], writes=["k0"])
        commit_rw(engine, 105, 5, reads=[("k0", 4)], writes=["k1"])
        engine.finish()
        assert engine.ok

    def test_without_rebase_reissued_tns_would_collide(self):
        # The control experiment: the same stream minus the promote event
        # trips duplicate-commit suppression on the re-issued tn.
        engine = WitnessEngine(seal=True)
        self._pre_failover(engine)
        commit_rw(engine, 104, 4, reads=[("k0", 3)], writes=["k0"])
        engine.finish()
        assert engine.duplicate_commits == 1


class TestTraceSeams:
    """A timestamp regression mid-stream means an independent run follows
    (a campaign trace concatenates every drill into one JSONL file) — the
    finished segment folds away and re-issued tns must not alias it."""

    def test_timestamp_regression_starts_a_new_segment(self):
        engine = WitnessEngine(seal=True)
        watermarked_writer_stream(engine, 40)
        # Second drill, same tns, simulator restarted at ts 0.
        watermarked_writer_stream(engine, 40)
        engine.finish()
        assert engine.segments == 2
        assert engine.committed == 80
        assert engine.duplicate_commits == 0
        assert engine.late_sealed_reads == 0
        assert engine.ok
        assert engine.report()["segments"] == 2

    def test_cycle_in_any_segment_fails_the_whole_verdict(self):
        engine = WitnessEngine(seal=True)
        watermarked_writer_stream(engine, 10)
        skew = [
            ("history.begin", {"txn": 1, "cls": "rw"}),
            ("history.begin", {"txn": 2, "cls": "rw"}),
            ("history.read", {"txn": 1, "key": "x", "version": 0}),
            ("history.read", {"txn": 2, "key": "y", "version": 0}),
            ("history.write", {"txn": 1, "key": "y"}),
            ("history.write", {"txn": 2, "key": "x"}),
            ("history.commit", {"txn": 1, "ident": 1, "tn": 1, "cls": "rw"}),
            ("history.commit", {"txn": 2, "ident": 2, "tn": 2, "cls": "rw"}),
        ]
        for ts, (name, fields) in enumerate(skew, start=1):
            engine.export({"name": name, "ts": float(ts), **fields})
        engine.finish()
        assert engine.segments == 2
        assert not engine.serializable and not engine.ok
        assert engine.violation_count == 1

    def test_rollover_accounts_the_survivors(self):
        # Exact mode keeps every node live; the seam must fold them all
        # (graph restarts empty) while cumulative counters keep counting.
        engine = WitnessEngine(seal=False)
        watermarked_writer_stream(engine, 20)
        live_edges_before = engine._topo.edges_added
        assert len(engine._nodes) == 20
        watermarked_writer_stream(engine, 20)
        engine.finish()
        assert len(engine._nodes) == 20  # second run only
        assert engine.sealed >= 20  # first run folded at the seam
        assert engine.folded_edges >= live_edges_before
        assert engine.committed == 40


# -- parity with the offline checker ----------------------------------------------


PARITY_PROTOCOLS = ("vc-2pl", "vc-to", "mv2pl-chan", "sv-2pl")


def run_protocol(protocol, seed=0, duration=150.0):
    from repro.bench.runner import SimConfig, run_simulation
    from repro.obs.pipeline import ObsPipeline
    from repro.protocols.registry import make_scheduler
    from repro.sim.engine import Simulator
    from repro.workload.mixes import balanced

    sim = Simulator()
    db = make_scheduler(protocol)
    certifier = WitnessEngine(seal=True)
    pipeline = ObsPipeline(sim=sim, witness=certifier)
    run_simulation(
        db, balanced(seed=seed), SimConfig(duration=duration),
        tracer=pipeline.tracer, sim=sim,
    )
    pipeline.close()
    return db, certifier


class TestProtocolParity:
    @pytest.mark.parametrize("protocol", PARITY_PROTOCOLS)
    def test_live_sealed_verdict_matches_offline_checker(self, protocol):
        db, certifier = run_protocol(protocol)
        offline = check_one_copy_serializable(db.history)
        assert certifier.serializable == offline.serializable
        assert certifier.late_sealed_reads == 0
        assert certifier.ok == offline.serializable
        assert certifier.committed > 0

    def test_sealing_engages_on_vc_protocols(self):
        _db, certifier = run_protocol("vc-2pl")
        assert certifier.sealed > 0
        assert certifier.peak_tracked < certifier.committed

    def test_offline_bridge_matches_checker_exactly(self):
        db, _ = run_protocol("vc-to", seed=1)
        offline = check_one_copy_serializable(db.history)
        bridged = witness_history(db.history, seal=False)
        assert bridged.serializable == offline.serializable


# -- randomized histories ----------------------------------------------------------


@st.composite
def small_mv_history(draw):
    """Random plausible MV histories: <= 6 txns, 3 keys, optional aborts.

    Mirrors the checker's own property test but adds aborted transactions
    (whose writes earlier transactions may *not* read — the generator only
    offers committed-so-far versions, like a real store) so the witness's
    committed-projection handling is exercised too.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    keys = ["x", "y", "z"]
    written = {key: [0] for key in keys}
    ops = []
    for txn in range(1, n + 1):
        aborts = draw(st.booleans()) and draw(st.booleans())  # ~25%
        wrote = []
        for key in keys:
            action = draw(st.sampled_from(["skip", "read", "write", "rw"]))
            if action in ("read", "rw"):
                version = draw(st.sampled_from(written[key]))
                ops.append(f"r{txn}[{key}_{version}]")
            if action in ("write", "rw"):
                ops.append(f"w{txn}[{key}_{txn}]")
                wrote.append(key)
        if aborts:
            ops.append(f"a{txn}")
        else:
            ops.append(f"c{txn}")
            for key in wrote:
                written[key].append(txn)
    return History.parse(" ".join(ops))


@settings(max_examples=200, deadline=None)
@given(history=small_mv_history())
def test_property_witness_matches_offline_checker(history):
    """Exact-mode witness == offline checker on every randomized history."""
    offline = check_one_copy_serializable(history)
    engine = witness_history(history, seal=False)
    assert engine.serializable == offline.serializable, (
        f"witness disagrees with checker on: {history}"
    )


@settings(max_examples=200, deadline=None)
@given(history=small_mv_history())
def test_property_sealing_matches_or_declares_taint(history):
    """Sealed mode either reproduces the exact verdict or raises the
    tripwire — it may never silently certify a non-1SR history."""
    offline = check_one_copy_serializable(history)
    engine = witness_history(history, seal=True)
    if engine.late_sealed_reads == 0:
        assert engine.serializable == offline.serializable
    else:
        assert not engine.ok  # tainted: refuses to certify


# -- report surface ----------------------------------------------------------------


class TestReport:
    def test_report_shape_and_determinism(self):
        import json

        def build():
            engine = WitnessEngine(seal=True)
            watermarked_writer_stream(engine, 40)
            engine.finish()
            return engine.report()

        first, second = build(), build()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert first["schema"] == "repro.witness/1"
        for key in ("ok", "serializable", "violations", "peak_tracked",
                    "sealed", "late_sealed_reads", "rebases", "events"):
            assert key in first

    def test_render_mentions_verdict(self):
        engine = WitnessEngine()
        commit_rw(engine, 1, 1, writes=["x"])
        engine.finish()
        assert "1SR certified" in engine.render()
