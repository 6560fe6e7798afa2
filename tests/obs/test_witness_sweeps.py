"""The witness's seal and prune sweeps, held equal to the full scans.

``WitnessEngine`` seals by worklist and prunes by candidacy (docs/witness.md,
"Bounded memory: sealing").  The sweeps it had before — re-scan every tracked
node until nothing moves, bisect every key's writer list — survive here and
only here, verbatim, on :class:`FullScanWitness`, the way
``tests/histories/test_serializability.py`` keeps the Section 3.2 rule as a
nested loop and ``tests/sim/test_dispatch_equivalence.py`` the heap-only
simulator.  A hypothesis property feeds random event streams to both, and to
the worklist walked in reverse, and compares them after **every** event; two
planted mutants show the property able to fail; and the digests at the bottom
pin what one observed run and one replayed drill trace report, taken before
the sweeps changed, and the bytes of one flight-recorder bundle.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys
from bisect import bisect_right

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.witness import WitnessEngine


class FullScanWitness(WitnessEngine):
    """The sweeps as they were at ``f2ba72d``, bodies verbatim."""

    def _seal_pass(self) -> None:
        floor = self._current_floor()
        progress = True
        while progress:
            progress = False
            for ident in list(self._nodes):
                if self._sealable(ident, floor):
                    self._seal(ident)
                    progress = True
        self._prune_pass(floor)

    def _prune_pass(self, floor: int) -> None:
        for key in list(self._writers):
            writers = self._writers[key]
            index = bisect_right(writers, floor)
            if index <= 1:
                continue  # at most one version at/below the floor: keep it
            live = self._live_reads.get(key)
            min_live = min(live) if live else None
            removed = []
            for writer in writers[: index - 1]:
                if writer not in self._sealed_readable:
                    break  # still active in the graph; derivation needs it
                if min_live is not None and min_live <= writer:
                    break  # an in-flight read may still resolve against it
                removed.append(writer)
            for writer in removed:
                writers.remove(writer)
                self._pruned_writer_count[key] = (
                    self._pruned_writer_count.get(key, 0) + 1
                )
                if self._max_pruned.get(key, -1) < writer:
                    self._max_pruned[key] = writer
                keys = self._sealed_writes.get(writer)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._sealed_writes[writer]
                        self._sealed_readable.discard(writer)
                        self.pruned += 1
            if not writers:
                del self._writers[key]


class ReversedWorklist(WitnessEngine):
    """The engine's worklist walked last in, first out, newest node first:
    the same fixpoint reached in another order.  docs/witness.md says no
    counter depends on that order; this engine is how the property checks."""

    def _seal_pass(self) -> None:
        floor = self._current_floor()
        nodes = self._nodes
        work = list(nodes)
        while work:
            ident = work.pop()
            if ident in nodes and self._sealable(ident, floor):
                work.extend(self._topo.successors(ident))
                for key in nodes[ident].writes:
                    writers = self._writers[key]
                    work.extend(writers[bisect_right(writers, ident):])
                self._seal(ident)
        self._prune_pass(floor)


# -- random event streams ----------------------------------------------------------

#: Six keys; the last is a tuple key as a decoded JSONL line carries it.
KEYS = ["a", "b", "c", "d", "e", ["t", 1]]

BEGIN_RW, BEGIN_RO, READ, WRITE, COMMIT, ABORT = range(6)
ADVANCE, PROMOTE, SEAM, NOISE, RECOMMIT, UPDATE = range(6, 12)

#: One drawn action is ``(op, i, j, k)``; what the small integers select
#: depends on the op (which open token, which key, which version, how far a
#: watermark lags).  Whole short updates, commits and watermark advances are
#: drawn most often, so versions get superseded and the floor keeps moving.
OPS = (
    [BEGIN_RW] * 3 + [BEGIN_RO] * 2 + [READ] * 3 + [WRITE] * 4 + [COMMIT] * 5
    + [ADVANCE] * 5 + [UPDATE] * 5 + [ABORT, PROMOTE, SEAM, NOISE, RECOMMIT]
)
ACTIONS = st.tuples(
    st.sampled_from(OPS), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)
)
#: Which control families the stream carries: ``vc.advance``, ``dvc.advance``
#: on two sites, ``replica.watermark``/``replica.ack`` + ``replica.promote``.
FAMILIES = st.tuples(st.booleans(), st.booleans(), st.booleans())


class _Open:
    def __init__(self, txn, cls):
        self.txn, self.cls, self.tn, self.writes = txn, cls, None, []


def events_of(actions, families):
    """Decoded trace lines for a drawn action list: plausible enough that
    nodes seal and versions prune, adversarial enough to reach every exit
    (commits out of number order, reads of staged, aborted, initial and
    long-superseded versions, tokens left open for the rest of the run)."""
    use_vc, use_dvc, use_replica = families
    ts, txn_ids, ro_count = 0.0, 0, 0
    open_, held, next_tn, last_vtnc = [], [], 1, 0
    committed = {}  # key index -> committed writer numbers, oldest first
    done, aborted = [], []

    def line(name, **fields):
        nonlocal ts
        ts += 1.0
        return {"name": name, "ts": ts, **fields}

    for op, i, j, k in actions:
        # Mostly one of the oldest four open tokens, so tokens finish in
        # near begin order and the floor moves; one begin in sixteen is *held*:
        # only an action with i == 7 reads, writes or finishes it.
        pool = held if i == 7 and held else open_
        token = pool[i // 2 % len(pool)] if pool else None
        index = j % 3 if k < 6 else j % len(KEYS)  # three keys are hot
        key = KEYS[index]
        if op in (BEGIN_RW, BEGIN_RO):
            txn_ids += 1
            cls = "rw" if op == BEGIN_RW else "ro"
            (held if k == 0 and j < 4 else open_).append(_Open(txn_ids, cls))
            yield line("history.begin", txn=txn_ids, cls=cls)
        elif op == UPDATE:
            # The common case whole: read the latest version (or write
            # blind), write (one time in four a second key too), commit.
            txn_ids += 1
            versions = committed.setdefault(index, [])
            yield line("history.begin", txn=txn_ids, cls="rw")
            if i % 2:
                yield line(
                    "history.read", txn=txn_ids, key=key,
                    version=versions[-1] if versions else 0,
                )
            yield line("history.write", txn=txn_ids, key=key)
            tn, next_tn = next_tn, next_tn + 1
            versions.append(tn)
            if i >= 6:
                yield line("history.write", txn=txn_ids, key=KEYS[(index + 1) % 3])
                committed.setdefault((index + 1) % 3, []).append(tn)
            done.append((txn_ids, tn, tn, "rw"))
            yield line("history.commit", txn=txn_ids, ident=tn, tn=tn, cls="rw")
        elif op == READ and token is not None:
            versions = committed.get(index, [])
            staged = [
                t.tn for t in open_ + held if t.tn is not None and t is not token
            ]
            version = (
                (versions[-1] if versions else 0) if k % 5 == 0
                else versions[k % len(versions)] if k % 5 == 1 and versions
                else 0 if k % 5 == 2
                else (staged[k % len(staged)] if staged else None) if k % 5 == 3
                else aborted[k % len(aborted)] if aborted
                else -1  # below the initial version: clamps to T0
            )
            yield line("history.read", txn=token.txn, key=key, version=version)
            if i == 6:  # the same key read twice lists the same pair twice
                yield line("history.read", txn=token.txn, key=key, version=version)
        elif op == WRITE and token is not None and token.cls == "rw":
            if token.tn is None and k >= 6:
                # Numbered early: others can read the staged version, and
                # the commit may arrive after a later number's.
                token.tn, next_tn = next_tn, next_tn + 1
            token.writes.append(index)
            yield line("history.write", txn=token.txn, key=key)
        elif op == COMMIT and token is not None:
            pool.remove(token)
            if token.cls == "ro":
                ro_count += 1
                ident, tn = RO_ID_OFFSET + ro_count, None
            else:
                if token.tn is None:
                    token.tn, next_tn = next_tn, next_tn + 1
                ident = tn = token.tn
                for written in token.writes:
                    committed.setdefault(written, []).append(tn)
            done.append((token.txn, ident, tn, token.cls))
            yield line(
                "history.commit", txn=token.txn, ident=ident, tn=tn, cls=token.cls
            )
        elif op == ABORT and token is not None:
            pool.remove(token)
            if token.tn is not None:
                aborted.append(token.tn)
            yield line(
                "history.abort", txn=token.txn, ident=token.tn, tn=token.tn,
                cls=token.cls,
            )
        elif op == ADVANCE:
            # Mostly the true watermark (every number below it is decided);
            # k also picks a lag, a repeat, or a jump past undecided numbers.
            undecided = [t.tn for t in open_ + held if t.tn is not None]
            frontier = min(undecided, default=next_tn) - 1
            vtnc = (
                next_tn + j if k == 7
                else last_vtnc if k == 6
                else max(0, frontier - j % 3) if k < 2
                else frontier
            )
            last_vtnc = vtnc
            if use_vc and i % 3 != 2:
                yield line("vc.advance", number=vtnc, tnc=next_tn, vtnc=vtnc, lag=j)
            if use_dvc and i % 3 != 0:
                yield line("dvc.advance", site=f"s{i % 2}", tnc=next_tn, vtnc=vtnc)
            if use_replica and i % 3 != 1:
                name = "replica.watermark" if k < 4 else "replica.ack"
                yield line(name, replica=f"r{i % 2}", vtnc=max(0, vtnc - j), staleness=j)
        elif op == PROMOTE and use_replica and k < 2:
            vtnc = max(0, next_tn - 1 - j)
            yield line("replica.promote", replica=f"r{i % 2}", vtnc=vtnc)
            next_tn = vtnc + 1  # the new primary re-issues the lost numbers
            for versions in committed.values():
                versions[:] = [v for v in versions if v <= vtnc]
        elif op == SEAM and k == 0:
            # The next drill of a campaign: the clock and the numbers restart.
            ts, open_, held, next_tn, last_vtnc, ro_count = 0.0, [], [], 1, 0, 0
            committed, done, aborted = {}, [], []
            yield line("sim.start")
        elif op == NOISE:
            yield line(
                ["history.checkpoint", "txn.begin", "lock.grant", "gc.sweep"][k % 4],
                txn=i, cls="rw", key=key, version=j,
            )
        elif op == RECOMMIT and done and k < 3:
            txn, ident, tn, cls = done[i % len(done)]
            yield line("history.commit", txn=txn, ident=ident, tn=tn, cls=cls)


def observable(engine):
    return {
        "report": engine.report(),
        "tracked": engine.tracked(),
        "nodes": set(engine._nodes),
        "sealed_readable": set(engine._sealed_readable),
        "sealed_writes": engine._sealed_writes,
        "writers": engine._writers,
        "max_pruned": engine._max_pruned,
        "sealed_rf_count": engine._sealed_rf_count,
    }


def assert_sweeps_agree(candidate, actions, families, track_edges):
    """Feed one stream to ``candidate``, to the full scans and to the
    reversed worklist; compare the verdict, every counter and the frontier
    after each event."""
    engines = [
        engine(seal=True, track_edges=track_edges)
        for engine in (candidate, FullScanWitness, ReversedWorklist)
    ]
    for n, event in enumerate(events_of(actions, families)):
        seen = []
        for engine in engines:
            engine.export(event)
            seen.append(observable(engine))
        assert seen[0] == seen[1] == seen[2], (n, event)
    for engine in engines:
        engine.finish()
    assert observable(engines[0]) == observable(engines[1]) == observable(engines[2])


#: Two writers of one key committing out of number order, then the watermark
#: passing both: the later writer is visited first and can seal only once the
#: earlier one has — the case a worklist must revisit.
OUT_OF_ORDER_WRITERS = [
    (BEGIN_RW, 0, 0, 1), (BEGIN_RW, 0, 0, 1),
    (WRITE, 0, 0, 6), (WRITE, 2, 0, 6),  # numbered 1 and 2 as they write
    (COMMIT, 2, 0, 0), (COMMIT, 0, 0, 0),  # 2 commits first
    (ADVANCE, 0, 0, 2), (BEGIN_RO, 0, 0, 1), (COMMIT, 0, 0, 0),
]
#: A key rewritten three times under a watermark that keeps up: every commit
#: leaves a superseded version to prune.
REWRITTEN_KEY = [
    step
    for _ in range(3)
    for step in [(BEGIN_RW, 0, 0, 1), (WRITE, 0, 0, 0), (COMMIT, 0, 0, 0), (ADVANCE, 0, 0, 2)]
] + [(BEGIN_RO, 0, 0, 1), (READ, 0, 0, 0), (COMMIT, 0, 0, 0)]
#: A held token pins writer 1 of ``a``; two readers of its version commit
#: behind it, the second reading ``a`` twice; the token aborts and all three
#: seal in one pass, the readers in opposite orders on the two worklists; a
#: second writer of ``a`` then folds the sealed pairs into ``edges_folded``.
A_KEY_READ_TWICE = [
    (BEGIN_RW, 0, 0, 0), (UPDATE, 0, 0, 1),  # the held token, then writer 1
    (BEGIN_RO, 0, 0, 1), (BEGIN_RO, 0, 0, 1),
    (READ, 0, 0, 0), (READ, 6, 0, 0),  # both read a@1; i == 6 reads it twice
    (COMMIT, 0, 0, 0), (COMMIT, 0, 0, 0), (ADVANCE, 0, 0, 2),
    (ABORT, 7, 0, 0), (UPDATE, 0, 0, 1),
]


def sweeps_property(candidate, *, max_examples=150, phases=tuple(Phase)):
    @settings(max_examples=max_examples, deadline=None, phases=phases, database=None)
    @given(
        actions=st.lists(ACTIONS, min_size=40, max_size=160),
        families=FAMILIES,
        track_edges=st.booleans(),
    )
    @example(actions=OUT_OF_ORDER_WRITERS, families=(True, False, False), track_edges=False)
    @example(actions=REWRITTEN_KEY, families=(True, False, False), track_edges=True)
    @example(actions=A_KEY_READ_TWICE, families=(True, False, False), track_edges=False)
    def check(actions, families, track_edges):
        assert_sweeps_agree(candidate, actions, families, track_edges)

    return check


test_worklist_and_candidates_match_the_full_scans = sweeps_property(
    WitnessEngine, max_examples=400
)


# -- the oracle can fail -----------------------------------------------------------


class _NeverFilled(dict):
    def __setitem__(self, key, value):
        pass


class MissesTheInsortSite(WitnessEngine):
    """Mutant: a key's second writer does not make it a prune candidate.
    (That ``insort`` is the candidate set's only way in.)"""

    def _reset_stream_state(self):
        super()._reset_stream_state()
        self._prunable = _NeverFilled()


class ForgetsLaterWriters(WitnessEngine):
    """Mutant: ``_seal_pass`` less the two lines that revisit the later
    writers of each key a sealed node wrote."""

    def _seal_pass(self):
        floor = self._current_floor()
        nodes = self._nodes
        work = list(nodes)
        for ident in work:
            if ident in nodes and self._sealable(ident, floor):
                work.extend(self._topo.successors(ident))
                self._seal(ident)
        self._prune_pass(floor)


@pytest.mark.parametrize("mutant", [MissesTheInsortSite, ForgetsLaterWriters])
def test_a_planted_mutant_fails_the_property(mutant):
    with pytest.raises(AssertionError):
        sweeps_property(mutant, phases=(Phase.explicit,))()


def seeded_stream(seed, length=100):
    rng = random.Random(seed)
    actions = [
        (rng.choice(OPS), rng.randrange(8), rng.randrange(8), rng.randrange(8))
        for _ in range(length)
    ]
    return actions, (seed % 2 == 0, seed % 5 == 0, seed % 3 == 0)


@pytest.mark.parametrize(
    "mutant,at_least", [(MissesTheInsortSite, 150), (ForgetsLaterWriters, 4)]
)
def test_generated_streams_alone_find_each_mutant(mutant, at_least):
    """Without the two hand-written examples: of 250 seeded streams from the
    same generator, how many tell the mutant from the full scans."""
    caught = 0
    for seed in range(250):
        try:
            assert_sweeps_agree(mutant, *seeded_stream(seed), track_edges=False)
        except AssertionError:
            caught += 1
    assert caught >= at_least


def test_the_streams_reach_every_exit():
    """The generator is only evidence if its streams seal, prune, rebase,
    roll over, leave reads pending and trip both tripwires."""
    totals = dict.fromkeys(
        ["sealed", "pruned", "rebases", "lost_commits", "late_sealed_reads",
         "duplicate_commits", "pending_dropped", "pending_unresolved", "aborted"], 0
    )
    segments = 0
    for seed in range(40):
        engine = WitnessEngine(seal=True)
        for event in events_of(*seeded_stream(seed)):
            engine.export(event)
        engine.finish()
        report = engine.report()
        for name in totals:
            totals[name] += report[name]
        segments += report["segments"] - 1
    assert all(totals.values()), totals
    assert segments


# -- the pins ----------------------------------------------------------------------

#: A fresh interpreter each: trace events carry transaction ids, which come
#: from a process-wide counter.  Each script prints what is pinned.
OBSERVED_RUN = """
import hashlib, json
from repro.bench.runner import SimConfig, run_simulation
from repro.obs.pipeline import ObsPipeline
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.witness import WitnessEngine
from repro.protocols.registry import make_scheduler
from repro.workload.mixes import balanced

engine = SLOEngine(bench_objectives(ro_never_blocks=True), window=50.0)
pipeline = ObsPipeline(ring=65_536, engine=engine, witness=WitnessEngine(seal=True))
run_simulation(
    make_scheduler("vc-2pl-wal"), balanced(seed=0),
    SimConfig(duration=800.0, n_clients=16, gc_period=200.0, check_serializability=False),
    tracer=pipeline.tracer,
)
pipeline.close()
ring = hashlib.sha256()
for event in pipeline.events():
    ring.update(json.dumps(event, sort_keys=True, default=repr).encode())
for block in (pipeline.witness.report(), engine.report()):
    print(hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest())
print(ring.hexdigest(), len(pipeline.events()), pipeline.witness.report()["sealed"])
"""
#: Witness report, SLO report, the ring's events; then how many events and
#: how many nodes sealed, so a moved digest says how far it moved.  The SLO
#: report's ``events_seen`` counts the 11 139 events routed to the engine,
#: not the 36 940 the ring holds.
PINNED_OBSERVED_RUN = [
    "1a60f04787d2cbe83a76fc7ffacbc285e3a0e3a6644b102a32f7823001ec9ade",
    "629e94a2be9145c2185aa4cbbd7eee7a836a943d6969bb64de366bbe2aabec64",
    "d24b9e4e572952199f9a96c2c52e54654ec5e79cbbda613ea61fad2af137b785",
    "36940", "1794",
]

#: sha256 of ``watch T --profile faults --witness --json`` stdout, T the trace
#: of ``drill --seeds 2 --duration 200 --slo --witness --trace T``: both
#: engines replaying a trace file, the SLO engine with a flight recorder.
PINNED_WATCH_JSON = "9eb1d9299693cc623efea5ffb20c31a0fabd0682cb59e793fad579f53651371d"

#: A traced single-version 2PL run: its read-only transactions take locks, so
#: ``watch`` under the default profile breaches ``ro_blocking``.  (No profile
#: and window breaches on the fault drill's trace.)
BLOCKING_RUN = """
import sys
from repro.bench.runner import SimConfig, run_simulation
from repro.obs.pipeline import ObsPipeline
from repro.protocols.registry import make_scheduler
from repro.workload.mixes import balanced

pipeline = ObsPipeline(jsonl=sys.argv[1])
run_simulation(
    make_scheduler("sv-2pl"), balanced(seed=0),
    SimConfig(duration=150.0, n_clients=8, check_serializability=False),
    tracer=pipeline.tracer,
)
pipeline.close()
"""
#: sha256 of the first bundle ``watch T --window 25 --bundle-dir D`` writes
#: over that trace: breach header, blocking chains, critical path, 570 events.
PINNED_BUNDLE = "c490aed7f4790d257dd1109e8c1b06896936969445125e1bdccf7c0b10bcddd5"


def _fresh_interpreter(*argv, exit_code=0):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=120,
    )
    assert done.returncode == exit_code, done.stderr.decode()
    return done.stdout


class TestPinnedReports:
    def test_observed_run_is_pinned(self):
        out = _fresh_interpreter("-c", OBSERVED_RUN)
        assert out.decode().split() == PINNED_OBSERVED_RUN

    def test_replayed_drill_trace_is_pinned(self, tmp_path):
        trace = str(tmp_path / "drill.jsonl")
        _fresh_interpreter(
            "-m", "repro", "drill", "--seeds", "2", "--duration", "200",
            "--slo", "--witness", "--trace", trace,
        )
        out = _fresh_interpreter(
            "-m", "repro", "watch", trace, "--profile", "faults", "--witness", "--json"
        )
        assert hashlib.sha256(out).hexdigest() == PINNED_WATCH_JSON, out.decode()

    def test_flight_recorder_bundle_is_pinned(self, tmp_path):
        trace, bundles = str(tmp_path / "run.jsonl"), tmp_path / "bundles"
        _fresh_interpreter("-c", BLOCKING_RUN, trace)
        _fresh_interpreter(
            "-m", "repro", "watch", trace, "--window", "25",
            "--bundle-dir", str(bundles), exit_code=3,  # an unexpected breach
        )
        first = (bundles / "watch_001_ro_blocking.jsonl").read_bytes()
        assert hashlib.sha256(first).hexdigest() == PINNED_BUNDLE
