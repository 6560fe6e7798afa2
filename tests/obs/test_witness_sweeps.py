"""The witness's commit path and its seal and prune sweeps, held equal to
the code they replaced and to the full scans.

``WitnessEngine`` commits a read-only transaction that can gain no edge
without the graph, seals from what changed and prunes only touched keys
(docs/witness.md, "Bounded memory: sealing").  The code it had before
survives here and only here, verbatim, the way
``tests/histories/test_serializability.py`` keeps the Section 3.2 rule as a
nested loop and ``tests/sim/test_dispatch_equivalence.py`` the heap-only
simulator: :class:`ParentWitness` keeps the previous commit path (every
commit a graph node through the shared rule) and its worklist sweeps, and
:class:`FullScanWitness` puts the sweeps of ``f2ba72d`` under that commit
path (re-scan every tracked node until nothing moves, bisect every key), so
neither the revisit argument nor the prune candidates are taken on trust.
A hypothesis property feeds random event streams to all of them, and to the
seeded worklist walked in reverse, and compares them after **every** event;
three planted mutants show the property able to fail; and the digests at
the bottom pin what one observed run and one replayed drill trace report,
taken before the sweeps changed, and the bytes of one flight-recorder bundle.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys
from bisect import bisect_right, insort
from collections import Counter
from typing import Any

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import repro
from repro.histories.derive import number_precedes, sg_edge, version_order_edges
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.events import record
from repro.obs.witness import WitnessEngine
from repro.obs.witness.engine import _END_IDENT, _END_TN, _END_TXN, _Node


class _CommittedView:
    """Committed-writer membership across the active and sealed tiers, so
    the shared ``sg_edge`` rule sees one "committed set" as offline does."""

    __slots__ = ("active", "sealed")

    def __init__(self, active: dict, sealed: set):
        self.active = active
        self.sealed = sealed

    def __contains__(self, ident: int) -> bool:
        return ident in self.active or ident in self.sealed


class ParentWitness(WitnessEngine):
    """The commit path and the sweeps as they were at ``56f0730``, bodies
    verbatim: every commit adds a graph node, a read-only one included (the
    pass after it seals it), through the shared rule of
    :mod:`repro.histories.derive`; every pass walks every tracked node once
    and bisects every candidate key; the floor scans every token."""

    def _reset_stream_state(self) -> None:
        super()._reset_stream_state()
        self._committed = _CommittedView(self._nodes, self._sealed_readable)

    def _current_floor(self) -> int:
        floor = self._watermark_floor()
        for token in self._tokens.values():
            if token.begin_floor < floor:
                floor = token.begin_floor
        return floor

    def _on_commit(self, fields, ts):
        self.events_seen += 1
        txn, tn, ident = fields[_END_TXN], fields[_END_TN], fields[_END_IDENT]
        token = self._release_token(txn)
        if ident is None:
            return
        ident = int(ident)
        read_only = ident >= RO_ID_OFFSET
        # Duplicate commits can arrive from crash-recovery replay.  An
        # unsealed duplicate is caught by membership; a sealed one by the
        # frontier bound — sealing requires the floor at or above the ident,
        # every live token holds the floor below its own eventual tn, and tn
        # assignment is monotone, so a *genuine* first commit always arrives
        # above every sealed read-write ident.
        if (
            ident in self._nodes
            or ident in self._sealed_readable
            or (not read_only and 0 < ident <= self._max_sealed_rw)
        ):
            self.duplicate_commits += 1
            return
        self.committed += 1
        if not read_only and tn is not None:
            self._max_committed_tn = max(self._max_committed_tn, int(tn))
        if self.track_edges:
            self._txn_ident[txn] = ident
            self._txn_outcome[txn] = "committed"
        node = _Node(ident)
        self._nodes[ident] = node
        self._topo.add_node(ident)
        edges: list[tuple[int, int, str, Any]] = []
        reads = token.reads if token is not None else []
        writes = token.writes if token is not None else []

        # Writes first: the rule's "other writer Tk" quantifier, arriving
        # late — re-derive against every active pair on the key.  Pairs whose
        # reader sealed fold: their edge would leave a forever-source.
        for key in writes:
            if key in node.writes:
                continue
            node.writes.add(key)
            for reader, writer in self._rf_pairs.get(key, ()):
                for src, dst, kind in version_order_edges(
                    reader, writer, (ident,), number_precedes
                ):
                    edges.append((src, dst, kind, key))
            self.folded_edges += self._sealed_rf_count.get(key, 0)
            writers = self._writers.setdefault(key, [])
            insort(writers, ident)
            if len(writers) == 2:
                self._prunable[key] = None

        # Reads: SG edge + version-order edges against the writers known so
        # far; later writers are covered by the write rule above.
        for key, version in reads:
            if version is None:
                version = ident  # reads own staged write
            elif version <= 0:
                version = 0  # initial version, written by T0
            if version != ident and self._late_read(key, version):
                # A read below the sealed/pruned frontier: impossible under
                # the floor rule, so the verdict is tainted rather than wrong.
                self.late_sealed_reads += 1
                continue
            self._add_pair(ident, version, key, edges)

        self._apply_edges(edges, ts, ident)

        # Resolve reads that were waiting for this writer's fate.
        if not read_only:
            resolved = self._pending.pop(ident, ())
            if resolved:
                edges = []
                for reader, key in resolved:
                    rnode = self._nodes.get(reader)
                    if rnode is None:
                        continue
                    rnode.pending_out -= 1
                    self._link_pair(reader, ident, key, edges, rnode)
                self._apply_edges(edges, ts, ident)

        self._note_peak()
        if self.seal:
            self._seal_pass()

    def _late_read(self, key: Any, version: int) -> bool:
        """True when a read's version lies below the sealed frontier — its
        version-order edges against sealed writers would be silently wrong."""
        if version <= self._max_pruned.get(key, -1):
            return True
        if version == 0:
            # An initial-version read derives reader->w for *every* writer of
            # the key; any sealed one would gain an incoming edge.
            return self._sealed_key_count.get(key, 0) > 0
        return False

    def _add_pair(
        self,
        reader: int,
        version: int,
        key: Any,
        edges: list[tuple[int, int, str, Any]],
    ) -> None:
        """One reads-from pair (reader reads ``version`` of ``key``)."""
        if (
            version == reader
            or version in self._nodes
            or version in self._sealed_readable
        ):
            self._link_pair(reader, version, key, edges, self._nodes[reader])
        else:
            # Uncommitted (or unknown) writer: pending until its fate is
            # decided — exactly the committed projection's treatment.
            self._pending.setdefault(version, []).append((reader, key))
            self._nodes[reader].pending_out += 1

    def _link_pair(
        self,
        reader: int,
        writer: int,
        key: Any,
        edges: list[tuple[int, int, str, Any]],
        rnode: _Node,
    ) -> None:
        """Activate a pair whose writer is committed (or T0/self)."""
        edge = sg_edge(reader, writer, self._committed)
        if edge is not None:
            edges.append((*edge, key))
        for src, dst, kind in version_order_edges(
            reader, writer, self._writers.get(key, ()), number_precedes
        ):
            edges.append((src, dst, kind, key))
        # Version-order edges against pruned writers all left the frontier
        # (pruned < any acceptable read version), so they fold to a count.
        self.folded_edges += self._pruned_writer_count.get(key, 0)
        self._rf_pairs.setdefault(key, set()).add((reader, writer))
        rnode.pairs.append((key, writer))

    def _seal_pass(self) -> None:
        """Seal to the fixpoint: every tracked node once, then only what a
        seal can enable — the sealed node's successors and the later writers
        of each key it wrote.  Nothing a seal does can disable another."""
        floor = self._current_floor()
        nodes = self._nodes
        work = list(nodes)
        for ident in work:  # grows while it is walked
            if ident in nodes and self._sealable(ident, floor):
                work.extend(self._topo.successors(ident))
                for key in nodes[ident].writes:
                    writers = self._writers[key]
                    work.extend(writers[bisect_right(writers, ident):])
                self._seal(ident)
        self._prune_pass(floor)

    def _prune_pass(self, floor: int) -> None:
        """Drop sealed versions that can never be read again: those with a
        readable successor at or below the floor and no live read at or
        below them.  Only a key listing two or more writers can have one."""
        for key in list(self._prunable):
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
            if len(writers) < 2:
                del self._prunable[key]

    def _note_peak(self) -> None:
        tracked = len(self._nodes) + len(self._tokens) + len(self._sealed_writes)
        if tracked > self.peak_tracked:
            self.peak_tracked = tracked

    # ``export`` dispatches through the table, which holds the functions
    # themselves: an override takes effect only through its own entry.
    _HANDLERS = {**WitnessEngine._HANDLERS, "history.commit": _on_commit}


class FullScanWitness(ParentWitness):
    """That commit path under the sweeps as they were at ``f2ba72d``, bodies
    verbatim: re-scan every tracked node until nothing moves, then bisect
    every key's writer list."""

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


def seeded_walk(engine, *, newest_first=False, later_writers=True):
    """``WitnessEngine._seal_pass``, body for body, with two switches for the
    variants below: walk the worklist last in, first out, or leave out the
    lines that revisit the later writers of each key a sealed node wrote."""
    floor = engine._current_floor()
    nodes = engine._nodes
    work = engine._seeds
    engine._seeds = []
    if floor > engine._last_floor:
        readable = engine._readable
        risen = readable[
            bisect_right(readable, engine._last_floor):bisect_right(readable, floor)
        ]
        for ident in risen:
            node = nodes.get(ident)
            for key in node.writes if node is not None else engine._sealed_writes[ident]:
                engine._touched[key] = None
        work.extend(risen)
    engine._last_floor = floor
    at = 0
    while at < len(work):
        ident = work.pop() if newest_first else work[at]
        at += not newest_first
        if ident in nodes and engine._sealable(ident, floor):
            work.extend(engine._succ[ident])
            if later_writers:
                for key in nodes[ident].writes:
                    writers = engine._writers[key]
                    work.extend(writers[bisect_right(writers, ident):])
            engine._seal(ident)
    if engine._touched:
        engine._prune_pass(floor)


class ReversedWorklist(WitnessEngine):
    """The engine's seeded worklist walked last in, first out, newest node
    first: the same fixpoint reached in another order.  docs/witness.md says
    no counter depends on that order; this engine is how the property checks."""

    def _seal_pass(self) -> None:
        seeded_walk(self, newest_first=True)


# -- random event streams ----------------------------------------------------------

#: Six keys; the last is a tuple key as a decoded JSONL line carries it.
KEYS = ["a", "b", "c", "d", "e", ["t", 1]]

BEGIN_RW, BEGIN_RO, READ, WRITE, COMMIT, ABORT = range(6)
ADVANCE, PROMOTE, SEAM, NOISE, RECOMMIT, UPDATE, SCAN = range(6, 13)

#: One drawn action is ``(op, i, j, k)``; what the small integers select
#: depends on the op (which open token, which key, which version, how far a
#: watermark lags).  Whole short updates, commits and watermark advances are
#: drawn most often, so versions get superseded and the floor keeps moving.
OPS = (
    [BEGIN_RW] * 3 + [BEGIN_RO] * 2 + [READ] * 3 + [WRITE] * 4 + [COMMIT] * 5
    + [ADVANCE] * 5 + [UPDATE] * 5 + [SCAN] * 4
    + [ABORT, PROMOTE, SEAM, NOISE, RECOMMIT]
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
        elif op == SCAN:
            # A whole read-only transaction, the commit a VC run has most of.
            # Each read takes, by k: the latest version at the watermark (as
            # a snapshot read does: usually a sealed writer's), the latest
            # (perhaps still an active writer's), the oldest (pruned once
            # superseded), one an open token staged (pending), or T0's.
            txn_ids += 1
            ro_count += 1
            yield line("history.begin", txn=txn_ids, cls="ro")
            staged = [t.tn for t in open_ + held if t.tn is not None]
            for n in range(2 + i % 2):
                versions = committed.get((j + n) % 3, [])
                pick = (k + 5 * n) % 8
                version = (
                    max((v for v in versions if v <= last_vtnc), default=0) if pick < 4
                    else versions[-1] if pick == 4 and versions
                    else versions[0] if pick == 5 and versions
                    else staged[-1] if pick == 6 and staged
                    else 0
                )
                yield line("history.read", txn=txn_ids, key=KEYS[(j + n) % 3], version=version)
            ident = RO_ID_OFFSET + ro_count
            done.append((txn_ids, ident, None, "ro"))
            yield line("history.commit", txn=txn_ids, ident=ident, tn=None, cls="ro")
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
        # The Pearce-Kelly order every later search and cycle report is read
        # from.  Its numbers may differ by the reader nodes that were never
        # added; only their order decides anything.
        "order": engine._topo.order(),
        "sealed_readable": set(engine._sealed_readable),
        "sealed_writes": engine._sealed_writes,
        "writers": engine._writers,
        "max_pruned": engine._max_pruned,
        "sealed_rf_count": engine._sealed_rf_count,
    }


def assert_sweeps_agree(candidate, actions, families, track_edges):
    """Feed one stream to ``candidate``, to the previous code, to the full
    scans and to the reversed worklist; compare the verdict, every counter
    and the frontier after each event."""
    engines = [
        engine(seal=True, track_edges=track_edges)
        for engine in (candidate, ParentWitness, FullScanWitness, ReversedWorklist)
    ]
    for n, event in enumerate(events_of(actions, families)):
        seen = []
        for engine in engines:
            engine.export(record(event))
            seen.append(observable(engine))
        assert all(view == seen[0] for view in seen), (n, event)
    for engine in engines:
        engine.finish()
    assert all(observable(engine) == observable(engines[0]) for engine in engines)


#: Two writers of one key committing out of number order, then the watermark
#: passing both: the later writer can seal only once the earlier one has (the
#: floor's rise hands the seal pass both, in number order).
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


#: No watermark events, so a read-only token holds the floor at 0 while
#: writers 1, 2 and 4 of ``a`` and 6 of ``c`` commit; a scan reads ``c`` at
#: T0 and ``a`` at 4 (``4 -> R -> 6``), the token aborts, and once writer 8
#: of ``c`` commits the pass finds 6 behind R and R behind 4: 8 can seal only
#: after 6, which a seal reaches only through 4's successor R — the later-
#: writer revisit is the one way back to 8.
A_READER_BETWEEN_TWO_WRITERS = [
    (BEGIN_RW, 0, 0, 1), (UPDATE, 0, 0, 0), (UPDATE, 0, 0, 0), (COMMIT, 0, 0, 0),
    (BEGIN_RW, 0, 0, 1), (UPDATE, 0, 0, 0), (BEGIN_RW, 0, 0, 1), (BEGIN_RO, 0, 0, 1),
    (COMMIT, 0, 0, 0), (UPDATE, 0, 2, 0), (ADVANCE, 0, 0, 0), (BEGIN_RO, 0, 0, 1),
    (COMMIT, 0, 0, 0), (SCAN, 1, 1, 1), (ABORT, 0, 0, 0), (UPDATE, 0, 2, 0),
    (COMMIT, 0, 0, 0),
]
#: Writer 1 of ``a`` sealed under the watermark, writer 2 of ``a`` committed
#: above it; a read-only token begun at the watermark reads ``a`` at 1 and
#: commits: every version it read is sealed, but its ``rw`` edge into the
#: active writer 2 belongs in the graph, so it must not be sealed in place.
READ_BESIDE_A_LATER_WRITER = [
    (UPDATE, 0, 0, 1), (ADVANCE, 0, 0, 2), (BEGIN_RO, 0, 0, 1), (UPDATE, 0, 0, 1),
    (READ, 0, 0, 6), (COMMIT, 0, 0, 0),
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
    @example(
        actions=A_READER_BETWEEN_TWO_WRITERS, families=(False, False, False),
        track_edges=False,
    )
    @example(
        actions=READ_BESIDE_A_LATER_WRITER, families=(True, False, False), track_edges=True
    )
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


class _NoneActive(dict):
    def __contains__(self, ident):
        return False


class IgnoresActiveLaterWriters(WitnessEngine):
    """Mutant: the sealed-reader commit blind to an active later writer of
    a key it read, so it seals such a reader in place and the ``rw`` edge
    into that writer folds instead of entering the graph."""

    def _commit_sealed_reader(self, ident, links):
        nodes, self._nodes = self._nodes, _NoneActive(self._nodes)
        try:
            return super()._commit_sealed_reader(ident, links)
        finally:
            self._nodes = nodes


class ForgetsLaterWriters(WitnessEngine):
    """Mutant: ``_seal_pass`` less the two lines that revisit the later
    writers of each key a sealed node wrote."""

    def _seal_pass(self):
        seeded_walk(self, later_writers=False)


@pytest.mark.parametrize(
    "mutant", [MissesTheInsortSite, ForgetsLaterWriters, IgnoresActiveLaterWriters]
)
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
    "mutant,at_least",
    [(MissesTheInsortSite, 150), (ForgetsLaterWriters, 4), (IgnoresActiveLaterWriters, 150)],
)
def test_generated_streams_alone_find_each_mutant(mutant, at_least):
    """Without the hand-written examples: of 250 seeded streams from the
    same generator, how many tell the mutant from the full scans."""
    caught = 0
    for seed in range(250):
        try:
            assert_sweeps_agree(mutant, *seeded_stream(seed), track_edges=False)
        except AssertionError:
            caught += 1
    assert caught >= at_least


class CountsSealedReaders(WitnessEngine):
    """Tallies the sealed-reader commit: taken or refused, and taken after a
    seam or after a fail-over rebase."""

    def _reset_stream_state(self):
        super()._reset_stream_state()
        self.__dict__.setdefault("readers", Counter())

    def _commit_sealed_reader(self, ident, links):
        taken = super()._commit_sealed_reader(ident, links)
        self.readers["taken" if taken else "refused"] += 1
        if taken and self.segments > 1:
            self.readers["after a seam"] += 1
        if taken and self.rebases:
            self.readers["after a rebase"] += 1
        return taken


def test_the_streams_reach_every_exit():
    """The generator is only evidence if its streams seal, prune, rebase,
    roll over, leave reads pending, trip both tripwires, and commit read-only
    transactions both ways — sealed in place, seams and rebases behind them,
    and through the graph."""
    totals = dict.fromkeys(
        ["sealed", "pruned", "rebases", "lost_commits", "late_sealed_reads",
         "duplicate_commits", "pending_dropped", "pending_unresolved", "aborted"], 0
    )
    segments = 0
    readers = Counter()
    for seed in range(40):
        engine = CountsSealedReaders(seal=True)
        for event in events_of(*seeded_stream(seed)):
            engine.export(record(event))
        engine.finish()
        report = engine.report()
        for name in totals:
            totals[name] += report[name]
        segments += report["segments"] - 1
        readers += engine.readers
    assert all(totals.values()), totals
    assert segments
    assert sorted(readers) == ["after a rebase", "after a seam", "refused", "taken"]


def test_an_unsealed_engine_keeps_nothing_for_a_seal_pass():
    """Without sealing no pass drains the seeds or the touched keys, so
    nothing may fill them: ``explain`` and ``witness_history`` run unsealed
    over whole traces."""
    for seed in range(40):
        engine = WitnessEngine(seal=False)
        for event in events_of(*seeded_stream(seed)):
            engine.export(record(event))
            assert engine._seeds == [] and engine._touched == {}, (seed, event)
        engine.finish()


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
#: (Since the drill's restarted sites stay traced, their ``dvc.advance``
#: floors reach the witness: peak tracked 96 -> 26, same verdicts.  Since
#: the shared waits-for graph is traced, its ``deadlock.detect`` events reach
#: the recorder-holding SLO engine: ``events_seen`` 13187 -> 13217, nothing
#: else moves.)
PINNED_WATCH_JSON = "c394b5177b94c6ec48fa791f0dec03c19a7cc76a6586c2a2ecb5474896f59615"

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
