"""The streaming MVSG certifier — Theorem 1 as an *online* watchdog.

:class:`WitnessEngine` is a tracer exporter (the same surface as
:class:`repro.obs.slo.SLOEngine`: one ``export`` for the tracer's event
record, live or replayed from a trace, then
``close``/``finish``/``report``/``render``) that consumes the
``history.*`` operation stream emitted by :class:`repro.histories.recorder.
HistoryRecorder` and maintains the multiversion serialization graph of the
committed projection *incrementally*, under the paper's version-number
order.  Edge derivation is the offline checker's rule
(:mod:`repro.histories.derive`, written out in place on the commit path),
cycle detection is incremental
(:mod:`repro.obs.witness.topology`), so a 1SR violation is reported at the
moment the closing edge appears — with the closed cycle and, when a
:class:`~repro.obs.slo.recorder.FlightRecorder` is attached, the
diagnostic bundle that captures the surrounding events.

Incremental derivation
======================

Operations are buffered per transaction token and take effect at commit —
exactly the committed-projection semantics of the offline checker.  For a
committing transaction ``n``:

* each write on ``x`` re-derives version-order edges for every existing
  reads-from pair on ``x`` against the new writer (the rule's ``Tk``
  quantifier, arriving late);
* each read of version ``i`` of ``x`` adds the SG edge ``i -> n`` (when
  ``i`` is committed) plus version-order edges against every writer of
  ``x`` known so far; reads from *uncommitted* writers become **pending**
  pairs, resolved when that writer commits (or dropped on its abort /
  stream end — precisely the projection's treatment of such reads).

Sealing (bounded memory)
========================

A committed node is **sealed** — removed from the cycle-detection
structure — when no future event can add an edge *into* it:

* it has no unresolved pending reads-from and is a **source** (in-graph
  indegree 0);
* its identity is at or below the **visibility floor**: the min of the
  current watermark (``vtnc``, and every replica watermark when present)
  and each live transaction's begin-time floor (``vtnc`` for read-only,
  ``tnc`` for read-write, the max committed tn for protocols with no
  version-control events) — the least snapshot any live or future
  transaction can read at, so any future read of a key it wrote lands at
  or above it (at it = an edge *out of* it);
* no live transaction holds a read below its version, and every earlier
  writer of each key it wrote is itself sealed (a late read of its version
  derives ``earlier -> n`` version-order edges — those earlier endpoints
  must already be out of the graph).

A sealed node is a source *forever*: no cycle can ever pass through it,
so every subsequent edge touching it — SG edges to late readers of its
version, version-order edges against it — folds into a counter instead of
the graph.  It stays **readable** (in the per-key version list, so late
reads of it still resolve) until a successor version at or below the
floor supersedes it, at which point it is **pruned** entirely.  Peak
tracked state is therefore bounded by the live-transaction window plus
per-key frontier constants, not run length.  Reads that *do* arrive below
a pruned version — impossible for the protocols here, possible in
adversarial synthetic streams — are counted as ``late_sealed_reads`` and
taint the verdict (``ok`` requires zero), so sealing can never silently
hide a cycle.

A read-only commit no edge of which can enter the graph (it read only
sealed or initial versions, and every later writer of those keys is sealed)
is sealed in place without becoming a node.  Each seal pass starts from
what changed since the last one, and each prune pass visits only the keys
touched since then (docs/witness.md, "Bounded memory: sealing").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Iterable

from repro.histories.derive import RW, WR, WW
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.events import positions
from repro.obs.witness.topology import IncrementalTopology

REPORT_SCHEMA = "repro.witness/1"

#: Violations stored verbatim; further ones are only counted.
MAX_VIOLATIONS = 16

#: History (in trace time units) a violation's bundle holds before it.
PRE_ROLL = 50.0


#: Where each handler finds its fields in a record's ``fields`` (the
#: registry's order, read once here).  ``history.abort`` shares the commit's
#: layout and every ``vc.*`` name the register's.
_BEGIN_TXN, _BEGIN_CLS = positions("history.begin", "txn", "cls")
_READ_TXN, _READ_KEY, _READ_VERSION = positions("history.read", "txn", "key", "version")
_WRITE_TXN, _WRITE_KEY = positions("history.write", "txn", "key")
_END_TXN, _END_IDENT, _END_TN = positions("history.commit", "txn", "ident", "tn")
_VC_TNC, _VC_VTNC = positions("vc.register", "tnc", "vtnc")
_SITE, _SITE_VTNC, _SITE_TNC = positions("dvc.advance", "site", "vtnc", "tnc")
_WATERMARK_REPLICA, _WATERMARK_VTNC = positions("replica.watermark", "replica", "vtnc")
_ACK_REPLICA, _ACK_VTNC = positions("replica.ack", "replica", "vtnc")
_PROMOTE_REPLICA, _PROMOTE_VTNC = positions("replica.promote", "replica", "vtnc")


def _norm_key(key: Any) -> Any:
    """JSONL round-trips tuple keys into lists; restore hashability."""
    return tuple(key) if isinstance(key, list) else key


class _Token:
    """One in-flight transaction: buffered operations + its snapshot floor."""

    __slots__ = ("begin_floor", "reads", "writes")

    def __init__(self, begin_floor: int):
        self.begin_floor = begin_floor
        self.reads: list[tuple[Any, int | None]] = []
        self.writes: list[Any] = []


class _Node:
    """One unsealed committed transaction in the graph."""

    __slots__ = ("ident", "writes", "pairs", "pending_out")

    def __init__(self, ident: int):
        self.ident = ident
        self.writes: set[Any] = set()
        #: (key, writer) reads-from pairs with this node as reader.
        self.pairs: list[tuple[Any, int]] = []
        #: Unresolved reads-from (await an uncommitted writer's fate).
        self.pending_out = 0


class WitnessBreach:
    """Adapter so a 1SR violation can ride the SLO flight-recorder bundle."""

    def __init__(self, ts: float, edge: tuple[int, int], kind: str, cycle: list[int]):
        self.window_start = ts
        self.window_end = ts
        self.edge = edge
        self.kind = kind
        self.cycle = cycle

    def as_dict(self) -> dict[str, Any]:
        return {
            "objective": "serializability",
            "signal": "witness.cycle",
            "ts": round(self.window_start, 9),
            "edge": list(self.edge),
            "edge_kind": self.kind,
            "cycle": list(self.cycle),
        }


class WitnessEngine:
    """Streaming one-copy-serializability certifier over a ``history.*`` stream.

    A timestamp regression mid-stream marks a trace *seam* — an
    independent run follows (campaign traces concatenate every drill into
    one file, each restarting its simulator at 0).  The finished
    segment's graph folds into the cumulative counters and stream state
    restarts, so re-issued transaction numbers never alias; the report's
    ``segments`` counts the runs certified.

    Args:
        seal: fold finished prefixes to bound memory (default).  ``False``
            keeps every committed node — the *exact* mode used by parity
            tests and ``explain`` forensics.
        track_edges: remember edge kinds and txn-to-identity mapping for
            per-transaction forensics (implies unbounded memory; pair with
            ``seal=False``).
        recorder: optional :class:`~repro.obs.slo.recorder.FlightRecorder`
            (the SLO engine's parameter for the same role); every event is
            recorded and each violation freezes a bundle of the
            :data:`PRE_ROLL` before it.
    """

    def __init__(
        self,
        *,
        seal: bool = True,
        track_edges: bool = False,
        recorder: Any | None = None,
    ):
        self.seal = seal
        self.track_edges = track_edges
        self.recorder = recorder
        self.finished = False

        self._reset_stream_state()

        # Forensics (track_edges mode only).
        self._edge_kinds: dict[tuple[int, int], str] = {}
        self._txn_ident: dict[int, int] = {}
        self._txn_outcome: dict[int, str] = {}

        # Accounting.
        self.violations: list[dict[str, Any]] = []
        self.bundles: list[dict[str, Any]] = []
        self.violation_count = 0
        self.committed = 0
        self.aborted = 0
        self.sealed = 0
        self.pruned = 0
        self.folded_edges = 0
        self.late_sealed_reads = 0
        self.duplicate_commits = 0
        self.rebases = 0
        self.lost_commits = 0
        self.pending_dropped = 0
        self.pending_unresolved = 0
        self.events_seen = 0
        self.peak_tracked = 0
        self.peak_live = 0
        self.segments = 1
        self._segment_events = 0
        self._last_ts = 0.0

    def _reset_stream_state(self) -> None:
        """(Re)initialize everything derived from one run's event stream.

        Called from ``__init__`` and again at every trace *seam* — a
        timestamp regression means an independent run follows in the same
        stream (a campaign's next drill restarting its simulator at 0),
        with transaction numbers restarting from scratch."""
        self._topo = IncrementalTopology()
        #: The topology's node numbering and edge sets, read in place on the
        #: commit and seal paths (membership, in-degree, successors).
        self._ord = self._topo._ord
        self._pred = self._topo._pred
        self._succ = self._topo._succ
        self._tokens: dict[int, _Token] = {}
        #: Live tokens per begin floor, and the least of those floors: the
        #: floor's token term without a scan of every token.
        self._token_floors: dict[int, int] = {}
        self._low_floor: int | None = None
        self._nodes: dict[int, _Node] = {}
        #: Per-key sorted list of committed, still-readable writer idents
        #: (active nodes and sealed-but-readable frontier versions).
        self._writers: dict[Any, list[int]] = {}
        #: Sorted idents of every writer in ``_writers``: the ones a floor
        #: rise passes are a slice of it.
        self._readable: list[int] = []
        #: The keys of ``_writers`` listing two or more idents, in the order
        #: they got there: the only keys a prune pass can take anything from.
        self._prunable: dict[Any, None] = {}
        #: What changed since the last seal pass: nodes that may have become
        #: sealable, keys that may have a version to prune.
        self._seeds: list[int] = []
        self._touched: dict[Any, None] = {}
        #: The floor the last seal pass ran at.
        self._last_floor = 0
        #: Sealed writers whose versions are still readable; T0 pre-sealed.
        self._sealed_readable: set[int] = {0}
        #: Keys a sealed-readable writer still appears under (prune state).
        self._sealed_writes: dict[int, set[Any]] = {}
        #: Per-key active reads-from pairs (reader, writer); pruned when the
        #: reader seals (only the reader side can still gain edges from it).
        self._rf_pairs: dict[Any, set[tuple[int, int]]] = {}
        #: version tn -> [(reader ident, key)] awaiting the writer's commit.
        self._pending: dict[int, list[tuple[int, Any]]] = {}
        #: Versions currently being read by live transactions, per key:
        #: version -> number of live reads of it.
        self._live_reads: dict[Any, dict[int, int]] = {}
        # Frontier summary of the sealed/pruned prefix.
        self._max_pruned: dict[Any, int] = {}
        self._pruned_writer_count: dict[Any, int] = {}
        self._sealed_key_count: dict[Any, int] = {}
        self._sealed_rf_count: dict[Any, int] = {}
        self._max_sealed_rw = 0

        # Visibility floors.
        self._vc_seen = False
        self._tnc = 0
        self._vtnc = 0
        self._replica_vtnc: dict[Any, int] = {}
        #: Per-site watermarks / issued-number highs from ``dvc.advance``
        #: (multi-primary runs: floors are minima over sites — there is no
        #: single monotone counter stream to lean on).
        self._site_vtnc: dict[Any, int] = {}
        self._site_tnc: dict[Any, int] = {}
        self._max_committed_tn = 0

    def _rollover(self) -> None:
        """Close the current segment at a trace seam: the finished run's
        surviving graph folds into the cumulative counters (exactly what
        sealing would eventually have done) and stream state restarts so
        the next run's re-issued transaction numbers cannot alias it."""
        self.pending_unresolved += sum(len(v) for v in self._pending.values())
        self.sealed += len(self._nodes)
        self.folded_edges += self._topo.edges_added
        self.segments += 1
        self._segment_events = 0
        self._reset_stream_state()

    # -- the one entry point: live and replay ----------------------------------

    def route(self, name: str) -> Callable[[tuple], None] | None:
        """Tracer subscription: the names ``_HANDLERS`` takes — or every
        name while a flight recorder needs the whole stream."""
        if self.recorder is not None or name in self._HANDLERS:
            return self.export
        return None

    def export(self, event: tuple) -> None:
        """Take one event record, live or replayed
        (:func:`repro.obs.tracer.replay`); a handler reads its ``fields``
        by position."""
        if self.finished:
            return  # still on a shared tracer after finish(): nothing to do
        name, ts, fields, _optional, _span = event
        if ts < self._last_ts and self._segment_events:
            self._rollover()
        if self.recorder is not None:
            self.recorder.export(event)
        self._last_ts = ts
        self._segment_events += 1
        handler = self._HANDLERS.get(name)
        if handler is not None:
            handler(self, fields, ts)

    def close(self) -> None:
        """Tracer-close hook: finish certification (idempotent)."""
        self.finish()

    def finish(self) -> None:
        """Freeze the engine: unresolved pending reads drop, as the
        committed projection drops reads from never-committed writers."""
        if self.finished:
            return
        self.finished = True
        self.pending_unresolved += sum(len(v) for v in self._pending.values())

    # -- event processing -----------------------------------------------------

    def _on_vc(self, fields: tuple, ts: float) -> None:
        tnc = fields[_VC_TNC]
        vtnc = fields[_VC_VTNC]
        if tnc is not None:
            self._vc_seen = True
            tnc = int(tnc)
            if tnc > self._tnc:
                self._tnc = tnc
        if vtnc is not None:
            vtnc = int(vtnc)
            if vtnc > self._vtnc:
                self._vtnc = vtnc

    def _on_site_advance(self, fields: tuple, ts: float) -> None:
        site = fields[_SITE]
        if site is not None:
            vtnc = fields[_SITE_VTNC]
            if vtnc is not None and int(vtnc) > self._site_vtnc.get(site, -1):
                self._site_vtnc[site] = int(vtnc)
            tnc = fields[_SITE_TNC]
            if tnc is not None and int(tnc) > self._site_tnc.get(site, -1):
                self._site_tnc[site] = int(tnc)

    def _on_replica_watermark(self, fields: tuple, ts: float) -> None:
        self._replica_floor(fields[_WATERMARK_REPLICA], fields[_WATERMARK_VTNC])

    def _on_replica_ack(self, fields: tuple, ts: float) -> None:
        self._replica_floor(fields[_ACK_REPLICA], fields[_ACK_VTNC])

    def _replica_floor(self, rid: Any, vtnc: Any) -> None:
        if rid is not None and vtnc is not None:
            self._replica_vtnc[rid] = int(vtnc)

    def _on_promote(self, fields: tuple, ts: float) -> None:
        # The chosen replica becomes the primary; its watermark now
        # arrives through the new primary's vc.* events.
        self._replica_vtnc.pop(fields[_PROMOTE_REPLICA], None)
        vtnc = fields[_PROMOTE_VTNC]
        if vtnc is not None:
            self._rebase(int(vtnc))

    # -- floors ----------------------------------------------------------------

    def _watermark_floor(self) -> int:
        if self._site_vtnc:
            # Multi-primary: each site advances an independent GTN
            # counter, so the only safe global watermark is the slowest
            # site's (a snapshot vector's components all sit at or above
            # it — lowering an included component lands at ``tn' - 1`` of
            # an entry some site has not passed, hence above this min).
            floor = min(self._site_vtnc.values())
            if self._replica_vtnc:
                floor = min(floor, min(self._replica_vtnc.values()))
            return floor
        if not self._vc_seen:
            return self._max_committed_tn
        floor = self._vtnc
        if self._replica_vtnc:
            floor = min(floor, min(self._replica_vtnc.values()))
        return floor

    def _begin_floor(self, cls: str) -> int:
        if self._site_tnc:
            # Multi-primary: a read-write transaction's eventual tn is
            # issued by *some* site strictly after its begin, so the min
            # over every site's issued-number high bounds it from below —
            # the global stream is not tn-monotone (a commit on a lagging
            # shard arrives numerically below an earlier commit on a fast
            # one), which is exactly why the single-stream ``_tnc`` bound
            # cannot be used here.
            if cls == "ro":
                return self._watermark_floor()
            return min(self._site_tnc.values())
        if not self._vc_seen:
            # Without vc.* events a reader's snapshot point is unknown —
            # a distributed RO may be pinned to a lagging site's vtnc —
            # so hold the floor fully open for its lifetime.  RW reads
            # return latest-committed versions, so their begin watermark
            # is safe.
            return 0 if cls == "ro" else self._max_committed_tn
        if cls == "ro":
            return self._watermark_floor()
        return self._tnc

    def _current_floor(self) -> int:
        floor = self._watermark_floor()
        low = self._low_floor
        return low if low is not None and low < floor else floor

    def _rebase(self, vtnc: int) -> None:
        """Fail-over epoch boundary: commits above the promoted watermark
        never shipped, so the surviving timeline does not contain them and
        the new primary re-issues their transaction numbers.  Drop the
        lost suffix from the graph and clamp every floor back to the
        promoted watermark (the deposed primary's counters ran ahead).

        Lost writers are never sealed — sealing requires ``ident <= floor``
        and the floor never exceeds the slowest replica's watermark, which
        the promoted (most advanced) replica dominates — so removal only
        touches the live graph.  What the removal enables is not tracked:
        the next seal pass starts from every node, and its prune pass from
        every candidate key.
        """
        lost = sorted(
            ident
            for ident in self._nodes
            if 0 < ident < RO_ID_OFFSET and ident > vtnc
        )
        for ident in lost:
            node = self._nodes.pop(ident)
            if self.track_edges:
                for succ in self._topo.successors(ident):
                    self._edge_kinds.pop((ident, succ), None)
                for pred in self._topo.predecessors(ident):
                    self._edge_kinds.pop((pred, ident), None)
            self._topo.remove_node(ident)
            index = bisect_left(self._readable, ident)
            if index < len(self._readable) and self._readable[index] == ident:
                del self._readable[index]
            for key in node.writes:
                writers = self._writers.get(key)
                if writers is not None:
                    index = bisect_left(writers, ident)
                    if index < len(writers) and writers[index] == ident:
                        del writers[index]
                    if len(writers) < 2:
                        self._prunable.pop(key, None)
                    if not writers:
                        del self._writers[key]
                pairs = self._rf_pairs.get(key)
                if pairs is not None:
                    # Readers of the lost write observed a value the
                    # surviving timeline never produced; the fail-over
                    # model accepts that, so the pair just dissolves.
                    pairs.difference_update(
                        {pair for pair in pairs if pair[1] == ident}
                    )
                    if not pairs:
                        del self._rf_pairs[key]
            for key, writer in node.pairs:
                pairs = self._rf_pairs.get(key)
                if pairs is not None:
                    pairs.discard((ident, writer))
                    if not pairs:
                        del self._rf_pairs[key]
            self.lost_commits += 1
        if lost:
            lost_set = set(lost)
            for version, entries in list(self._pending.items()):
                kept = [
                    (reader, key)
                    for reader, key in entries
                    if reader not in lost_set
                ]
                self.pending_dropped += len(entries) - len(kept)
                if kept:
                    self._pending[version] = kept
                else:
                    del self._pending[version]
        self._vtnc = min(self._vtnc, vtnc)
        self._tnc = min(self._tnc, vtnc)
        self._max_committed_tn = min(self._max_committed_tn, vtnc)
        floors: dict[int, int] = {}
        for token in self._tokens.values():
            if token.begin_floor > vtnc:
                token.begin_floor = vtnc
            floors[token.begin_floor] = floors.get(token.begin_floor, 0) + 1
        self._token_floors = floors
        self._low_floor = min(floors) if floors else None
        if self.seal:
            self._seeds.extend(self._nodes)
            self._touched.update(self._prunable)
        self.rebases += 1

    # -- transaction lifecycle -------------------------------------------------

    def _on_begin(self, fields: tuple, ts: float) -> None:
        self.events_seen += 1
        txn = fields[_BEGIN_TXN]
        if txn is None or txn in self._tokens:
            return
        cls = fields[_BEGIN_CLS]
        floor = self._begin_floor(cls)
        self._tokens[txn] = _Token(floor)
        floors = self._token_floors
        floors[floor] = floors.get(floor, 0) + 1
        if self._low_floor is None or floor < self._low_floor:
            self._low_floor = floor
        live = len(self._tokens)
        if live > self.peak_live:
            self.peak_live = live
        tracked = len(self._nodes) + live + len(self._sealed_writes)
        if tracked > self.peak_tracked:
            self.peak_tracked = tracked

    def _on_read(self, fields: tuple, ts: float) -> None:
        self.events_seen += 1
        token = self._tokens.get(fields[_READ_TXN])
        if token is None:
            return
        key = fields[_READ_KEY]
        if isinstance(key, list):
            key = tuple(key)  # a JSONL round trip turned a tuple key into a list
        version = fields[_READ_VERSION]
        if version is not None and type(version) is not int:
            version = int(version)
        token.reads.append((key, version))
        if version is not None:
            live = self._live_reads.get(key)
            if live is None:
                self._live_reads[key] = {version: 1}
            else:
                live[version] = live.get(version, 0) + 1

    def _on_write(self, fields: tuple, ts: float) -> None:
        self.events_seen += 1
        token = self._tokens.get(fields[_WRITE_TXN])
        if token is not None:
            key = fields[_WRITE_KEY]
            token.writes.append(tuple(key) if isinstance(key, list) else key)

    def _release_token(self, txn: int) -> _Token | None:
        """Retire a finished transaction's token.  A version nobody reads
        any more unpins the later writers of its key — seeds for the next
        seal pass, those the floor had passed (the floor hands the pass the
        rest when it rises) — and, below the key's last two writers, may
        leave an older version to prune."""
        token = self._tokens.pop(txn, None)
        if token is None:
            return None
        floors = self._token_floors
        floor = token.begin_floor
        left = floors[floor] - 1
        if left:
            floors[floor] = left
        else:
            del floors[floor]
            if floor == self._low_floor:
                self._low_floor = min(floors) if floors else None
        for key, version in token.reads:
            if version is None:
                continue
            live = self._live_reads.get(key)
            if live is not None:
                left = live[version] - 1
                if left:
                    live[version] = left
                    continue
                del live[version]
                if not live:
                    del self._live_reads[key]
                writers = self._writers.get(key)
                if self.seal and writers and version < writers[-1]:
                    self._seeds.extend(
                        writers[
                            bisect_right(writers, version):
                            bisect_right(writers, self._last_floor)
                        ]
                    )
                    if len(writers) > 1 and version <= writers[-2]:
                        self._touched[key] = None
        return token

    def _on_abort(self, fields: tuple, ts: float) -> None:
        self.events_seen += 1
        txn, tn, ident = fields[_END_TXN], fields[_END_TN], fields[_END_IDENT]
        self._release_token(txn)
        self.aborted += 1
        if self.track_edges and ident is not None:
            self._txn_ident[txn] = int(ident)
            self._txn_outcome[txn] = "aborted"
        if tn is not None:
            # The writer's fate is decided: reads of its staged versions
            # contribute nothing to the committed projection.
            for reader, _key in self._pending.pop(int(tn), ()):
                node = self._nodes.get(reader)
                if node is not None:
                    node.pending_out -= 1
                    if self.seal:
                        self._seeds.append(reader)
                self.pending_dropped += 1
        if self.seal:
            self._seal_pass()

    def _on_commit(self, fields: tuple, ts: float) -> None:
        self.events_seen += 1
        txn, tn, ident = fields[_END_TXN], fields[_END_TN], fields[_END_IDENT]
        token = self._release_token(txn)
        if ident is None:
            return
        ident = int(ident)
        read_only = ident >= RO_ID_OFFSET
        nodes = self._nodes
        sealed = self._sealed_readable
        # Duplicate commits can arrive from crash-recovery replay.  An
        # unsealed duplicate is caught by membership; a sealed one by the
        # frontier bound — sealing requires the floor at or above the ident,
        # every live token holds the floor below its own eventual tn, and tn
        # assignment is monotone, so a *genuine* first commit always arrives
        # above every sealed read-write ident.
        if (
            ident in nodes
            or ident in sealed
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
        reads = token.reads if token is not None else []
        writes = token.writes if token is not None else []

        # Each read once: below the sealed/pruned frontier, linked to a
        # committed writer (or T0, or the reader's own staged write), or
        # waiting on a writer whose fate is not decided yet.
        links: list[tuple[int, int, Any]] = []
        waits: list[tuple[int, Any]] = []
        for key, version in reads:
            if version is None:
                version = ident  # reads own staged write
            elif version <= 0:
                version = 0  # initial version, written by T0
            if version != ident and (
                version <= self._max_pruned.get(key, -1)
                or (version == 0 and self._sealed_key_count.get(key, 0) > 0)
            ):
                # A read below the sealed/pruned frontier (for the initial
                # version: any sealed writer of the key would gain an edge
                # from it).  Impossible under the floor rule, so the verdict
                # is tainted rather than wrong.
                self.late_sealed_reads += 1
            elif version == ident or version in nodes or version in sealed:
                links.append((ident, version, key))
            else:
                waits.append((version, key))
        if (
            read_only
            and not writes
            and not waits
            and self.seal
            and self._commit_sealed_reader(ident, links)
        ):
            self._seal_pass()
            return

        node = _Node(ident)
        nodes[ident] = node
        self._topo.add_node(ident)
        # A writer the floor has not passed waits for it (the pass takes
        # it when the floor rises); so does its keys' prune.
        passed = ident <= self._last_floor
        edges: list[tuple[int, int, str, Any]] = []

        # Writes first: the rule's "other writer Tk" quantifier, arriving
        # late — re-derive against every active pair on the key.  Pairs whose
        # reader sealed fold: their edge would leave a forever-source.
        for key in writes:
            if key in node.writes:
                continue
            node.writes.add(key)
            if passed:
                self._touched[key] = None
            for reader, writer in self._rf_pairs.get(key, ()):
                if writer == ident or reader == ident:
                    continue
                if writer < ident:
                    edges.append((reader, ident, RW, key))
                else:
                    edges.append((ident, writer, WW, key))
            self.folded_edges += self._sealed_rf_count.get(key, 0)
            writers = self._writers.setdefault(key, [])
            insort(writers, ident)
            if len(writers) == 2:
                self._prunable[key] = None
        if node.writes:
            insort(self._readable, ident)

        # Reads: SG edge + version-order edges against the writers known so
        # far; later writers are covered by the write rule above.  A read of
        # an uncommitted (or unknown) writer stays pending until its fate is
        # decided — exactly the committed projection's treatment.
        for version, key in waits:
            self._pending.setdefault(version, []).append((ident, key))
        node.pending_out = len(waits)
        if links:
            self._link(links, edges)
        if edges:
            self._apply_edges(edges, ts, ident)

        # Resolve reads that were waiting for this writer's fate.
        if not read_only:
            resolved = self._pending.pop(ident, ())
            if resolved:
                links = []
                for reader, key in resolved:
                    rnode = nodes.get(reader)
                    if rnode is None:
                        continue
                    rnode.pending_out -= 1
                    if self.seal:
                        self._seeds.append(reader)
                    links.append((reader, ident, key))
                edges = []
                self._link(links, edges)
                self._apply_edges(edges, ts, ident)

        tracked = len(nodes) + len(self._tokens) + len(self._sealed_writes)
        if tracked > self.peak_tracked:
            self.peak_tracked = tracked
        if not self.seal:
            return
        if not node.pending_out and not self._pred[ident] and (passed or not node.writes):
            self._seeds.append(ident)
        self._seal_pass()

    def _commit_sealed_reader(self, ident: int, links: list[tuple[int, int, Any]]) -> bool:
        """Commit and seal a read-only transaction in place, when no edge
        the rule derives for it can enter the graph: each version it read is
        T0's or a sealed writer's, and so is every later writer of the key.
        With no pending pair and no writes it would seal in the pass that
        follows its commit, every edge folded — so it is counted as
        add-then-seal counts it, with no node and no reads-from pair.  False,
        having changed nothing, when any read falls outside that."""
        sealed = self._sealed_readable
        nodes = self._nodes
        for _reader, version, key in links:
            if version not in sealed:
                return False  # an active writer's version, or its own
            writers = self._writers.get(key, ())
            for writer in writers[bisect_right(writers, version):]:
                if writer in nodes:
                    return False  # its rw edge would enter the graph
        edges: list[tuple[int, int, str, Any]] = []
        self._link(links, edges)
        self.folded_edges += len(edges)  # every edge has a sealed end
        # A pair counts once, as ``_seal`` counts it: a key read twice at
        # one version lists it twice.
        counts = self._sealed_rf_count
        pairs: set[tuple[Any, int]] = set()
        for _reader, version, key in links:
            if (key, version) not in pairs:
                pairs.add((key, version))
                counts[key] = counts.get(key, 0) + 1
        tracked = len(nodes) + 1 + len(self._tokens) + len(self._sealed_writes)
        if tracked > self.peak_tracked:
            self.peak_tracked = tracked
        self.sealed += 1
        return True

    # -- pair and edge derivation ----------------------------------------------

    def _link(
        self,
        links: list[tuple[int, int, Any]],
        edges: list[tuple[int, int, str, Any]],
    ) -> None:
        """Activate reads-from pairs ``(reader, writer, key)`` whose writer
        is committed (or T0, or the reader itself): the rule of
        :mod:`repro.histories.derive` (``sg_edge`` and ``version_order_edges``
        under ``number_precedes``) against the writers known so far, written
        out in place.  A reader that is a graph node keeps its pairs for the
        write rule of later writers; one sealed in place keeps none."""
        nodes = self._nodes
        for reader, writer, key in links:
            if writer != reader:
                edges.append((writer, reader, WR, key))
            for other in self._writers.get(key, ()):
                if other == writer or other == reader:
                    continue
                if writer < other:
                    edges.append((reader, other, RW, key))
                else:
                    edges.append((other, writer, WW, key))
            # Version-order edges against pruned writers all left the
            # frontier (pruned < any acceptable read version): a count.
            self.folded_edges += self._pruned_writer_count.get(key, 0)
            rnode = nodes.get(reader)
            if rnode is None:
                continue
            pairs = self._rf_pairs.get(key)
            if pairs is None:
                self._rf_pairs[key] = {(reader, writer)}
            else:
                pairs.add((reader, writer))
            rnode.pairs.append((key, writer))

    def _apply_edges(
        self, edges: Iterable[tuple[int, int, str, Any]], ts: float, at: int
    ) -> None:
        tracked = self._ord
        for src, dst, kind, key in edges:
            if src not in tracked or dst not in tracked:
                # A sealed endpoint: sealed nodes are sources forever, so no
                # cycle can pass through them — the edge folds to a count.
                # (Edges *into* a sealed node are impossible outside the
                # late-read paths, which never reach here.)
                self.folded_edges += 1
                continue
            cycle = self._topo.add_edge(src, dst)
            if cycle is None:
                if self.track_edges:
                    self._edge_kinds.setdefault((src, dst), kind)
                continue
            self.violation_count += 1
            if len(self.violations) >= MAX_VIOLATIONS:
                continue
            violation = {
                "ts": round(ts, 9),
                "at_commit": at,
                "edge": [src, dst],
                "edge_kind": kind,
                "key": key,
                "cycle": list(cycle),
            }
            self.violations.append(violation)
            if self.recorder is not None:
                breach = WitnessBreach(ts, (src, dst), kind, cycle)
                self.bundles.append(
                    self.recorder.bundle(
                        breach, pre_roll=PRE_ROLL, counters=self._summary()
                    )
                )

    # -- sealing ----------------------------------------------------------------

    def _seal_pass(self) -> None:
        """Seal to the fixpoint from what changed since the last pass: the
        seeds (the committed node, readers whose pending pair resolved or
        dropped, later writers of a version nobody reads any more, every
        node after a rebase) and the writers a floor rise passed.  A node
        none of these reach was not sealable at the last pass and nothing
        it depends on moved.  Then only what a seal can enable is revisited
        — the sealed node's successors and the later writers of each key it
        wrote.  Nothing a seal does can disable another."""
        floor = self._current_floor()
        nodes = self._nodes
        work = self._seeds
        self._seeds = []
        if floor > self._last_floor:
            readable = self._readable
            risen = readable[
                bisect_right(readable, self._last_floor):bisect_right(readable, floor)
            ]
            for ident in risen:
                # A version the floor passed may supersede an older one.
                node = nodes.get(ident)
                for key in node.writes if node is not None else self._sealed_writes[ident]:
                    self._touched[key] = None
            work.extend(risen)
        self._last_floor = floor
        for ident in work:  # grows while it is walked
            if ident in nodes and self._sealable(ident, floor):
                work.extend(self._succ[ident])
                for key in nodes[ident].writes:
                    writers = self._writers[key]
                    work.extend(writers[bisect_right(writers, ident):])
                self._seal(ident)
        if self._touched:
            self._prune_pass(floor)

    def _sealable(self, ident: int, floor: int) -> bool:
        node = self._nodes[ident]
        if node.pending_out or self._pred[ident]:
            return False
        if not node.writes:
            # Pure reader: with no pending pairs left, nothing can ever
            # target it (all derivable edges from its pairs point outward).
            return True
        if ident > floor:
            return False  # a live or future snapshot could still read below it
        for key in node.writes:
            live = self._live_reads.get(key)
            if live and min(live) < ident:
                return False  # an in-flight read will derive reader -> ident
            for writer in self._writers.get(key, ()):
                if writer >= ident:
                    break
                if writer not in self._sealed_readable:
                    # A late read of this version would derive
                    # writer -> ident into a still-active node.
                    return False
        return True

    def _seal(self, ident: int) -> None:
        node = self._nodes.pop(ident)
        if self.track_edges:
            for succ in self._succ[ident]:
                self._edge_kinds.pop((ident, succ), None)
        self._topo.remove_source(ident)
        if node.writes:
            # Still readable: stays in the per-key version lists until a
            # successor at or below the floor supersedes it (prune).
            self._sealed_readable.add(ident)
            self._sealed_writes[ident] = node.writes
            for key in node.writes:
                self._sealed_key_count[key] = self._sealed_key_count.get(key, 0) + 1
                if ident != self._writers[key][-1]:
                    self._touched[key] = None  # a successor may supersede it
        if 0 < ident < RO_ID_OFFSET and ident > self._max_sealed_rw:
            self._max_sealed_rw = ident
        for key, writer in node.pairs:
            # A pair counts once, when it leaves ``_rf_pairs``: the write rule
            # derives one edge per distinct pair, and a reader listing the same
            # pair twice (it read the key twice) must not count it twice.
            pairs = self._rf_pairs.get(key)
            if pairs is not None and (ident, writer) in pairs:
                pairs.remove((ident, writer))
                if not pairs:
                    del self._rf_pairs[key]
                self._sealed_rf_count[key] = self._sealed_rf_count.get(key, 0) + 1
        self.sealed += 1

    def _prune_pass(self, floor: int) -> None:
        """Drop sealed versions that can never be read again: those with a
        readable successor at or below the floor and no live read at or
        below them.  Only a key listing two or more writers can have one,
        and only a key touched since the last pass (a writer added or
        sealed, a live read gone, a floor rise past one of its writers)
        can have gained one: every other key was left with nothing to
        prune, and a floor rise alone changes that only where the key's
        second writer is what the floor passed."""
        touched = self._touched
        self._touched = {}
        prunable = self._prunable
        for key in touched:
            if key not in prunable:
                continue
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
            del writers[: len(removed)]
            for writer in removed:
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
                        del self._readable[bisect_left(self._readable, writer)]
                        self.pruned += 1
            if len(writers) < 2:
                del prunable[key]

    # -- results -----------------------------------------------------------------

    @property
    def serializable(self) -> bool:
        return self.violation_count == 0

    @property
    def ok(self) -> bool:
        """Verdict for gating: serializable AND the seal never lied."""
        return self.serializable and self.late_sealed_reads == 0

    def tracked(self) -> int:
        return len(self._nodes) + len(self._tokens) + len(self._sealed_writes)

    def gate_violations(self) -> list[str]:
        """Non-ok verdicts as drill/campaign violation strings (empty when
        ``ok``) — the uniform bridge into every campaign's gate."""
        out = []
        for violation in self.violations:
            cycle = " -> ".join(str(t) for t in violation["cycle"])
            out.append(
                f"witness: MVSG cycle at ts={violation['ts']} via "
                f"{violation['edge_kind']} edge on {violation['key']!r}: {cycle}"
            )
        if self.violation_count > len(self.violations):
            out.append(
                f"witness: {self.violation_count - len(self.violations)} further "
                f"MVSG cycle(s) beyond the first {len(self.violations)}"
            )
        if self.late_sealed_reads:
            out.append(
                f"witness: verdict tainted — {self.late_sealed_reads} read(s) "
                f"below the sealed frontier"
            )
        return out

    def _summary(self) -> dict[str, Any]:
        return {
            "transactions": self.committed,
            "aborted": self.aborted,
            "sealed": self.sealed,
            "pruned": self.pruned,
            "tracked": self.tracked(),
            "live": len(self._tokens),
            "peak_tracked": self.peak_tracked,
            "peak_live": self.peak_live,
            "edges_live": self._topo.edges_added,
            "edges_folded": self.folded_edges,
            "late_sealed_reads": self.late_sealed_reads,
            "duplicate_commits": self.duplicate_commits,
            "rebases": self.rebases,
            "lost_commits": self.lost_commits,
            "pending_dropped": self.pending_dropped,
            "events": self.events_seen,
            "segments": self.segments,
        }

    def report(self) -> dict[str, Any]:
        """Deterministic verdict block — a pure function of the event stream."""
        summary = self._summary()
        summary["pending_unresolved"] = (
            self.pending_unresolved
            if self.finished
            else self.pending_unresolved
            + sum(len(v) for v in self._pending.values())
        )
        return {
            "schema": REPORT_SCHEMA,
            "ok": self.ok,
            "serializable": self.serializable,
            "sealing": self.seal,
            "violation_count": self.violation_count,
            "violations": [dict(v) for v in self.violations],
            **summary,
        }

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        report = self.report()
        verdict = "1SR certified" if report["ok"] else (
            "NOT SERIALIZABLE" if not report["serializable"] else "TAINTED"
        )
        lines = [
            f"witness verdict: {verdict} — {report['transactions']} committed, "
            f"{report['aborted']} aborted, {report['events']} history events"
            + (
                f" across {report['segments']} runs"
                if report["segments"] > 1
                else ""
            ),
            f"  graph: {report['edges_live']} live edges + {report['edges_folded']} "
            f"folded, {report['sealed']} sealed ({report['pruned']} pruned), "
            f"peak tracked {report['peak_tracked']} (peak live {report['peak_live']})",
        ]
        if report["late_sealed_reads"]:
            lines.append(
                f"  WARNING: {report['late_sealed_reads']} reads below the sealed "
                f"frontier — verdict untrusted"
            )
        for violation in report["violations"]:
            cycle = " -> ".join(str(t) for t in violation["cycle"])
            lines.append(
                f"  cycle at ts={violation['ts']} via {violation['edge_kind']} "
                f"edge on {violation['key']!r}: {cycle}"
            )
        if report["violation_count"] > len(report["violations"]):
            lines.append(
                f"  ... and {report['violation_count'] - len(report['violations'])} "
                f"further violation(s)"
            )
        return "\n".join(lines)

    # -- forensics accessors (track_edges mode) -----------------------------------

    def ident_of(self, txn: int) -> int | None:
        """Serialization identity recorded for a transaction token."""
        return self._txn_ident.get(txn)

    def outcome_of(self, txn: int) -> str | None:
        return self._txn_outcome.get(txn)

    def edges_of(self, ident: int) -> dict[str, list[tuple[int, int, str]]]:
        """Incident edges with kinds; empty unless ``track_edges``."""
        if ident not in self._topo:
            return {"in": [], "out": []}
        incoming = sorted(
            (src, ident, self._edge_kinds.get((src, ident), "?"))
            for src in self._topo.predecessors(ident)
        )
        outgoing = sorted(
            (ident, dst, self._edge_kinds.get((ident, dst), "?"))
            for dst in self._topo.successors(ident)
        )
        return {"in": incoming, "out": outgoing}

    #: Dispatch by exact name; the keys are the witness's subscription.
    _HANDLERS = {
        "vc.register": _on_vc,
        "vc.advance": _on_vc,
        "vc.discard": _on_vc,
        "history.begin": _on_begin,
        "history.read": _on_read,
        "history.write": _on_write,
        "history.commit": _on_commit,
        "history.abort": _on_abort,
        "dvc.advance": _on_site_advance,
        "replica.watermark": _on_replica_watermark,
        "replica.ack": _on_replica_ack,
        "replica.promote": _on_promote,
    }


def witness_history(history: Any, *, seal: bool = False, **kwargs: Any) -> WitnessEngine:
    """Replay an offline :class:`~repro.histories.operations.History`
    through a fresh engine — the parity bridge between the two checkers.

    Operations arrive grouped per transaction (the recorder flushes at
    finish), under their final identities; the verdict must match
    :func:`repro.histories.checker.check_one_copy_serializable` whenever
    ``seal=False`` (and with sealing on, any divergence is flagged by
    ``late_sealed_reads``).

    Hand-parsed histories (``History.parse``) carry no explicit BEGIN
    ops, so a begin is synthesized the first time an identity appears —
    otherwise its reads and writes would land on no token and silently
    vanish from the projection.
    """
    from repro.histories.operations import OpKind

    engine = WitnessEngine(seal=seal, **kwargs)

    def send(name: str, ts: float, *fields: Any) -> None:
        engine.export((name, ts, fields, None, None))

    ts = 0.0
    begun: set[int] = set()
    for op in history.ops:
        ts += 1.0
        ident = op.txn
        read_only = ident >= RO_ID_OFFSET
        cls = "ro" if read_only else "rw"
        if op.kind is not OpKind.BEGIN and ident not in begun:
            begun.add(ident)
            send("history.begin", ts - 0.5, ident, cls)
        if op.kind is OpKind.BEGIN:
            begun.add(ident)
            send("history.begin", ts, ident, cls)
        elif op.kind is OpKind.READ:
            send("history.read", ts, ident, op.key, op.version)
        elif op.kind is OpKind.WRITE:
            send("history.write", ts, ident, op.key)
        elif op.kind is OpKind.COMMIT:
            tn = None if read_only else ident
            send("history.commit", ts, ident, ident, tn, cls)
        elif op.kind is OpKind.ABORT:
            tn = ident if not read_only and ident > 0 else None
            send("history.abort", ts, ident, ident, tn, cls)
    engine.finish()
    return engine
