"""The streaming MVSG certifier — Theorem 1 as an *online* watchdog.

:class:`WitnessEngine` is a tracer exporter (the same surface as
:class:`repro.obs.slo.SLOEngine`: one ``export`` for the tracer's event
dict live and a decoded trace line on replay, then
``close``/``finish``/``report``/``render``) that consumes the
``history.*`` operation stream emitted by :class:`repro.histories.recorder.
HistoryRecorder` and maintains the multiversion serialization graph of the
committed projection *incrementally*, under the paper's version-number
order.  Edge derivation is shared with the offline checker
(:mod:`repro.histories.derive`), cycle detection is incremental
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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from typing import Any, Iterable

from repro.histories.derive import number_precedes, sg_edge, version_order_edges
from repro.histories.recorder import RO_ID_OFFSET
from repro.obs.witness.topology import IncrementalTopology

REPORT_SCHEMA = "repro.witness/1"

#: Violations stored verbatim; further ones are only counted.
MAX_VIOLATIONS = 16

#: History (in trace time units) a violation's bundle holds before it.
PRE_ROLL = 50.0


def _norm_key(key: Any) -> Any:
    """JSONL round-trips tuple keys into lists; restore hashability."""
    return tuple(key) if isinstance(key, list) else key


class _Token:
    """One in-flight transaction: buffered operations + its snapshot floor."""

    __slots__ = ("txn_id", "cls", "begin_floor", "begin_ts", "reads", "writes")

    def __init__(self, txn_id: int, cls: str, begin_floor: int, begin_ts: float):
        self.txn_id = txn_id
        self.cls = cls
        self.begin_floor = begin_floor
        self.begin_ts = begin_ts
        self.reads: list[tuple[Any, int | None]] = []
        self.writes: list[Any] = []


class _Node:
    """One unsealed committed transaction in the graph."""

    __slots__ = ("ident", "writes", "pairs", "pending_out", "finish_ts")

    def __init__(self, ident: int, finish_ts: float):
        self.ident = ident
        self.writes: set[Any] = set()
        #: (key, writer) reads-from pairs with this node as reader.
        self.pairs: list[tuple[Any, int]] = []
        #: Unresolved reads-from (await an uncommitted writer's fate).
        self.pending_out = 0
        self.finish_ts = finish_ts


class _CommittedView:
    """Committed-writer membership across the active and sealed tiers, so
    the shared ``sg_edge`` rule sees one "committed set" as offline does."""

    __slots__ = ("active", "sealed")

    def __init__(self, active: dict, sealed: set):
        self.active = active
        self.sealed = sealed

    def __contains__(self, ident: int) -> bool:
        return ident in self.active or ident in self.sealed


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
        self._tokens: dict[int, _Token] = {}
        self._nodes: dict[int, _Node] = {}
        #: Per-key sorted list of committed, still-readable writer idents
        #: (active nodes and sealed-but-readable frontier versions).
        self._writers: dict[Any, list[int]] = {}
        #: The keys of ``_writers`` listing two or more idents, in the order
        #: they got there: the only keys a prune pass can take anything from.
        self._prunable: dict[Any, None] = {}
        #: Sealed writers whose versions are still readable; T0 pre-sealed.
        self._sealed_readable: set[int] = {0}
        #: Keys a sealed-readable writer still appears under (prune state).
        self._sealed_writes: dict[int, set[Any]] = {}
        #: Per-key active reads-from pairs (reader, writer); pruned when the
        #: reader seals (only the reader side can still gain edges from it).
        self._rf_pairs: dict[Any, set[tuple[int, int]]] = {}
        #: version tn -> [(reader ident, key)] awaiting the writer's commit.
        self._pending: dict[int, list[tuple[int, Any]]] = {}
        #: Versions currently being read by live transactions, per key.
        self._live_reads: dict[Any, Counter] = {}
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

    def export(self, event: dict[str, Any]) -> None:
        """Take one event: the tracer's dict live, a decoded trace line on
        replay (:func:`~repro.obs.analyze.load_trace` checked it)."""
        if self.finished:
            return  # still on a shared tracer after finish(): nothing to do
        ts = event["ts"]
        if ts < self._last_ts and self._segment_events:
            self._rollover()
        if self.recorder is not None:
            self.recorder.export(event)
        self._last_ts = ts
        self._segment_events += 1
        name = event["name"]
        handler = self._HANDLERS.get(name)
        if handler is not None:
            handler(self, event, ts)
        elif name.startswith(("vc.", "history.")):  # one test for both
            if name[0] == "h":
                self.events_seen += 1  # a history.* name with no handler
            else:
                self._on_vc(event)

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

    def _on_vc(self, fields: dict[str, Any]) -> None:
        tnc = fields.get("tnc")
        vtnc = fields.get("vtnc")
        if tnc is not None:
            self._vc_seen = True
            self._tnc = max(self._tnc, int(tnc))
        if vtnc is not None:
            self._vtnc = max(self._vtnc, int(vtnc))

    def _on_site_advance(self, fields: dict[str, Any], ts: float) -> None:
        site = fields.get("site")
        if site is not None:
            vtnc = fields.get("vtnc")
            if vtnc is not None and int(vtnc) > self._site_vtnc.get(site, -1):
                self._site_vtnc[site] = int(vtnc)
            tnc = fields.get("tnc")
            if tnc is not None and int(tnc) > self._site_tnc.get(site, -1):
                self._site_tnc[site] = int(tnc)

    def _on_replica_watermark(self, fields: dict[str, Any], ts: float) -> None:
        rid = fields.get("replica")
        vtnc = fields.get("vtnc")
        if rid is not None and vtnc is not None:
            self._replica_vtnc[rid] = int(vtnc)

    def _on_promote(self, fields: dict[str, Any], ts: float) -> None:
        # The chosen replica becomes the primary; its watermark now
        # arrives through the new primary's vc.* events.
        self._replica_vtnc.pop(fields.get("replica"), None)
        vtnc = fields.get("vtnc")
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
        for token in self._tokens.values():
            if token.begin_floor < floor:
                floor = token.begin_floor
        return floor

    def _rebase(self, vtnc: int) -> None:
        """Fail-over epoch boundary: commits above the promoted watermark
        never shipped, so the surviving timeline does not contain them and
        the new primary re-issues their transaction numbers.  Drop the
        lost suffix from the graph and clamp every floor back to the
        promoted watermark (the deposed primary's counters ran ahead).

        Lost writers are never sealed — sealing requires ``ident <= floor``
        and the floor never exceeds the slowest replica's watermark, which
        the promoted (most advanced) replica dominates — so removal only
        touches the live graph.
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
        for token in self._tokens.values():
            if token.begin_floor > vtnc:
                token.begin_floor = vtnc
        self.rebases += 1

    # -- transaction lifecycle -------------------------------------------------

    def _on_begin(self, fields: dict[str, Any], ts: float) -> None:
        self.events_seen += 1
        txn = fields.get("txn")
        if txn is None or txn in self._tokens:
            return
        cls = fields.get("cls", "rw")
        self._tokens[txn] = _Token(txn, cls, self._begin_floor(cls), ts)
        self.peak_live = max(self.peak_live, len(self._tokens))
        self._note_peak()

    def _on_read(self, fields: dict[str, Any], ts: float) -> None:
        self.events_seen += 1
        token = self._tokens.get(fields.get("txn"))
        if token is None:
            return
        key = _norm_key(fields.get("key"))
        version = fields.get("version")
        version = None if version is None else int(version)
        token.reads.append((key, version))
        if version is not None:
            live = self._live_reads.get(key)
            if live is None:
                live = self._live_reads[key] = Counter()
            live[version] += 1

    def _on_write(self, fields: dict[str, Any], ts: float) -> None:
        self.events_seen += 1
        token = self._tokens.get(fields.get("txn"))
        if token is not None:
            token.writes.append(_norm_key(fields.get("key")))

    def _release_token(self, txn: int) -> _Token | None:
        token = self._tokens.pop(txn, None)
        if token is not None:
            for key, version in token.reads:
                if version is None:
                    continue
                live = self._live_reads.get(key)
                if live is not None:
                    live[version] -= 1
                    if live[version] <= 0:
                        del live[version]
                    if not live:
                        del self._live_reads[key]
        return token

    def _on_abort(self, fields: dict[str, Any], ts: float) -> None:
        self.events_seen += 1
        txn, tn, ident = fields.get("txn"), fields.get("tn"), fields.get("ident")
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
                self.pending_dropped += 1
        if self.seal:
            self._seal_pass()

    def _on_commit(self, fields: dict[str, Any], ts: float) -> None:
        self.events_seen += 1
        txn, tn, ident = fields.get("txn"), fields.get("tn"), fields.get("ident")
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
        node = _Node(ident, ts)
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

    # -- pair and edge derivation ----------------------------------------------

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
        committed = _CommittedView(self._nodes, self._sealed_readable)
        edge = sg_edge(reader, writer, committed)
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

    def _apply_edges(
        self, edges: Iterable[tuple[int, int, str, Any]], ts: float, at: int
    ) -> None:
        for src, dst, kind, key in edges:
            if src not in self._topo or dst not in self._topo:
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

    def _sealable(self, ident: int, floor: int) -> bool:
        node = self._nodes[ident]
        if node.pending_out or self._topo.indegree(ident):
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
            for succ in self._topo.successors(ident):
                self._edge_kinds.pop((ident, succ), None)
        self._topo.remove_source(ident)
        if node.writes:
            # Still readable: stays in the per-key version lists until a
            # successor at or below the floor supersedes it (prune).
            self._sealed_readable.add(ident)
            self._sealed_writes[ident] = set(node.writes)
            for key in node.writes:
                self._sealed_key_count[key] = self._sealed_key_count.get(key, 0) + 1
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

    def order(self) -> list[int]:
        """Certified serialization order of the unsealed suffix."""
        return self._topo.order()

    #: Dispatch by exact name; ``vc.*`` is a prefix test after a miss.
    _HANDLERS = {
        "history.begin": _on_begin,
        "history.read": _on_read,
        "history.write": _on_write,
        "history.commit": _on_commit,
        "history.abort": _on_abort,
        "dvc.advance": _on_site_advance,
        "replica.watermark": _on_replica_watermark,
        "replica.ack": _on_replica_watermark,
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

    def send(name: str, ts: float, **fields: Any) -> None:
        engine.export({"name": name, "ts": ts, **fields})

    ts = 0.0
    begun: set[int] = set()
    for op in history.ops:
        ts += 1.0
        ident = op.txn
        read_only = ident >= RO_ID_OFFSET
        cls = "ro" if read_only else "rw"
        if op.kind is not OpKind.BEGIN and ident not in begun:
            begun.add(ident)
            send("history.begin", ts - 0.5, txn=ident, cls=cls)
        if op.kind is OpKind.BEGIN:
            begun.add(ident)
            send("history.begin", ts, txn=ident, cls=cls)
        elif op.kind is OpKind.READ:
            send("history.read", ts, txn=ident, key=op.key, version=op.version)
        elif op.kind is OpKind.WRITE:
            send("history.write", ts, txn=ident, key=op.key)
        elif op.kind is OpKind.COMMIT:
            tn = None if read_only else ident
            send("history.commit", ts, txn=ident, ident=ident, tn=tn, cls=cls)
        elif op.kind is OpKind.ABORT:
            tn = ident if not read_only and ident > 0 else None
            send("history.abort", ts, txn=ident, ident=ident, tn=tn, cls=cls)
    engine.finish()
    return engine
