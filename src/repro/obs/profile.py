"""Critical-path profiling of transaction span trees.

Answers the question MVCC comparisons hinge on — *where does a committed
transaction's end-to-end latency go?* — the lens Larson et al. and
Faleiro & Abadi use to compare concurrency-control designs.  Input is a
span tree from :meth:`repro.obs.analyze.TraceIndex.span_roots`; output is the
**critical path** (the chain of spans that determined the finish time) and
its attribution to named **phases** (network hop, lock wait, 2PC prepare
leg, 2PC commit leg, WAL, execution).

The walk is backward from the tree's finish time: at each span, the child
that finished last (and within the current window) is the one the parent
was waiting on; time not covered by any child is the span's own.  The
result is a gap-free segmentation of the root's duration, every segment
attributed to exactly one span — so phase shares always sum to 1.

All of this is *virtual-time* attribution of the modeled system.  Real-CPU
attribution of the simulator itself is ``benchmarks/perf``'s per-layer
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.spans import SpanNode

#: Span-name → phase.  Matched on the exact name first, then on the first
#: dotted component, then "other".
PHASE_OF_NAME: dict[str, str] = {
    "msg": "network",
    "2pc.prepare": "prepare",
    "2pc.commit": "commit",
    "commit": "commit",
    "lock.wait": "lock",
    "snapshot.fetch": "snapshot",
    "wal": "wal",
    "gc": "gc",
    "txn": "execute",
}

PHASES = ("execute", "lock", "network", "prepare", "commit", "snapshot", "wal",
          "gc", "other")


def phase_of(name: str) -> str:
    phase = PHASE_OF_NAME.get(name)
    if phase is None:
        phase = PHASE_OF_NAME.get(name.split(".", 1)[0], "other")
    return phase


@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path, attributed to ``node``."""

    node: SpanNode
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def phase(self) -> str:
        return phase_of(self.node.name)


@dataclass
class CriticalPath:
    """The segmentation of one span tree's end-to-end latency."""

    root: SpanNode
    segments: list[PathSegment]

    @property
    def total(self) -> float:
        return self.root.duration

    def span_names(self) -> list[str]:
        return [segment.node.name for segment in self.segments]

    def phases(self) -> dict[str, float]:
        """Absolute time per phase (clock units)."""
        out: dict[str, float] = {}
        for segment in self.segments:
            out[segment.phase] = out.get(segment.phase, 0.0) + segment.duration
        return out


def critical_path(root: SpanNode) -> CriticalPath:
    """Walk backward from the finish time, descending into the last-finishing
    child at every level.  Unfinished spans contribute nothing (they were
    not what completion waited on — they never completed).

    Instantaneous spans (``start == end`` — handler work takes no virtual
    time, e.g. a 2PC leg applied on message arrival) are kept on the path as
    zero-length segments when they sit exactly at the frontier the walk has
    reached; they carry no time but they name the causal step."""
    if root.end is None:
        return CriticalPath(root, [])
    segments: list[PathSegment] = []

    def walk(node: SpanNode, lo: float, hi: float) -> None:
        cursor = hi
        children = sorted(
            (c for c in node.children if c.end is not None),
            # span_id breaks same-instant ties into emission order, so the
            # backward walk visits simultaneous zero-length steps latest-first
            key=lambda c: (c.end, c.start, c.span_id),
            reverse=True,
        )
        for child in children:
            child_end = min(child.end, cursor)  # type: ignore[arg-type]
            if child_end < child.start:
                continue
            if child.start == child.end:
                if child_end != cursor:
                    continue  # instantaneous, but not at the frontier
            elif child_end <= lo:
                continue
            if child_end < cursor:
                segments.append(PathSegment(node, child_end, cursor))
            child_lo = max(child.start, lo)
            walk(child, child_lo, child_end)
            cursor = child_lo
            if cursor <= lo and lo < hi:
                break
        if cursor > lo or (hi == lo and node.start == node.end):
            segments.append(PathSegment(node, lo, cursor))

    walk(root, root.start, root.end)
    segments.reverse()
    return CriticalPath(root, segments)


def phase_shares(root: SpanNode) -> dict[str, float]:
    """Critical-path time per phase as fractions of end-to-end latency."""
    path = critical_path(root)
    total = path.total
    if total <= 0:
        return {}
    return {phase: t / total for phase, t in sorted(path.phases().items())}


def site_shares(root: SpanNode) -> dict[str, float]:
    """Critical-path time per site (``local`` when a span names none)."""
    path = critical_path(root)
    total = path.total
    if total <= 0:
        return {}
    out: dict[str, float] = {}
    for segment in path.segments:
        site = segment.node.fields.get("site")
        label = f"s{site}" if site is not None else "local"
        out[label] = out.get(label, 0.0) + segment.duration / total
    return dict(sorted(out.items()))


def aggregate_phase_shares(roots: Iterable[SpanNode]) -> dict[str, float]:
    """Duration-weighted phase shares across many transactions.

    Weighting by duration makes the answer "of all critical-path time spent
    across these transactions, what fraction was phase X" — the number a
    bench artifact records per protocol.
    """
    totals: dict[str, float] = {}
    grand = 0.0
    for root in roots:
        path = critical_path(root)
        for phase, t in path.phases().items():
            totals[phase] = totals.get(phase, 0.0) + t
        grand += path.total
    if grand <= 0:
        return {}
    return {phase: t / grand for phase, t in sorted(totals.items())}


def render_critical_path(root: SpanNode) -> str:
    """Human-readable critical path of one transaction tree."""
    path = critical_path(root)
    label = root.fields.get("txn", "?")
    lines = [f"T{label}: {path.total:g} time units end-to-end"]
    for segment in path.segments:
        lines.append(
            f"  {segment.start:>10g}..{segment.end:<10g} "
            f"{segment.duration:>8g}  {segment.node.label():<20} "
            f"[{segment.phase}]"
        )
    shares = phase_shares(root)
    if shares:
        summary = "  ".join(f"{p}={s:.0%}" for p, s in shares.items())
        lines.append(f"  phases: {summary}")
    return "\n".join(lines)
