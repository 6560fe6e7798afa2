"""Causal spans: parent/child-linked timed regions over the event tracer.

PR 1's tracer records *flat* events — enough to count things, not enough to
answer "where did this distributed commit spend its time?".  A span is a
timed region with an identity (``span_id``), a trace it belongs to
(``trace_id``, one per transaction), and a parent link; together the spans
of one transaction form a tree covering VC registration, lock waits, WAL
forces, courier hops, and each 2PC leg — the input
:mod:`repro.obs.profile` walks to attribute end-to-end latency to phases.

Design constraints, matching the tracer's:

* **Events, not objects, are the source of truth.**  A span is emitted as a
  ``span.start`` / ``span.end`` event pair carrying ids; the tree is
  reconstructed from any exporter's event stream (ring buffer or JSONL
  file), so span analysis works on traces from other processes and from
  crashed runs whose ``span.end`` never arrived.
* **Near-zero cost when disabled.**  :func:`start_span` returns the shared
  :data:`NULL_SPAN` for a disabled tracer; every helper guards on
  ``tracer.enabled`` first.
* **Explicit context propagation.**  The simulator's callback style means
  thread-locals cannot carry "the current span" across a courier hop.
  Instead the tracer has one ``active_span`` slot; :class:`activate`
  saves/restores it, and :func:`bind_envelope` (called by
  ``Courier.dispatch``) closes the sender's context into the message thunk
  so the handler — and any *retransmitted or duplicated* delivery of it —
  runs under the same context at the receiving site.

Event schema::

    span.start  span=<id> parent=<id|None> trace=<id> op=<name> <fields...>
    span.end    span=<id> trace=<id> elapsed=<dt> ok=<bool>
    courier.redelivery  span=<id> n=<delivery count>   (duplicate arrivals)

Flat events emitted while a span is active are auto-stamped with
``span``/``trace`` by ``Tracer.emit``, which is how ``wal.force`` or
``fault.drop`` land inside the right 2PC leg without knowing about spans.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.obs.tracer import Tracer

#: Sentinel distinguishing "inherit the ambient context" from "no parent".
_AMBIENT = object()


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanContext trace={self.trace_id} span={self.span_id}>"


class Span:
    """A started span; ``end()`` (or context-manager exit) closes it.

    As a context manager it additionally *activates* its context — nested
    ``start_span`` calls and flat ``emit``\\ s parent to it — and restores
    the previous ambient context on exit.
    """

    __slots__ = ("_tracer", "name", "context", "parent_id", "_t0", "_prev", "_ended")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        context: SpanContext,
        parent_id: int | None,
        t0: float,
    ):
        self._tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self._t0 = t0
        self._prev: Any = None
        self._ended = False

    def end(self, ok: bool = True, **fields: Any) -> None:
        """Emit ``span.end``; idempotent (a second end is ignored)."""
        if self._ended:
            return
        self._ended = True
        self._tracer.emit(
            "span.end",
            self.context.span_id,
            self.context.trace_id,
            self._tracer.clock() - self._t0,
            ok,
            **fields,
        )

    def __enter__(self) -> "Span":
        self._prev = self._tracer.active_span
        self._tracer.active_span = self.context
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.active_span = self._prev
        self.end(ok=exc_type is None)


class NullSpan:
    """The disabled span: every operation is a no-op; context is None."""

    __slots__ = ()

    context: None = None
    parent_id: None = None
    name: str = ""

    def end(self, ok: bool = True, **fields: Any) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: Shared disabled span, returned by :func:`start_span` on a disabled tracer.
NULL_SPAN = NullSpan()


def start_span(
    tracer: Tracer,
    name: str,
    parent: SpanContext | None | object = _AMBIENT,
    **fields: Any,
) -> Span | NullSpan:
    """Open a span on ``tracer`` and emit its ``span.start`` event.

    ``parent`` defaults to the ambient active context; pass ``None`` to
    force a root span (a fresh trace id — one per transaction).  Fields are
    free-form and land on the ``span.start`` event (``txn``, ``site``,
    ``channel``...).
    """
    if not tracer.enabled:
        return NULL_SPAN
    parent_ctx = tracer.active_span if parent is _AMBIENT else parent
    if parent_ctx is None:
        trace_id = tracer.next_trace_id()
        parent_id = None
    else:
        trace_id = parent_ctx.trace_id
        parent_id = parent_ctx.span_id
    context = SpanContext(trace_id, tracer.next_span_id())
    event = tracer.emit("span.start", context.span_id, parent_id, trace_id, name, **fields)
    t0 = event[1] if event is not None else tracer.clock()
    return Span(tracer, name, context, parent_id, t0)


class activate:
    """Temporarily make ``context`` the tracer's ambient span context.

    Used at message-delivery and commit-path boundaries to re-establish the
    causal context the work belongs to.  A ``None`` tracer-disabled pair is
    a no-op, so call sites need no guard.
    """

    __slots__ = ("_tracer", "_context", "_prev", "_on")

    def __init__(self, tracer: Tracer, context: SpanContext | None):
        self._tracer = tracer
        self._context = context
        self._prev: Any = None
        self._on = tracer.enabled and context is not None

    def __enter__(self) -> "activate":
        if self._on:
            self._prev = self._tracer.active_span
            self._tracer.active_span = self._context
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._on:
            self._tracer.active_span = self._prev


def txn_context(txn: Any) -> SpanContext | None:
    """The root span context a scheduler stashed on ``txn``, if any."""
    return txn.span.context if txn.span is not None else None


def bind_envelope(
    tracer: Tracer, fn: Callable[[], None], channel: str
) -> Callable[[], None]:
    """Close the ambient span context into a courier message envelope.

    Opens a ``msg`` span (child of the sender's ambient context) covering
    send → first delivery — the courier hop, including any fault-layer
    retransmission backoff — and returns a thunk that runs ``fn`` under
    that span's context at the receiving site.  Duplicate deliveries run
    under the *same* context (emitting ``courier.redelivery``), so spans
    opened by an idempotent handler's second run still attach to the same
    tree instead of floating free.
    """
    span = start_span(tracer, "msg", channel=channel)
    state = {"deliveries": 0}

    def deliver() -> None:
        state["deliveries"] += 1
        if state["deliveries"] == 1:
            span.end(ok=True)
        else:
            tracer.emit(
                "courier.redelivery",
                span.context.span_id,
                span.context.trace_id,
                state["deliveries"],
            )
        with activate(tracer, span.context):
            fn()

    return deliver


# -- tree reconstruction ---------------------------------------------------------


class SpanNode:
    """One reconstructed span: identity, interval, children, attached events."""

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "start",
        "end",
        "ok",
        "fields",
        "children",
        "events",
        "redeliveries",
    )

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        fields: dict[str, Any],
    ):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.ok: bool | None = None
        self.fields = fields
        self.children: list["SpanNode"] = []
        self.events: list[dict[str, Any]] = []
        self.redeliveries = 0

    @property
    def duration(self) -> float:
        """Span length in clock units; 0.0 while unfinished."""
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        site = self.fields.get("site")
        channel = self.fields.get("channel")
        extra = ""
        if site is not None:
            extra = f"@s{site}"
        elif channel is not None:
            extra = f"[{channel}]"
        return f"{self.name}{extra}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanNode {self.label()} #{self.span_id} {self.start}..{self.end}>"


def transaction_trees(events: Iterable[dict[str, Any]]) -> dict[Any, SpanNode]:
    """Map ``txn_id`` → its root ``txn`` span tree."""
    from repro.obs.analyze import index_trace  # analyze builds on SpanNode

    return index_trace(events).transaction_trees()


def render_tree(root: SpanNode, indent: str = "") -> str:
    """ASCII rendering of one span tree (tests and the trace CLI)."""
    lines: list[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        end = f"{node.end:g}" if node.end is not None else "?"
        flags = f" x{node.redeliveries + 1}" if node.redeliveries else ""
        ok = "" if node.ok in (True, None) else " FAILED"
        lines.append(
            f"{indent}{'  ' * depth}{node.label()}  "
            f"[{node.start:g}..{end}]{flags}{ok}"
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
