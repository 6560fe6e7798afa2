"""Introspection and debugging tools.

Render the library's runtime artifacts in human-readable (and Graphviz)
form: MVSG graphs, execution timelines from the live trace, version chains,
and version-control state.  Used by the debugging example and handy in a
REPL when a test fails with a serialization cycle.
"""

from __future__ import annotations

from repro.core.version_control import VersionControl
from repro.histories.mvsg import multiversion_serialization_graph
from repro.histories.operations import History
from repro.histories.recorder import RO_ID_OFFSET
from repro.storage.mvstore import MVStore


def _node_label(txn: int) -> str:
    if txn == 0:
        return "T0 (init)"
    if txn >= RO_ID_OFFSET:
        return f"RO#{txn - RO_ID_OFFSET}"
    return f"T{txn}"


def mvsg_dot(history: History, highlight_cycle: list[int] | None = None) -> str:
    """Graphviz DOT source for the history's MVSG.

    Read-only transactions render as ellipses, read-write as boxes, the
    initial transaction as a diamond; ``highlight_cycle`` (e.g. from a
    :class:`~repro.histories.checker.CheckReport`) paints its edges red.
    """
    graph = multiversion_serialization_graph(history)
    cycle_edges: set[tuple[int, int]] = set()
    if highlight_cycle:
        cycle_edges = set(zip(highlight_cycle, highlight_cycle[1:]))
    lines = ["digraph MVSG {", "  rankdir=LR;"]
    for node in sorted(graph.nodes()):
        if node == 0:
            shape = "diamond"
        elif node >= RO_ID_OFFSET:
            shape = "ellipse"
        else:
            shape = "box"
        lines.append(f'  "{_node_label(node)}" [shape={shape}];')
    for src, dst in sorted(graph.edges()):
        attrs = ' [color=red, penwidth=2]' if (src, dst) in cycle_edges else ""
        lines.append(f'  "{_node_label(src)}" -> "{_node_label(dst)}"{attrs};')
    lines.append("}")
    return "\n".join(lines)


def timeline(live: list[tuple], max_events: int = 200) -> str:
    """ASCII execution timeline from a recorder's live trace.

    One row per transaction, one column per event; ``r``/``w`` cells carry
    the key, ``C``/``A`` mark commit/abort.  Reads the order operations
    actually took effect — the view the buffered history deliberately
    discards.
    """
    events = live[:max_events]
    txn_ids: list[int] = []
    for _kind, txn_id, *_rest in events:
        if txn_id not in txn_ids:
            txn_ids.append(txn_id)
    width = 4
    header = "txn".ljust(8) + "".join(
        str(i).rjust(width) for i in range(len(events))
    )
    rows = [header]
    for txn_id in txn_ids:
        cells = []
        for kind, owner, key, _version, _tn in events:
            if owner != txn_id:
                cells.append("".rjust(width))
            elif kind == "r":
                cells.append(f"r·{key}"[:width].rjust(width))
            elif kind == "w":
                cells.append(f"w·{key}"[:width].rjust(width))
            elif kind == "c":
                cells.append("C".rjust(width))
            else:
                cells.append("A".rjust(width))
        rows.append(f"T{txn_id}".ljust(8) + "".join(cells))
    if len(live) > max_events:
        rows.append(f"... ({len(live) - max_events} more events)")
    return "\n".join(rows)


def dump_version_chains(store: MVStore, limit: int = 50) -> str:
    """Formatted per-object version chains."""
    lines = []
    for i, key in enumerate(sorted(store.keys(), key=str)):
        if i >= limit:
            lines.append(f"... ({len(store)} objects total)")
            break
        chain = store.object(key)
        parts = []
        for version in chain.versions():
            flag = "*" if version.pending else ""
            parts.append(f"{version.tn}{flag}={version.value!r}")
        lines.append(f"{key}: " + " -> ".join(parts))
    return "\n".join(lines) if lines else "(empty store)"


def describe_vc(vc: VersionControl) -> str:
    """One-paragraph description of a VersionControl module's state."""
    queue = vc.queue_snapshot()
    entries = ", ".join(
        f"T{txn_id}(tn={tn}{',done' if completed else ''})"
        for txn_id, tn, completed in queue
    )
    return (
        f"tnc={vc.tnc} vtnc={vc.vtnc} lag={vc.lag} "
        f"queue=[{entries}]"
    )
