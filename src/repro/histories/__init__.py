"""Formal model of (multiversion) histories and serializability oracles.

Implements paper Section 3: operations, histories, reads-from, serialization
graphs SG(H), multiversion serialization graphs MVSG(H), one-copy
serializability checking, and a brute-force cross-check for tiny histories.
"""

from repro.histories.checker import (
    CheckReport,
    NotSerializable,
    assert_one_copy_serializable,
    check_one_copy_serializable,
)
from repro.histories.enumeration import (
    brute_force_one_copy_serializable,
    exists_acyclic_version_order,
    witness_serial_orders,
)
from repro.histories.graphs import Digraph
from repro.histories.mvsg import (
    is_one_copy_serializable,
    multiversion_serialization_graph,
    one_copy_serial_order,
    version_order_by_number,
)
from repro.histories.operations import (
    History,
    Op,
    OpKind,
    abort,
    commit,
    read,
    write,
)
from repro.histories.recorder import RO_ID_OFFSET, HistoryRecorder
from repro.histories.serialization_graph import (
    is_conflict_serializable,
    serialization_graph,
)

__all__ = [
    "CheckReport",
    "Digraph",
    "History",
    "HistoryRecorder",
    "NotSerializable",
    "Op",
    "OpKind",
    "RO_ID_OFFSET",
    "abort",
    "assert_one_copy_serializable",
    "brute_force_one_copy_serializable",
    "check_one_copy_serializable",
    "commit",
    "exists_acyclic_version_order",
    "is_conflict_serializable",
    "is_one_copy_serializable",
    "multiversion_serialization_graph",
    "one_copy_serial_order",
    "read",
    "serialization_graph",
    "version_order_by_number",
    "witness_serial_orders",
    "write",
]
