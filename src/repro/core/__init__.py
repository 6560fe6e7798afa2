"""The paper's contribution: version control decoupled from concurrency control."""

from repro.core.futures import OpFuture, OpStatus, failed, resolved
from repro.core.interface import Scheduler, SchedulerCounters
from repro.core.session import Database, TransactionContext
from repro.core.snapshot import SnapshotManager, VisibilityWaiter
from repro.core.transaction import SN_INFINITY, Transaction, TxnClass, TxnState
from repro.core.vc_scheduler import VersionControlledScheduler
from repro.core.version_control import VersionControl

__all__ = [
    "OpFuture",
    "OpStatus",
    "SN_INFINITY",
    "Scheduler",
    "SchedulerCounters",
    "Database",
    "TransactionContext",
    "SnapshotManager",
    "Transaction",
    "TxnClass",
    "TxnState",
    "VersionControl",
    "VersionControlledScheduler",
    "VisibilityWaiter",
    "failed",
    "resolved",
]
