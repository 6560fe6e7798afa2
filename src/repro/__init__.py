"""repro — Modular Synchronization in Multiversion Databases.

A complete, executable reproduction of Sen Gupta & Agrawal's 1989 framework
decoupling *version control* from *concurrency control* in multiversion
databases, together with the baseline protocols the paper compares against,
a serializability oracle, a deterministic discrete-event simulator, and the
distributed extension.

Quickstart::

    from repro import VC2PLScheduler

    db = VC2PLScheduler()
    writer = db.begin()
    db.write(writer, "x", 41).result()
    db.commit(writer).result()

    reader = db.begin(read_only=True)   # snapshot at vtnc; zero CC overhead
    assert db.read(reader, "x").result() == 41
    db.commit(reader).result()
"""

from repro.core import (
    Database,
    SN_INFINITY,
    OpFuture,
    Scheduler,
    SnapshotManager,
    Transaction,
    TxnClass,
    TxnState,
    VersionControl,
    VersionControlledScheduler,
)
from repro.errors import (
    AbortReason,
    CorruptLogError,
    DeadlineExceeded,
    DeadlockError,
    Overloaded,
    ProtocolError,
    ReplicaLagging,
    ReproError,
    TransactionAborted,
    ValidationError,
    VersionNotFound,
    is_retryable,
)
from repro.faults import (
    FaultInvariantChecker,
    FaultSchedule,
    FaultSpec,
    FaultyCourier,
    PartitionWindow,
    RetryPolicy,
    run_drill,
)
from repro.histories import (
    History,
    assert_one_copy_serializable,
    check_one_copy_serializable,
    is_one_copy_serializable,
)
from repro.obs import (
    NULL_TRACER,
    JsonlExporter,
    RingBufferExporter,
    Tracer,
    attach_tracer,
)
from repro.protocols import (
    AdaptiveVCScheduler,
    RecoverableVC2PLScheduler,
    VC2PLScheduler,
    VCOCCScheduler,
    VCTOScheduler,
)
from repro.qos import AdmissionController, BackoffPolicy
from repro.replica import (
    Replica,
    ReplicaCluster,
    ReplicatedDatabase,
    run_replica_scaling,
    run_replication_campaign,
)
from repro.storage import GarbageCollector, MVStore, SVStore

__version__ = "1.0.0"

__all__ = [
    "AbortReason",
    "AdaptiveVCScheduler",
    "AdmissionController",
    "BackoffPolicy",
    "CorruptLogError",
    "Database",
    "RecoverableVC2PLScheduler",
    "DeadlineExceeded",
    "DeadlockError",
    "Overloaded",
    "FaultInvariantChecker",
    "FaultSchedule",
    "FaultSpec",
    "FaultyCourier",
    "GarbageCollector",
    "History",
    "PartitionWindow",
    "RetryPolicy",
    "JsonlExporter",
    "MVStore",
    "NULL_TRACER",
    "OpFuture",
    "RingBufferExporter",
    "Tracer",
    "ProtocolError",
    "Replica",
    "ReplicaCluster",
    "ReplicaLagging",
    "ReplicatedDatabase",
    "ReproError",
    "SN_INFINITY",
    "SVStore",
    "Scheduler",
    "SnapshotManager",
    "Transaction",
    "TransactionAborted",
    "TxnClass",
    "TxnState",
    "VC2PLScheduler",
    "VCOCCScheduler",
    "VCTOScheduler",
    "ValidationError",
    "VersionControl",
    "VersionControlledScheduler",
    "VersionNotFound",
    "__version__",
    "assert_one_copy_serializable",
    "attach_tracer",
    "check_one_copy_serializable",
    "is_one_copy_serializable",
    "is_retryable",
    "run_drill",
    "run_replica_scaling",
    "run_replication_campaign",
]
