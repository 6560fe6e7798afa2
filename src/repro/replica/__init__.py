"""repro.replica — WAL-shipped read replicas with watermark propagation.

The paper's read-only fast path needs only a snapshot number and committed
versions up to it — state that can live anywhere the log has reached.  This
package ships the primary's write-ahead log over the courier to N replicas,
each maintaining a local visible watermark ``vtnc_replica <=
vtnc_primary``, and routes read-only sessions to them (``docs/
replication.md``).

Self-healing (``docs/replication.md`` durability modes): :mod:`~repro.
replica.quorum` adds majority-acknowledged commits (RPO=0) behind an
epoch lease that fences a partitioned primary; :mod:`~repro.replica.
detect` adds heartbeat failure detection and quorum-vote automatic
fail-over; :mod:`~repro.replica.availability` is the drill proving the
loop closes.
"""

from repro.replica.availability import (
    CRASH_POINTS,
    AvailabilityPhase,
    AvailabilityReport,
    CrashPointResult,
    run_availability_campaign,
)
from repro.replica.bench import run_replica_scaling, run_replica_sync
from repro.replica.campaign import (
    REPLICATION_SPEC,
    ReplicationPhase,
    ReplicationReport,
    run_replication_campaign,
)
from repro.replica.cluster import ReplicaCluster
from repro.replica.detect import ClusterSupervisor, FailureDetector, HeartbeatConfig
from repro.replica.node import Replica
from repro.replica.quorum import (
    EpochLease,
    QuorumGate,
    QuorumVC2PLScheduler,
    ReplicationMode,
)
from repro.replica.session import ReplicatedDatabase
from repro.replica.ship import LogShipper

__all__ = [
    "AvailabilityPhase",
    "AvailabilityReport",
    "CRASH_POINTS",
    "ClusterSupervisor",
    "CrashPointResult",
    "EpochLease",
    "FailureDetector",
    "HeartbeatConfig",
    "LogShipper",
    "QuorumGate",
    "QuorumVC2PLScheduler",
    "REPLICATION_SPEC",
    "Replica",
    "ReplicaCluster",
    "ReplicatedDatabase",
    "ReplicationMode",
    "ReplicationPhase",
    "ReplicationReport",
    "run_availability_campaign",
    "run_replica_scaling",
    "run_replica_sync",
    "run_replication_campaign",
]
