"""repro.shard: SPLID-range sharding for the lock-protocol contest.

The document is partitioned into contiguous SPLID subtree ranges; each
shard owns a full stack (buffer pool, WAL, lock manager) and executes
shipped node-manager operations; a router maps every operation to its
owning shard and chases cross-shard deadlocks with edge-chasing probes.
See ``docs/architecture.md`` ("Sharding") for the protocol and the
determinism contract.
"""

from repro.shard.chaos import ChaosTransport
from repro.shard.chaosrun import ShardChaosReport, run_shard_chaos
from repro.shard.partition import PARTITION_LEVEL, PartitionPlan, plan_partitions
from repro.shard.router import (
    CrossShardDetector,
    LogicalTxn,
    ShardedDatabase,
    ShardedNodeManager,
    ShardRouter,
)
from repro.shard.runner import (
    SHARD_CHAOS_SITES,
    TRANSPORTS,
    build_sharded_cluster,
    run_sharded_cluster1,
    shard_config,
    validate_sharding,
)
from repro.shard.shard import OutboxTracer, ShardServer
from repro.shard.supervisor import ShardSupervisor
from repro.shard.transport import ProcessTransport, SimTransport

__all__ = [
    "PARTITION_LEVEL",
    "PartitionPlan",
    "plan_partitions",
    "ChaosTransport",
    "CrossShardDetector",
    "LogicalTxn",
    "ShardChaosReport",
    "ShardedDatabase",
    "ShardedNodeManager",
    "ShardRouter",
    "ShardSupervisor",
    "SHARD_CHAOS_SITES",
    "TRANSPORTS",
    "build_sharded_cluster",
    "run_shard_chaos",
    "run_sharded_cluster1",
    "shard_config",
    "validate_sharding",
    "OutboxTracer",
    "ShardServer",
    "ProcessTransport",
    "SimTransport",
]
