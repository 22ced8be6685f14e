"""repro.shard: SPLID-range sharding for the lock-protocol contest.

The document is partitioned into contiguous SPLID subtree ranges; each
shard owns a full stack (buffer pool, WAL, lock manager) and executes
shipped node-manager operations; a router maps every operation to its
owning shard and chases cross-shard deadlocks with edge-chasing probes.
See ``docs/architecture.md`` ("Sharding") for the protocol and the
determinism contract.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".chaos": ("ChaosTransport",),
    ".partition": ("PARTITION_LEVEL", "PartitionPlan", "plan_partitions"),
    ".router": ("CrossShardDetector", "LogicalTxn", "ShardedDatabase",
                "ShardedNodeManager", "ShardRouter"),
    ".runner": ("SHARD_CHAOS_SITES", "TRANSPORTS", "build_sharded_cluster",
                "run_sharded_cluster1", "shard_config", "validate_sharding"),
    ".shard": ("OutboxTracer", "ShardServer"),
    ".supervisor": ("ShardSupervisor",),
    ".transport": ("ProcessTransport", "SimTransport"),
})

__all__ = [
    "PARTITION_LEVEL",
    "PartitionPlan",
    "plan_partitions",
    "ChaosTransport",
    "CrossShardDetector",
    "LogicalTxn",
    "ShardedDatabase",
    "ShardedNodeManager",
    "ShardRouter",
    "ShardSupervisor",
    "SHARD_CHAOS_SITES",
    "TRANSPORTS",
    "build_sharded_cluster",
    "run_sharded_cluster1",
    "shard_config",
    "validate_sharding",
    "OutboxTracer",
    "ShardServer",
    "ProcessTransport",
    "SimTransport",
]
