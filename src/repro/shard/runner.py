"""Sharded CLUSTER1: run the TaMix contest against N shards.

``run_sharded_cluster1`` mirrors :func:`repro.tamix.cluster.run_cluster1`
with a ``shards`` axis: the document is partitioned by SPLID range
(:mod:`repro.shard.partition`), each shard hosts a full replica stack
(:mod:`repro.shard.shard`) behind either the simulated network or real
processes (:mod:`repro.shard.transport`), and the shard router
(:mod:`repro.shard.router`) presents the whole federation to the
unchanged TaMix coordinator.

Validity gate: partitioning is conflict-complete only when every
effective (non-intention) lock sits at or below the partition level, so
sharded runs require ``lock_depth >= 2`` and a protocol that does not
navigate from the document root (the taDOM family; the Node2PL group
reads cross-boundary sibling chains from the root down and is
rejected).  ``shards=1`` simply delegates to the single-node path, so
sweep grids can carry the shard axis uniformly.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

from repro.chaos.retry import RetryPolicy
from repro.core.registry import get_protocol
from repro.errors import BenchmarkError
from repro.shard.partition import PARTITION_LEVEL, plan_partitions
from repro.shard.router import ShardedDatabase
from repro.shard.transport import ProcessTransport, SimTransport
from repro.tamix.bibgen import load_bib
from repro.tamix.cluster import CLUSTER1_MIX, run_cluster1
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.tamix.metrics import RunResult

#: Transport registry (CLI/test entry points pass the name).
TRANSPORTS = {"sim": SimTransport, "process": ProcessTransport}

#: The injection sites a shard-plane schedule may target (the storage
#: and lock sites hook *inside* a database and cannot reach across the
#: process boundary to N shard stacks).
SHARD_CHAOS_SITES = ("net.request", "net.reply", "shard.crash")


def validate_sharding(protocol: str, lock_depth: int, shards: int) -> None:
    """Reject configurations whose lock conflicts could cross shards."""
    if shards < 1:
        raise BenchmarkError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return
    proto = get_protocol(protocol)
    if proto.requires_root_navigation:
        raise BenchmarkError(
            f"protocol {proto.name} navigates from the document root and "
            f"cannot be sharded by SPLID range"
        )
    if lock_depth < PARTITION_LEVEL:
        raise BenchmarkError(
            f"sharded runs need lock_depth >= {PARTITION_LEVEL} so no "
            f"effective lock sits above the partition level "
            f"(got {lock_depth})"
        )


def shard_config(
    protocol: str,
    lock_depth: int,
    isolation: str,
    *,
    scale: float = 0.1,
    doc_seed: int = 2006,
    wait_timeout_ms: Optional[float] = 10_000.0,
    tracing: bool = False,
    access_events: bool = False,
) -> Dict[str, object]:
    """The primitive-only per-shard stack config (pickles, wire-ships)."""
    return {
        "protocol": protocol,
        "lock_depth": int(lock_depth),
        "isolation": isolation,
        "scale": float(scale),
        "doc_seed": int(doc_seed),
        "wait_timeout_ms": wait_timeout_ms,
        "tracing": bool(tracing),
        "access_events": bool(access_events),
    }


def _make_transport(
    name: str,
    configs: List[Dict[str, object]],
    request_timeout_s: Optional[float],
):
    if name == "process":
        return ProcessTransport(configs, request_timeout_s=request_timeout_s)
    return SimTransport(configs)


class ShardedCluster:
    """A built (but not yet driven) sharded stack, with teardown.

    Bundles everything :func:`run_sharded_cluster1` and the chaos
    acceptance runner need: the database facade, the (possibly
    chaos-wrapped) transport, the chaos engine and supervisor when a
    fault schedule is active, and the owned temp directory for shard
    WALs.  ``close()`` is idempotent.
    """

    def __init__(self, database, transport, info, plan, engine, tmp):
        self.database = database
        self.transport = transport
        self.info = info
        self.plan = plan
        self.engine = engine
        self.supervisor = getattr(transport, "supervisor", None)
        self._tmp = tmp
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.transport.close()
        finally:
            if self._tmp is not None:
                self._tmp.cleanup()


def build_sharded_cluster(
    protocol: str,
    *,
    shards: int = 2,
    lock_depth: int = 4,
    isolation: str = "repeatable",
    scale: float = 0.1,
    observability=None,
    transport: str = "sim",
    rtt_ms: float = 0.1,
    wait_timeout_ms: Optional[float] = 10_000.0,
    fault_schedule=None,
    chaos_seed: int = 0,
    chaos_retry: Optional[RetryPolicy] = None,
    wal_dir: Optional[str] = None,
    request_timeout_s: Optional[float] = None,
) -> ShardedCluster:
    """Build the sharded stack, optionally under a fault schedule.

    A schedule targeting ``net.request``/``net.reply``/``shard.crash``
    wraps the transport in :class:`repro.shard.chaos.ChaosTransport`
    (storage and lock sites are rejected here -- they hook inside a
    single database).  Schedules with ``shard.crash`` rules give every
    shard a WAL file (under ``wal_dir``, or an owned temp directory) so
    a killed shard restarts from its committed state.
    """
    validate_sharding(protocol, lock_depth, shards)
    if transport not in TRANSPORTS:
        raise BenchmarkError(
            f"unknown shard transport {transport!r} "
            f"(expected one of {sorted(TRANSPORTS)})"
        )
    engine = None
    if fault_schedule is not None:
        fault_schedule.check_sites(SHARD_CHAOS_SITES, "the shard plane")
    info = load_bib(scale)
    plan = plan_partitions(info.document, shards)

    from repro.obs import Observability

    if observability is None or observability is False:
        obs = Observability.disabled()
    elif observability is True:
        obs = Observability.enabled()
    else:
        obs = observability
    config = shard_config(
        protocol, lock_depth, isolation, scale=scale,
        wait_timeout_ms=wait_timeout_ms,
        tracing=obs.tracer.enabled,
        access_events=obs.access_events,
    )
    configs = [dict(config) for _ in range(shards)]
    tmp = None
    wants_crash = fault_schedule is not None and any(
        rule.site == "shard.crash" for rule in fault_schedule.rules
    )
    if wants_crash:
        if wal_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-shard-wal-")
            wal_dir = tmp.name
        for shard_id, shard_cfg in enumerate(configs):
            shard_cfg["wal_path"] = os.path.join(
                wal_dir, f"shard-{shard_id}.wal"
            )
    try:
        transport_obj = _make_transport(transport, configs, request_timeout_s)
    except BaseException:
        if tmp is not None:
            tmp.cleanup()
        raise
    if fault_schedule is not None:
        from repro.chaos.engine import ChaosEngine
        from repro.shard.chaos import ChaosTransport

        engine = ChaosEngine(
            fault_schedule, chaos_seed, retry=chaos_retry, obs=obs
        )
        transport_obj = ChaosTransport(transport_obj, engine)
    database = ShardedDatabase(
        plan, transport_obj, info,
        protocol=protocol, isolation=isolation, observability=obs,
        rtt_ms=rtt_ms, wait_timeout_ms=wait_timeout_ms,
    )
    return ShardedCluster(database, transport_obj, info, plan, engine, tmp)


def run_sharded_cluster1(
    protocol: str,
    *,
    shards: int = 2,
    lock_depth: int = 4,
    isolation: str = "repeatable",
    scale: float = 0.1,
    run_duration_ms: float = 60_000.0,
    seed: int = 42,
    observability=None,
    transport: str = "sim",
    rtt_ms: float = 0.1,
    retry: Optional[RetryPolicy] = None,
    wait_timeout_ms: Optional[float] = 10_000.0,
) -> RunResult:
    """One sharded CLUSTER1 run; returns the paper's metrics.

    ``transport="sim"`` keeps shards in-process behind the wire codec,
    fully driven by the deterministic scheduler (seeded runs are
    byte-identical); ``transport="process"`` runs each shard as a real
    OS process.  Both speak the identical message protocol, and because
    shards take all timing from message-carried clocks, both produce
    the same results for the same seed.
    """
    validate_sharding(protocol, lock_depth, shards)
    if shards == 1:
        return run_cluster1(
            protocol, lock_depth=lock_depth, isolation=isolation,
            scale=scale, run_duration_ms=run_duration_ms, seed=seed,
            observability=observability,
        )
    cluster = build_sharded_cluster(
        protocol, shards=shards, lock_depth=lock_depth,
        isolation=isolation, scale=scale, observability=observability,
        transport=transport, rtt_ms=rtt_ms,
        wait_timeout_ms=wait_timeout_ms,
    )
    try:
        tamix = TaMixConfig(
            protocol=protocol,
            lock_depth=lock_depth,
            isolation=isolation,
            run_duration_ms=run_duration_ms,
            mix=dict(CLUSTER1_MIX),
            seed=seed,
            retry=retry,
        )
        return TaMixCoordinator(cluster.database, cluster.info, tamix).run()
    finally:
        cluster.close()
