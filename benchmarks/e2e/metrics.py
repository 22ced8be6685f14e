"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` is written from these tables (``test_bench.py`` checks
that the two agree).  Its schema has no way to say "this end-to-end metric
exists on one workload only" and wants every end-to-end metric on every
workload and never 0, so only the three universal ones go under
``end_to_end`` there.  The six *scoped* end-to-end metrics (latencies on
``served-closed``, ``wal_write_amp`` on ``sharded-wal``, ``fail_share``)
keep the names and bounds the ledger gives them, are measured on untraced
runs all the same, are gated by ``run.py --compare``, and are listed under
``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers

#: How long one untraced run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 8

WORKLOAD_WHY: Dict[str, str] = {
    "embedded-tadom": (
        "taDOM3+ CLUSTER1 cell, in-process, 400000 sim-ms per unit: splid, "
        "storage, dom and locking do the work; net, shard and wal do none"
    ),
    "embedded-node2pl": (
        "Node2PL CLUSTER1 cell, 150000 sim-ms per unit: level locks, root "
        "navigation, ID scans, 20% aborts, so locking, deadlocks and undo "
        "dominate"
    ),
    "contest-sweep": (
        "serial SweepRunner over all 11 protocols at 40000 sim-ms: per-cell "
        "document generation and bulk load are inside the measured phase"
    ),
    "served-closed": (
        "fresh LockServer child, closed loop of 2 blocking connections x 600 "
        "txns per unit, zipf 1.1, no think time: wire, server, client and "
        "socket wait"
    ),
    "sharded-proc": (
        "2 shard processes behind the router over pipes, no WAL, 100000 "
        "sim-ms per unit: router, messages, pipe IPC and shard handling"
    ),
    "sharded-wal": (
        "2 in-process shards each flushing a WAL file at every commit, "
        "100000 sim-ms per unit: the durable commit path, absent elsewhere"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse;
    #: ``None`` for ledger rows that gate nothing.
    bound: Optional[float] = None
    #: Workloads the metric is defined on; ``None`` means all six.
    workloads: Optional[Tuple[str, ...]] = None

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: End-to-end metrics every workload reports (``BENCHMARK.json``
#: ``end_to_end``).  The bounds are the widest the schema allows: across
#: ten seeds on this shared 2-core box the spread of ``txn_per_s`` reached
#: 0.13 in a slow phase of the host (README "Noise"), and a bound may not
#: be tighter than the spread it has to tell a regression from.
UNIVERSAL: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("txn_per_s", "txn/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
]

_SERVED = ("served-closed",)

#: End-to-end metrics that exist on some workloads only.  ``fail_share``
#: is expected to be exactly 0, so its bound is absolute (+0).  The
#: latency bounds sit above the same-seed spreads of the agreement run
#: (p50 up to 0.10, p99 up to 0.13), or every cell would be unresolved.
SCOPED: List[Metric] = [
    Metric("txn_p50_ms", "ms", "lower", 0.15, _SERVED),
    Metric("txn_p99_ms", "ms", "lower", 0.25, _SERVED),
    Metric("req_p50_ms", "ms", "lower", 0.15, _SERVED),
    Metric("req_p99_ms", "ms", "lower", 0.25, _SERVED),
    Metric("fail_share", "fraction", "lower", 0.0),
    Metric("wal_write_amp", "ratio", "lower", 0.02, ("sharded-wal",)),
]

#: From the traced run, per layer.  ``<layer>.self_s`` is left out to stay
#: under the per-layer cap: it is ``<layer>.share * trace.self_total_s``.
TRACED: List[Metric] = (
    [Metric(f"{layer}.share", "fraction", "lower") for layer in layers.LAYERS]
    + [Metric(f"{layer}.calls", "count", "lower") for layer in layers.LAYERS]
    + [
        Metric("trace.self_total_s", "s", "lower"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
    ]
)

#: Per-opcode request latency: the median, and the highest percentile one
#: untraced unit supports with ten samples beyond it (a unit sends ~240
#: QUERY frames, so QUERY stops at p90).
SERVER_PERCENTILES: Dict[str, int] = {
    "begin": 99, "call": 99, "query": 90, "commit": 99,
}

#: Counts read through public statistics at the layer boundaries.
COUNTS: List[Metric] = [
    Metric("locking.requests", "count", "lower"),
    Metric("locking.instant_grant_ratio", "ratio", "higher"),
    Metric("locking.waits", "count", "lower"),
    Metric("locking.conversions", "count", "lower"),
    Metric("locking.deadlocks", "count", "lower"),
    Metric("tamix.abort_share", "fraction", "lower"),
    Metric("storage.logical_reads", "count", "lower"),
    Metric("storage.buffer_hit_ratio", "ratio", "higher"),
    Metric("server.requests", "count", "lower"),
    *[Metric(f"server.{op}_p{q}_ms", "ms", "lower")
      for op, high in SERVER_PERCENTILES.items() for q in (50, high)],
    Metric("server.txn_per_s_first_third", "txn/s", "higher"),
    Metric("server.txn_per_s_last_third", "txn/s", "higher"),
    Metric("router.msgs_per_txn", "ratio", "lower"),
    Metric("router.cross_shard_probes", "count", "lower"),
    Metric("transport.shard_wait_share", "fraction", "lower"),
    Metric("wal.records_per_commit", "ratio", "lower"),
    Metric("wal.bytes_per_commit", "B", "lower"),
]

#: Direct-call rates, timed by ``direct.py`` on public functions only.
DIRECT: List[Metric] = [
    Metric("splid.parse_per_s", "1/s", "higher"),
    Metric("splid.encode_per_s", "1/s", "higher"),
    Metric("splid.decode_per_s", "1/s", "higher"),
    Metric("splid.ancestors_per_s", "1/s", "higher"),
    Metric("core.plan_per_s", "1/s", "higher"),
    Metric("locking.acquire_cold_per_s", "1/s", "higher"),
    Metric("locking.acquire_covered_per_s", "1/s", "higher"),
    Metric("locking.acquire_write_per_s", "1/s", "higher"),
    Metric("locking.release_txn_per_s", "1/s", "higher"),
    Metric("storage.fix_hit_per_s", "1/s", "higher"),
    Metric("storage.fix_miss_per_s", "1/s", "higher"),
    Metric("storage.bptree_get_per_s", "1/s", "higher"),
    Metric("storage.bptree_insert_per_s", "1/s", "higher"),
    Metric("dom.read_subtree_nodes_per_s", "1/s", "higher"),
    Metric("dom.insert_tree_per_s", "1/s", "higher"),
    Metric("txn.commit_per_s", "1/s", "higher"),
    Metric("txn.rollback_per_s", "1/s", "higher"),
    Metric("wal.append_per_s", "1/s", "higher"),
    Metric("wal.to_bytes_mb_per_s", "MB/s", "higher"),
    Metric("wal.persist_ms_at_1k_commits", "ms", "lower"),
    Metric("wal.persist_ms_at_4k_commits", "ms", "lower"),
    Metric("wal.recover_records_per_s", "1/s", "higher"),
    Metric("wire.encode_frame_per_s", "1/s", "higher"),
    Metric("wire.decode_frame_per_s", "1/s", "higher"),
    Metric("wire.large_frame_mb_per_s", "MB/s", "higher"),
    Metric("server.ping_per_s", "1/s", "higher"),
    Metric("transport.ping_per_s_sim", "1/s", "higher"),
    Metric("transport.ping_per_s_process", "1/s", "higher"),
    Metric("shard.handle_exec_per_s", "1/s", "higher"),
    Metric("router.exec_per_s_1", "1/s", "higher"),
    Metric("router.exec_per_s_2", "1/s", "higher"),
    Metric("router.exec_per_s_4", "1/s", "higher"),
    Metric("query.locked_eval_per_s", "1/s", "higher"),
    Metric("query.raw_eval_per_s", "1/s", "higher"),
    Metric("sched.steps_per_s", "1/s", "higher"),
    Metric("tamix.bibgen_nodes_per_s", "1/s", "higher"),
    Metric("verify.events_per_s", "1/s", "higher"),
    Metric("obs.tracing_enabled_ratio", "ratio", "lower"),
]

END_TO_END: List[Metric] = UNIVERSAL + SCOPED
PER_LAYER: List[Metric] = SCOPED + TRACED + COUNTS + DIRECT
BY_NAME: Dict[str, Metric] = {m.name: m for m in UNIVERSAL + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in UNIVERSAL
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
