"""The six workloads.  One *unit* is one fixed piece of work: a fresh stack
is set up, a fixed simulated duration (or a fixed transaction count) runs
on it, its outputs are checked, and it is torn down.  A run repeats units
until its time budget is spent, so the work per unit is the same on any
two commits and only the number of units differs.

Sizes are fixed here and echoed in ``BENCHMARK.json``; the document is
always ``generate_bib(scale=0.1, seed=2006)`` (26 278 nodes, 144 leaf
pages in an 8 192-page pool, so the buffer hit ratio is ~1).
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import layers
import served
from repro.core.registry import ALL_PROTOCOLS
from repro.shard import (
    ProcessTransport,
    ShardedDatabase,
    SimTransport,
    plan_partitions,
    shard_config,
)
from repro.tamix.bibgen import generate_bib
from repro.tamix.cluster import CLUSTER1_MIX, run_cluster1
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.tamix.metrics import RunResult
from repro.tamix.sweep import SweepRunner, SweepSpec
from repro.txn.wal import LogKind, WriteAheadLog

SCALE = 0.1
DOC_SEED = 2006
LOCK_DEPTH = 4
ISOLATION = "repeatable"
SHARDS = 2
RTT_MS = 0.1
#: Scratch space for WAL files; inside the checkout, ignored by git.
OUT_DIR = Path(__file__).with_name("out")


class CheckFailed(Exception):
    """An output check failed: the run is an error, not a number."""


@dataclass
class Unit:
    """What one unit of a workload measured and observed."""

    setup_s: float
    wall_s: float
    issued: int
    committed: int
    failed: int = 0
    #: sha256 of the canonical result row; ``None`` where wall-clock
    #: interleaving makes the outcome vary (``served-closed``).
    fingerprint: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    #: Raw latency samples, pooled over a run's units before percentiles.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Peak RSS summed over the unit's child processes.
    child_rss_kb: int = 0
    #: Peak RSS of this process when the unit ended (set by the runner).
    own_rss_kb: int = 0
    fold: Optional[Dict[str, dict]] = None
    detail: Dict[str, object] = field(default_factory=dict)


@contextmanager
def profiled(traced: bool) -> Iterator[Optional[cProfile.Profile]]:
    profile = cProfile.Profile() if traced else None
    if profile is not None:
        profile.enable()
    try:
        yield profile
    finally:
        if profile is not None:
            profile.disable()


def _fold(profile: Optional[cProfile.Profile]) -> Optional[Dict[str, dict]]:
    return layers.fold([profile]) if profile is not None else None


def fingerprint(row: object) -> str:
    canonical = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_row(result: RunResult) -> Dict[str, object]:
    """The canonical row of one TaMix run: outcomes by type, lock counts."""
    return {
        "by_type": {
            name: [m.committed, m.aborted, m.deadlock_aborts, m.timeout_aborts]
            for name, m in sorted(result.by_type.items())
        },
        "deadlocks": result.deadlocks,
        "deadlocks_by_kind": dict(sorted(result.deadlocks_by_kind.items())),
        "lock_stats": dict(sorted(result.lock_stats.items())),
        "lock_waits": result.wait_stats.get("count", 0),
    }


def lock_counts(lock_stats: Dict[str, float], committed: int,
                aborted: int) -> Dict[str, float]:
    requests = lock_stats.get("requests", 0)
    return {
        "locking.requests": requests,
        "locking.instant_grant_ratio": (
            lock_stats.get("instant_grants", 0) / requests if requests else 0.0
        ),
        "locking.waits": lock_stats.get("waits", 0),
        "locking.conversions": lock_stats.get("conversions", 0),
        "locking.deadlocks": lock_stats.get("deadlocks", 0),
        "tamix.abort_share": (
            aborted / (committed + aborted) if committed + aborted else 0.0
        ),
    }


def storage_counts(logical_reads: float, physical_reads: float
                   ) -> Dict[str, float]:
    return {
        "storage.logical_reads": logical_reads,
        "storage.buffer_hit_ratio": (
            1.0 - physical_reads / logical_reads if logical_reads else 1.0
        ),
    }


class Embedded:
    """One CLUSTER1 cell on the in-process ``Database``."""

    imports = "repro.tamix.cluster"

    def __init__(self, protocol: str, run_duration_ms: float):
        self.protocol = protocol
        self.run_duration_ms = run_duration_ms

    def run_unit(self, seed: int, *, traced: bool = False) -> Unit:
        t0 = time.perf_counter()
        info = generate_bib(scale=SCALE, seed=DOC_SEED)
        io_before = info.document.buffer.stats.snapshot()
        t1 = time.perf_counter()
        with profiled(traced) as profile:
            result = run_cluster1(
                self.protocol, lock_depth=LOCK_DEPTH, isolation=ISOLATION,
                run_duration_ms=self.run_duration_ms, seed=seed, info=info,
            )
        t2 = time.perf_counter()
        io = info.document.buffer.stats.delta_since(io_before)
        row = result_row(result)
        row["io"] = [io.logical_reads, io.physical_reads, io.physical_writes,
                     io.evictions]
        counts = lock_counts(result.lock_stats, result.committed,
                             result.aborted)
        counts.update(storage_counts(io.logical_reads, io.physical_reads))
        return Unit(
            setup_s=t1 - t0, wall_s=t2 - t1, issued=result.committed,
            committed=result.committed, fingerprint=fingerprint(row),
            counts=counts, fold=_fold(profile),
            detail={"aborted": result.aborted},
        )


class ContestSweep:
    """The serial 11-protocol sweep a contest user runs.  Per-cell set-up
    (document generation, bulk load) is inside the measured phase."""

    imports = "repro.tamix.sweep"

    def __init__(self, run_duration_ms: float):
        self.run_duration_ms = run_duration_ms

    def run_unit(self, seed: int, *, traced: bool = False) -> Unit:
        t0 = time.perf_counter()
        spec = SweepSpec(
            protocols=ALL_PROTOCOLS, lock_depths=(LOCK_DEPTH,),
            isolations=(ISOLATION,), scale=SCALE,
            run_duration_ms=self.run_duration_ms, base_seed=seed,
        )
        runner = SweepRunner(spec)
        outcomes: List[RunResult] = []
        t1 = time.perf_counter()
        with profiled(traced) as profile:
            runner.run(progress=lambda _cell, outcome: outcomes.append(outcome))
        t2 = time.perf_counter()
        if len(outcomes) != len(ALL_PROTOCOLS):
            raise CheckFailed(
                f"sweep ran {len(outcomes)} cells, expected {len(ALL_PROTOCOLS)}"
            )
        committed = sum(outcome.committed for outcome in outcomes)
        aborted = sum(outcome.aborted for outcome in outcomes)
        lock_stats: Dict[str, float] = {}
        for outcome in outcomes:
            for key, value in outcome.lock_stats.items():
                lock_stats[key] = lock_stats.get(key, 0) + value
        return Unit(
            setup_s=t1 - t0, wall_s=t2 - t1, issued=committed,
            committed=committed,
            fingerprint=fingerprint([result_row(o) for o in outcomes]),
            counts=lock_counts(lock_stats, committed, aborted),
            fold=_fold(profile),
            detail={"aborted": aborted, "cells": len(outcomes)},
        )


class TimedTransport:
    """A shard transport that adds up the coordinator's time waiting on
    shards (two clock reads per message, ~5 000 messages per unit)."""

    def __init__(self, inner):
        self.inner = inner
        self.wait_s = 0.0

    def request(self, shard_id: int, frame: bytes) -> bytes:
        sent = time.perf_counter()
        try:
            return self.inner.request(shard_id, frame)
        finally:
            self.wait_s += time.perf_counter() - sent


def live_children() -> List[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = str(os.getpid())
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if fields[1] == me:
            children.append(int(stat.parent.name))
    return children


def _proc_field(path: str, key: str) -> int:
    """The integer after ``key:`` in a ``/proc`` file; 0 if the file or
    the key is gone (a child that just exited)."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return 0
    return next(
        (int(line.split()[1]) for line in lines if line.startswith(key + ":")),
        0,
    )


def _children_rss_kb() -> int:
    """Sum of the live children's peak RSS (the shard processes)."""
    return sum(
        _proc_field(f"/proc/{pid}/status", "VmHWM") for pid in live_children()
    )


def _wchar() -> int:
    """Bytes this process has passed to write-like system calls."""
    return _proc_field("/proc/self/io", "wchar")


class Sharded:
    """CLUSTER1 through the shard router against two taDOM3+ shards, built
    from the public parts ``build_sharded_cluster`` itself uses, so the
    same code serves real processes, the in-process twin and WAL files."""

    imports = "repro.shard, repro.tamix.coordinator"

    def __init__(self, *, transport: str, wal: bool, run_duration_ms: float):
        self.transport = transport
        self.wal = wal
        self.run_duration_ms = run_duration_ms

    def run_unit(self, seed: int, *, traced: bool = False) -> Unit:
        # cProfile cannot follow work into shard processes; the repo
        # guarantees byte-identical results across transports, so the
        # traced unit runs the in-process twin and the caller asserts
        # the fingerprints agree.
        transport_name = "sim" if traced else self.transport
        t0 = time.perf_counter()
        with ExitStack() as stack:
            info = generate_bib(scale=SCALE, seed=DOC_SEED)
            configs = [
                shard_config("taDOM3+", LOCK_DEPTH, ISOLATION, scale=SCALE,
                             doc_seed=DOC_SEED)
                for _ in range(SHARDS)
            ]
            wal_paths: List[Path] = []
            if self.wal:
                OUT_DIR.mkdir(exist_ok=True)
                tmp = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="wal-", dir=OUT_DIR)
                )
                for shard_id, shard in enumerate(configs):
                    wal_paths.append(Path(tmp) / f"shard-{shard_id}.wal")
                    shard["wal_path"] = str(wal_paths[-1])
            if transport_name == "process":
                inner = ProcessTransport(configs)
            else:
                inner = SimTransport(configs)
            stack.callback(inner.close)
            transport = TimedTransport(inner)
            database = ShardedDatabase(
                plan_partitions(info.document, SHARDS), transport, info,
                protocol="taDOM3+", isolation=ISOLATION, rtt_ms=RTT_MS,
            )
            # Handshake: every shard has built its stack and answers.
            database.router.shard_stats()
            coordinator = TaMixCoordinator(database, info, TaMixConfig(
                protocol="taDOM3+", lock_depth=LOCK_DEPTH, isolation=ISOLATION,
                run_duration_ms=self.run_duration_ms, mix=dict(CLUSTER1_MIX),
                seed=seed,
            ))
            transport.wait_s = 0.0
            wchar_before = _wchar()
            t1 = time.perf_counter()
            with profiled(traced) as profile:
                result = coordinator.run()
            t2 = time.perf_counter()
            wchar = _wchar() - wchar_before
            router = database.router
            row = result_row(result)
            row["messages"] = router.messages_sent
            row["leg_commits"] = database.leg_commits
            counts = lock_counts(result.lock_stats, result.committed,
                                 result.aborted)
            counts["router.msgs_per_txn"] = (
                router.messages_sent / result.committed
            )
            counts["router.cross_shard_probes"] = router.detector.probes_sent
            counts["transport.shard_wait_share"] = transport.wait_s / (t2 - t1)
            if transport_name == "sim":
                stats = [server.db.document.buffer.stats
                         for server in inner.servers]
                counts.update(storage_counts(
                    sum(s.logical_reads for s in stats),
                    sum(s.physical_reads for s in stats),
                ))
            detail: Dict[str, object] = {
                "aborted": result.aborted, "transport": transport_name,
            }
            if self.wal:
                # Every commit flushed before it returned, so the files
                # are complete while the shards are still up.
                wal = self._check_wal(wal_paths, database.leg_commits)
                if wchar < wal["bytes"]:
                    raise CheckFailed(
                        f"/proc/self/io counted {wchar} bytes written for "
                        f"{wal['bytes']} bytes of WAL files"
                    )
                row["wal"] = [wal["records"], wal["bytes"]]
                counts["wal.records_per_commit"] = (
                    wal["records"] / wal["commits"]
                )
                counts["wal.bytes_per_commit"] = wal["bytes"] / wal["commits"]
                counts["wal_write_amp"] = wchar / wal["bytes"]
                detail.update(wal_bytes=wal["bytes"], wchar=wchar)
            return Unit(
                setup_s=t1 - t0, wall_s=t2 - t1, issued=result.committed,
                committed=result.committed, fingerprint=fingerprint(row),
                counts=counts, child_rss_kb=_children_rss_kb(),
                fold=_fold(profile), detail=detail,
            )

    @staticmethod
    def _check_wal(paths: List[Path], leg_commits: int) -> Dict[str, int]:
        """Re-read every WAL file; COMMIT records must equal the legs the
        coordinator saw commit."""
        records = commits = size = 0
        for path in paths:
            data = path.read_bytes()
            log = WriteAheadLog.from_bytes(data)
            size += len(data)
            records += len(log)
            commits += sum(
                1 for record in log.records() if record.kind is LogKind.COMMIT
            )
        if commits != leg_commits or commits == 0:
            raise CheckFailed(
                f"WAL files hold {commits} COMMIT records, the coordinator "
                f"committed {leg_commits} legs"
            )
        return {"records": records, "commits": commits, "bytes": size}


class Served:
    """A fresh ``LockServer`` child and a closed loop of blocking clients."""

    imports = "repro.net.client, repro.net.loadgen"

    def __init__(self, transactions_per_client: int,
                 clients: Optional[int] = None):
        self.transactions_per_client = transactions_per_client
        #: One process generates the load, with at most ``nproc`` clients.
        self.clients = min(2, os.cpu_count() or 1) if clients is None else clients

    def run_unit(self, seed: int, *, traced: bool = False) -> Unit:
        cpus = os.cpu_count() or 1
        if self.clients > cpus:
            raise CheckFailed(
                f"{self.clients} client connections exceed nproc={cpus}; "
                f"the load generator would measure its own queueing"
            )
        t0 = time.perf_counter()
        server = served.ServerProcess(traced=traced)
        try:
            before = served.scrape(server.port)
            results = served.drive(
                server.port, seed, self.clients, self.transactions_per_client,
                traced=traced,
            )
            after = served.scrape(server.port)
        finally:
            final = server.stop()
        started = min(result.started for result in results)
        wall_s = max(result.finished for result in results) - started
        issued = sum(result.issued for result in results)
        committed = sum(result.committed for result in results)
        failed = sum(result.failed for result in results)
        aborted = sum(result.aborted for result in results)
        stats = after["stats"]
        self._check(results, stats, issued, committed, failed)

        def delta(gauge: str) -> float:
            return after["gauges"].get(gauge, 0) - before["gauges"].get(gauge, 0)

        counts = lock_counts(
            {
                "requests": delta("lock.requests"),
                "instant_grants": delta("lock.instant_grants"),
                "waits": delta("lock.waits"),
                "conversions": delta("lock.conversions"),
                "deadlocks": delta("deadlock.total"),
            },
            committed, aborted,
        )
        counts.update(storage_counts(
            delta("buffer.logical_reads"), delta("buffer.physical_reads")
        ))
        counts["server.requests"] = stats["requests"]
        third = wall_s / 3.0
        commit_at = [at - started for result in results
                     for at in result.commit_at]
        counts["server.txn_per_s_first_third"] = (
            sum(1 for at in commit_at if at <= third) / third
        )
        counts["server.txn_per_s_last_third"] = (
            sum(1 for at in commit_at if at > 2.0 * third) / third
        )
        samples: Dict[str, List[float]] = {
            "txn_ms": [ms for result in results for ms in result.txn_ms],
        }
        for kind in ("BEGIN", "CALL", "QUERY", "COMMIT"):
            samples[f"req_ms.{kind}"] = [
                ms for result in results for ms in result.req_ms[kind]
            ]
        fold = None
        if traced:
            fold = layers.merge_folds(
                [final["fold"], served.client_folds(results)]
            )
        return Unit(
            setup_s=started - t0, wall_s=wall_s, issued=issued,
            committed=committed, failed=failed, counts=counts,
            samples=samples, child_rss_kb=int(final["rss_kb"]), fold=fold,
            detail={
                "aborted": aborted,
                "clients": self.clients,
                "requests_by_opcode": stats["requests_by_opcode"],
                "client_wait_share": (
                    sum(result.wait_s for result in results)
                    / (self.clients * wall_s)
                ),
            },
        )


    @staticmethod
    def _check(results, stats: dict, issued: int, committed: int,
               failed: int) -> None:
        errors = [error for result in results for error in result.errors]
        if errors:
            raise CheckFailed("served-closed client error: " + "; ".join(errors))
        if committed + failed != issued:
            raise CheckFailed(
                f"clients issued {issued} but committed {committed} "
                f"+ failed {failed}"
            )
        if stats["committed"] != committed:
            raise CheckFailed(
                f"server STATS committed={stats['committed']}, clients "
                f"saw {committed}"
            )
        if stats["protocol_errors"] != 0 or any(
                result.protocol_errors for result in results):
            raise CheckFailed("protocol errors on the wire")


WORKLOADS = {
    "embedded-tadom": Embedded("taDOM3+", run_duration_ms=400_000),
    "embedded-node2pl": Embedded("Node2PL", run_duration_ms=150_000),
    "contest-sweep": ContestSweep(run_duration_ms=40_000),
    "served-closed": Served(transactions_per_client=600),
    "sharded-proc": Sharded(transport="process", wal=False,
                            run_duration_ms=100_000),
    "sharded-wal": Sharded(transport="sim", wal=True,
                           run_duration_ms=100_000),
}
