"""Seeded chaos runs: a TaMix workload under fault injection, verified.

:func:`run_chaos` builds one of two stacks.  One node is a WAL-backed
database with a base checkpoint and a
:class:`~repro.chaos.engine.ChaosEngine` hooked into its buffer pool and
lock manager; more are a sharded cluster whose transport the engine
wraps (:func:`repro.shard.runner.build_sharded_cluster`).  Either runs
a CLUSTER1-style workload with retries and admission on, then turns the
faults off, rolls back every in-flight transaction and checks:

* **serializability** -- the committed schedule in the run's trace
  passes :func:`repro.verify.verify_trace`;
* **recovery** -- replaying the WAL over the base checkpoint yields a
  document bit-identical (:func:`repro.verify.canonical_image`) to the
  live one.  Each shard checks its own WAL in its ``SNAPSHOT`` reply,
  across the process boundary a crash crossed;
* **durability accounting** -- the WALs hold one COMMIT record per
  committed transaction (per committed leg on shards);
* **no leaked processes** after teardown.

:attr:`ChaosReport.fingerprint` digests the fault log, the final state
and the counters, so two runs of one seed -- also on the *sim* and
*process* shard transports -- compare exactly (``repro chaos
--check-determinism``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Optional, Union

from ..errors import BenchmarkError
from ..net import wire
from ..obs import Observability
from ..shard import messages
from ..shard.runner import (
    SHARD_CHAOS_SITES,
    build_sharded_cluster,
    validate_sharding,
)
from ..tamix.cluster import CLUSTER1_MIX, make_database
from ..tamix.coordinator import TaMixConfig, TaMixCoordinator
from ..tamix.metrics import RunResult
from ..tamix.sweep import validate_knobs
from ..txn.wal import LogKind, recover, take_checkpoint
from ..verify import canonical_image, verify_trace
from .engine import ChaosEngine
from .retry import AdmissionPolicy, RetryPolicy
from .schedule import NODE_SITES, FaultSchedule

#: Report keys that only a sharded run has; a one-node report omits them
#: (``chaos_seed`` only when it is the workload seed).
_SHARD_KEYS = (
    "chaos_seed", "shards", "transport", "shard_restarts", "down_sheds",
    "stale_sheds", "partial_commits", "shard_snapshots", "leg_commits",
    "leaked_processes",
)


@dataclass
class ChaosReport:
    """The outcome and verification verdicts of one chaos run."""

    seed: int
    chaos_seed: int
    schedule_name: str
    shards: int
    transport: str
    result: RunResult
    #: Per-site observed injection rate (fired faults / operations).
    injection_rates: dict = field(default_factory=dict)
    #: Per-(site, kind) fault counters.
    faults: dict = field(default_factory=dict)
    restarts: int = 0
    sheds: int = 0
    #: Supervisor restarts, in kill order: ``[shard_id, epoch]`` pairs.
    shard_restarts: List[List[int]] = field(default_factory=list)
    #: Traffic shed locally to DOWN shards / stale-epoch transactions.
    down_sheds: int = 0
    stale_sheds: int = 0
    partial_commits: int = 0
    oracle_ok: bool = False
    oracle_violations: List[str] = field(default_factory=list)
    accesses_checked: int = 0
    recovery_ok: bool = False
    #: Per-shard SNAPSHOT payloads (digests + WAL accounting).
    shard_snapshots: List[Dict[str, object]] = field(default_factory=list)
    commits_in_wal: int = 0
    leg_commits: int = 0
    committed: int = 0
    leaked_processes: int = 0
    #: SHA-256 digest over fault log + final state + counters.
    fingerprint: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        data = {
            "seed": self.seed,
            "chaos_seed": self.chaos_seed,
            "schedule": self.schedule_name,
            "shards": self.shards,
            "transport": self.transport,
            "ok": self.ok,
            "committed": self.committed,
            "aborted": self.result.aborted,
            "aborted_by_kind": self.result.aborted_by_kind,
            "restarts": self.restarts,
            "sheds": self.sheds,
            "shard_restarts": [list(pair) for pair in self.shard_restarts],
            "down_sheds": self.down_sheds,
            "stale_sheds": self.stale_sheds,
            "partial_commits": self.partial_commits,
            "faults": dict(sorted(self.faults.items())),
            "injection_rates": {
                site: round(rate, 6)
                for site, rate in sorted(self.injection_rates.items())
            },
            "oracle_ok": self.oracle_ok,
            "accesses_checked": self.accesses_checked,
            "recovery_ok": self.recovery_ok,
            "shard_snapshots": [dict(s) for s in self.shard_snapshots],
            "commits_in_wal": self.commits_in_wal,
            "leg_commits": self.leg_commits,
            "leaked_processes": self.leaked_processes,
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
        }
        if self.shards == 1:
            for key in _SHARD_KEYS:
                if key != "chaos_seed" or self.chaos_seed == self.seed:
                    del data[key]
        return data

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        faults = sum(self.faults.values())
        stack = shard_restarts = ""
        if self.shards > 1:
            stack = f" shards={self.shards} transport={self.transport}"
            shard_restarts = f"shard_restarts={len(self.shard_restarts)} "
        return (
            f"chaos[{self.schedule_name} seed={self.seed}{stack}] {status}: "
            f"committed={self.committed} aborted={self.result.aborted} "
            f"restarts={self.restarts} sheds={self.sheds} {shard_restarts}"
            f"faults={faults} oracle={'ok' if self.oracle_ok else 'FAIL'} "
            f"recovery={'ok' if self.recovery_ok else 'FAIL'} "
            f"fingerprint={self.fingerprint[:16]}"
        )


def run_chaos(
    schedule: FaultSchedule,
    seed: int = 7,
    *,
    protocol: str = "taDOM3+",
    lock_depth: int = 4,
    isolation: str = "repeatable",
    shards: int = 1,
    transport: str = "sim",
    scale: float = 0.05,
    run_duration_ms: float = 8_000.0,
    trace_path: Union[str, Path, None] = None,
    chaos_seed: Optional[int] = None,
) -> ChaosReport:
    """One seeded, verified chaos run.  See the module docstring.

    ``chaos_seed`` (default: ``seed``) seeds the fault streams alone, so
    fault placement can vary under a fixed workload.  Out-of-range knobs
    raise :class:`~repro.errors.BenchmarkError`, and a schedule with a
    site the stack cannot fire raises :class:`~repro.errors.ChaosError`,
    both before anything is built.
    """
    chaos_seed = seed if chaos_seed is None else chaos_seed
    validate_knobs(
        (protocol,), (lock_depth,), (isolation,), scale=scale,
        run_duration_ms=run_duration_ms, shards=(shards,),
        transport=transport,
    )
    validate_sharding(protocol, lock_depth, shards)
    if shards == 1 and transport != "sim":
        raise BenchmarkError(
            f"shard transport {transport!r} needs shards > 1 "
            f"(one node runs in-process)"
        )
    sites = NODE_SITES if shards == 1 else SHARD_CHAOS_SITES
    schedule.check_sites(sites, "one node" if shards == 1 else "the shard plane")
    retry = RetryPolicy()
    with TemporaryDirectory(prefix="repro-chaos-") as tmp:
        trace = Path(trace_path) if trace_path is not None else (
            Path(tmp) / "chaos_trace.jsonl"
        )
        obs = Observability.enabled(capacity=1, sink=trace, access_events=True)
        cluster = None
        if shards == 1:
            database, info = make_database(
                protocol, lock_depth, isolation, scale=scale,
                observability=obs, enable_wal=True,
            )
            # Base checkpoint before any faults: recovery replays the
            # WAL of the *whole* chaotic run over this clean image.
            base = take_checkpoint(database.document, database.wal)
            engine = ChaosEngine(schedule, chaos_seed, retry=retry, obs=obs)
            engine.install(database)
        else:
            cluster = build_sharded_cluster(
                protocol, shards=shards, lock_depth=lock_depth,
                isolation=isolation, scale=scale, observability=obs,
                transport=transport, fault_schedule=schedule,
                chaos_seed=chaos_seed, chaos_retry=retry,
                request_timeout_s=30.0,
            )
            database, info, engine = (
                cluster.database, cluster.info, cluster.engine
            )
        try:
            config = TaMixConfig(
                protocol=protocol, lock_depth=lock_depth, isolation=isolation,
                run_duration_ms=run_duration_ms, mix=dict(CLUSTER1_MIX),
                seed=seed, retry=retry, admission=AdmissionPolicy(),
            )
            result = TaMixCoordinator(database, info, config).run()

            # Verification is fault-free: turn the faults off, then roll
            # back every in-flight transaction (the recovery losers) so
            # the live state holds exactly the committed effects.
            if cluster is None:
                engine.uninstall()
                for txn in list(database.transactions.active_transactions()):
                    database.abort(txn, reason="rollback")
            else:
                cluster.transport.enabled = False
                database.abort_in_flight(reason="rollback")
            obs.close()

            report = ChaosReport(
                seed=seed, chaos_seed=chaos_seed,
                schedule_name=schedule.name or "<inline>", shards=shards,
                transport=transport, result=result,
                injection_rates=engine.injection_rates(),
                faults=dict(engine.faults),
                restarts=result.restarts, sheds=result.sheds,
            )
            oracle = verify_trace(trace)
            report.oracle_ok = oracle.ok
            report.accesses_checked = oracle.accesses_checked
            if not oracle.ok:
                report.oracle_violations = [str(v) for v in oracle.violations]
                report.violations.append(
                    f"history oracle found {len(oracle.violations)} "
                    f"violation(s)"
                )
            if cluster is None:
                commits, state = _check_node(report, database, base)
            else:
                commits, state = _check_shards(report, cluster)
            if report.commits_in_wal != commits:
                report.violations.append(
                    f"WALs hold {report.commits_in_wal} COMMIT records "
                    f"but {commits} commits were made"
                )
        finally:
            if cluster is not None:
                cluster.close()

    report.leaked_processes = len(multiprocessing.active_children())
    if report.leaked_processes:
        report.violations.append(
            f"{report.leaked_processes} shard process(es) leaked "
            f"past teardown"
        )

    counters = (report.committed, result.aborted, result.restarts,
                result.sheds)
    if shards > 1:
        counters += (report.down_sheds, report.stale_sheds)
    digest = hashlib.sha256(engine.fingerprint().encode())
    for part in state + [str(counter).encode() for counter in counters]:
        digest.update(part)
    report.fingerprint = digest.hexdigest()
    return report


def _check_node(report: ChaosReport, database, base) -> tuple:
    """One database's recovery and WAL accounting: returns the commits
    its WAL must hold and the fingerprinted state."""
    report.committed = database.transactions.committed
    live_image = canonical_image(database.document)
    recovered_image = canonical_image(recover(base, database.wal))
    report.recovery_ok = recovered_image == live_image
    if not report.recovery_ok:
        report.violations.append(
            "recovered document differs from live committed state"
        )
    report.commits_in_wal = sum(
        record.kind is LogKind.COMMIT for record in database.wal.records()
    )
    return report.committed, [live_image]


def _check_shards(report: ChaosReport, cluster) -> tuple:
    """Per-shard recovery and WAL accounting from SNAPSHOT replies (each
    digests the live document and a fault-free replay of the shard's WAL,
    shard-side): returns the leg commits the WALs must hold and the
    fingerprinted state."""
    database = cluster.database
    router = database.router
    restart_log = cluster.supervisor.restart_log
    report.committed = database.committed
    report.leg_commits = database.leg_commits
    report.shard_restarts = [list(pair) for pair in restart_log]
    report.down_sheds = router.down_sheds
    report.stale_sheds = router.stale_sheds
    report.partial_commits = router.partial_commits
    report.recovery_ok = True
    state = [repr(restart_log).encode()]
    for shard_id in range(report.shards):
        opcode, fields = wire.decode_frame(cluster.transport.request(
            shard_id, messages.encode_snapshot(router.clock())
        ))
        snapshot = dict(fields[0]) if opcode == messages.OP_SHARD_INFO else {}
        report.shard_snapshots.append(snapshot)
        if snapshot.get("live_image") != snapshot.get("replayed_image"):
            report.recovery_ok = False
            report.violations.append(
                f"shard {shard_id}: recovered document differs from live "
                f"committed state"
            )
        if snapshot.get("open_legs"):
            report.violations.append(
                f"shard {shard_id}: legs still open after the run-horizon "
                f"sweep: {snapshot['open_legs']}"
            )
        report.commits_in_wal += int(snapshot.get("commits_in_wal", 0))
        state.append(str(snapshot.get("live_image")).encode())
        state.append(str(snapshot.get("commits_in_wal")).encode())
    return report.leg_commits + router.partial_commit_legs, state
