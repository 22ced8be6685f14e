"""The paper's cluster workloads: CLUSTER1 and CLUSTER2 (Section 4.3).

* **CLUSTER1**: a continuous 72-transaction mix (per client: 9 TAqueryBook,
  5 TAchapter, 2 TArenameTopic, 8 TAlendAndReturn; 3 clients), varied over
  isolation level and lock depth -- the workload behind Figures 7-10.
* **CLUSTER2**: a single TAdelBook in single-user mode under isolation
  level repeatable; the metric is the transaction's execution time, which
  exposes the *-2PL group's pre-delete ID scans (Figure 11).

``run_cluster1``/``run_cluster2`` take a private copy of the bib document
per call (:func:`~repro.tamix.bibgen.load_bib`) so runs never contaminate
each other.  Lock depth is ignored by the three protocols without depth
support (the paper sweeps only depth-aware protocols over depth).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.database import Database
from repro.errors import DeadlockAbort
from repro.sched.simulator import Simulator
from repro.tamix.bibgen import BibInfo, load_bib
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.tamix.metrics import RunResult
from repro.tamix.transactions import ta_del_book

#: CLUSTER1's per-client transaction mix.
CLUSTER1_MIX = {
    "TAqueryBook": 9,
    "TAchapter": 5,
    "TArenameTopic": 2,
    "TAlendAndReturn": 8,
}


def make_database(
    protocol: str,
    lock_depth: int,
    isolation: str,
    *,
    scale: float = 0.1,
    seed: int = 2006,
    info: Optional[BibInfo] = None,
    observability=None,
    enable_wal: bool = False,
    escalation_threshold: Optional[int] = None,
) -> tuple:
    """A database plus bib document for one benchmark run."""
    if info is None:
        info = load_bib(scale, seed=seed)
    database = Database(
        protocol=protocol,
        lock_depth=lock_depth,
        isolation=isolation,
        document=info.document,
        observability=observability,
        enable_wal=enable_wal,
        escalation_threshold=escalation_threshold,
    )
    return database, info


def run_cluster1(
    protocol: str,
    *,
    lock_depth: int = 4,
    isolation: str = "repeatable",
    scale: float = 0.1,
    run_duration_ms: float = 60_000.0,
    seed: int = 42,
    info: Optional[BibInfo] = None,
    observability=None,
    enable_wal: bool = False,
    escalation_threshold: Optional[int] = None,
) -> RunResult:
    """One CLUSTER1 run; returns the paper's metrics.

    Pass an :class:`~repro.obs.Observability` (or ``True``) to record a
    deterministic, replayable event trace alongside the metrics; the
    trace's aggregated counters match the returned
    :class:`~repro.tamix.metrics.RunResult` exactly.

    ``escalation_threshold`` enables the lock manager's node-to-subtree
    escalation policy (``None``, the default, keeps it off so runs stay
    byte-identical with earlier versions).
    """
    database, info = make_database(
        protocol, lock_depth, isolation, scale=scale, seed=2006, info=info,
        observability=observability, enable_wal=enable_wal,
        escalation_threshold=escalation_threshold,
    )
    config = TaMixConfig(
        protocol=protocol,
        lock_depth=lock_depth,
        isolation=isolation,
        run_duration_ms=run_duration_ms,
        mix=dict(CLUSTER1_MIX),
        seed=seed,
    )
    return TaMixCoordinator(database, info, config).run()


def run_cluster2(
    protocol: str,
    *,
    lock_depth: int = 4,
    scale: float = 0.1,
    seed: int = 7,
    info: Optional[BibInfo] = None,
) -> float:
    """One CLUSTER2 run: execution time (ms) of a single TAdelBook.

    Single-user mode, isolation level repeatable -- "transaction duration
    is very expressive and characterizes the amount of locking overhead
    necessary" (Section 4.3).
    """
    database, info = make_database(
        protocol, lock_depth, "repeatable", scale=scale, seed=2006, info=info
    )
    config = TaMixConfig(
        protocol=protocol,
        lock_depth=lock_depth,
        isolation="repeatable",
        wait_after_operation_ms=0.0,  # measure locking overhead, not think time
        mix={},
        seed=seed,
    )
    sim = Simulator()
    database.set_clock(lambda: sim.now)
    rng = random.Random(seed)
    timing = {}

    def single_delete():
        txn = database.begin("TAdelBook", "repeatable")
        started = sim.now
        try:
            yield from ta_del_book(database.nodes, txn, rng, info, config)
        except DeadlockAbort:  # impossible in single-user mode
            database.abort(txn)
            raise
        database.commit(txn)
        timing["elapsed"] = sim.now - started

    sim.spawn(single_delete())
    sim.run()
    return timing["elapsed"]
