"""The automated measurement environment (Section 4.1).

"Therefore, we had to design tailored benchmarks together with an
automated measurement environment."  This module is that environment: it
expands an experiment matrix (protocols x lock depths x isolation levels
x repetitions), runs every cell, aggregates repetitions, and persists the
results as CSV/JSON so figures can be regenerated without re-running.

Cells are independent (every cell takes a private copy of the document
from :func:`~repro.tamix.bibgen.load_bib` and seeds its own RNG streams),
so :class:`SweepRunner` can fan them out across a
``ProcessPoolExecutor`` (``workers=N``).  Per-cell seeds are derived the
same way in both paths and results are aggregated in matrix order, so a
parallel sweep is byte-identical to a serial one.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.registry import get_protocol
from repro.errors import BenchmarkError, LockError
from repro.locking import IsolationLevel
from repro.obs import WAIT_TIME_BUCKETS_MS
from repro.tamix.bibgen import load_bib
from repro.tamix.cluster import run_cluster1
from repro.tamix.metrics import RunResult, latency_slo

#: Canonical wait-histogram column order: the fixed bucket boundaries of
#: :data:`repro.obs.metrics.WAIT_TIME_BUCKETS_MS` plus the overflow
#: bucket.  Serialization goes through this list so rows from different
#: protocols (or cells that never waited) always agree on column order.
HISTOGRAM_BUCKET_ORDER: Tuple[str, ...] = tuple(
    f"le_{boundary:g}" for boundary in WAIT_TIME_BUCKETS_MS
) + ("le_inf",)


def canonical_histogram(buckets: Dict[str, int]) -> Dict[str, int]:
    """Bucket counts in canonical order, zero-filled for absent buckets."""
    return {key: int(buckets.get(key, 0)) for key in HISTOGRAM_BUCKET_ORDER}


@dataclass(frozen=True)
class SweepCell:
    """One point of the experiment matrix."""

    protocol: str
    lock_depth: int
    isolation: str
    run: int = 0
    #: Shard count (1 = the classic single-node run; >1 routes the cell
    #: through :func:`repro.shard.runner.run_sharded_cluster1`).
    shards: int = 1


@dataclass
class CellResult:
    """Aggregated repetitions of one cell."""

    cell: SweepCell
    committed: float = 0.0
    aborted: float = 0.0
    deadlocks: float = 0.0
    runs: int = 0
    by_type: Dict[str, float] = field(default_factory=dict)
    #: Deadlock aborts per transaction type (Fig. 10a's reader/writer split).
    deadlock_aborts_by_type: Dict[str, float] = field(default_factory=dict)
    #: Abort/deadlock-kind breakdown, summed over repetitions.
    aborted_by_kind: Dict[str, float] = field(default_factory=dict)
    deadlocks_by_kind: Dict[str, float] = field(default_factory=dict)
    #: Lock-wait accounting: summed counts, max of maxima, and the
    #: fixed-bucket wait-time histogram summed bucket-wise.
    lock_waits: float = 0.0
    wait_mean_ms: float = 0.0
    wait_max_ms: float = 0.0
    #: Total blocking time summed over repetitions (the histogram's
    #: ``total``) -- what the trace analyzer reconstructs per cell.
    wait_total_ms: float = 0.0
    wait_histogram: Dict[str, int] = field(default_factory=dict)
    #: Commit latencies pooled across repetitions and transaction types
    #: (simulated ms) -- the sample behind the row's SLO percentiles.
    latencies: List[float] = field(default_factory=list)

    def as_row(self, *, include_histogram: bool = False) -> Dict[str, object]:
        row: Dict[str, object] = {
            "protocol": self.cell.protocol,
            "lock_depth": self.cell.lock_depth,
            "isolation": self.cell.isolation,
            "shards": self.cell.shards,
            "runs": self.runs,
            "committed": round(self.committed, 2),
            "aborted": round(self.aborted, 2),
            "deadlocks": round(self.deadlocks, 2),
            "aborted_deadlock": round(self.aborted_by_kind.get("deadlock", 0.0), 2),
            "aborted_timeout": round(self.aborted_by_kind.get("timeout", 0.0), 2),
            "aborted_storage": round(self.aborted_by_kind.get("storage", 0.0), 2),
            "aborted_shard_unavailable": round(
                self.aborted_by_kind.get("shard-unavailable", 0.0), 2
            ),
            "deadlocks_conversion": round(
                self.deadlocks_by_kind.get("conversion", 0.0), 2
            ),
            "deadlocks_distinct_subtree": round(
                self.deadlocks_by_kind.get("distinct-subtree", 0.0), 2
            ),
            "lock_waits": round(self.lock_waits, 2),
            "wait_mean_ms": round(self.wait_mean_ms, 3),
            "wait_max_ms": round(self.wait_max_ms, 3),
            "wait_total_ms": round(self.wait_total_ms, 6),
        }
        slo = latency_slo(self.latencies)
        for key in ("p50_ms", "p99_ms", "p999_ms"):
            row[key] = round(slo.get(key, 0.0), 3)
        for txn_type, value in sorted(self.by_type.items()):
            row[txn_type] = round(value, 2)
        for txn_type, value in sorted(self.deadlock_aborts_by_type.items()):
            row[f"{txn_type}_deadlock_aborts"] = round(value, 2)
        if include_histogram:
            row["wait_histogram"] = canonical_histogram(self.wait_histogram)
        return row


@dataclass
class SweepSpec:
    """An experiment matrix, in the spirit of the paper's test plans.

    The paper's CLUSTER1 plan: "isolation levels: none, uncommitted,
    committed, repeatable; lock depths where applicable: 0 to 7; number
    of runs per isolation level and lock depth: 4; run duration: 5 mins".
    """

    protocols: Sequence[str]
    lock_depths: Sequence[int] = (0, 1, 2, 3, 4, 5, 6, 7)
    isolations: Sequence[str] = ("repeatable",)
    runs_per_cell: int = 1
    scale: float = 0.1
    run_duration_ms: float = 60_000.0
    base_seed: int = 42
    #: Shard counts to sweep over (1 = single-node).  Combinations a
    #: protocol cannot shard (root-navigating protocols, lock depths
    #: above the partition level) are skipped, mirroring how depth-
    #: unaware protocols collapse the depth axis.
    shards: Sequence[int] = (1,)
    #: Transport for sharded cells (``sim`` or ``process``); both are
    #: deterministic and produce identical results for the same seed.
    shard_transport: str = "sim"
    #: Fault schedule for sharded cells: a built-in name or a JSON file
    #: path (kept as a string so worker processes can pickle the spec).
    #: Only ``net.request``/``net.reply``/``shard.crash`` sites apply;
    #: ``None`` runs fault-free.  Single-node cells ignore it.
    fault_schedule: Optional[str] = None
    #: Chaos engine seed for faulted sharded cells (independent of the
    #: workload seed so fault placement can be varied separately).
    chaos_seed: int = 0

    def cells(self) -> Iterable[SweepCell]:
        if self.runs_per_cell < 1:
            raise BenchmarkError("runs_per_cell must be >= 1")
        protos = {name: get_protocol(name) for name in self.protocols}
        # Refuse the whole matrix up front: a bad level would otherwise
        # surface only inside its first cell, after earlier cells ran.
        for protocol, proto in protos.items():
            for isolation in self.isolations:
                try:
                    level = IsolationLevel.parse(isolation)
                except LockError:
                    level = None
                if level is None or (level is IsolationLevel.SERIALIZABLE
                                     and not proto.supports_serializable):
                    raise BenchmarkError(
                        f"{protocol} does not offer isolation level "
                        f"{isolation!r}"
                    )
        for protocol in self.protocols:
            proto = protos[protocol]
            depths = (
                self.lock_depths if proto.supports_lock_depth
                else (self.lock_depths[0],)
            )
            for depth in depths:
                for isolation in self.isolations:
                    for count in self.shards:
                        if count > 1 and not shardable(protocol, depth):
                            continue
                        for run in range(self.runs_per_cell):
                            yield SweepCell(
                                protocol, depth, isolation, run, count
                            )


def shardable(protocol: str, lock_depth: int) -> bool:
    """Whether a (protocol, depth) cell admits a sharded (>1) run."""
    from repro.shard.runner import validate_sharding

    try:
        validate_sharding(protocol, lock_depth, 2)
    except BenchmarkError:
        return False
    return True


def trace_filename(cell: SweepCell) -> str:
    """The JSONL trace filename for one cell run (stable, per-run)."""
    shard_tag = f"_s{cell.shards}" if cell.shards > 1 else ""
    return (
        f"{cell.protocol}_d{cell.lock_depth}_{cell.isolation}"
        f"{shard_tag}_r{cell.run}.jsonl"
    )


def _execute_cell(
    spec: SweepSpec,
    cell: SweepCell,
    trace_dir: Union[str, Path, None] = None,
    access_events: bool = False,
) -> RunResult:
    """Run one cell (module-level so worker processes can unpickle it).

    The per-cell seed depends only on the spec and the cell, never on
    execution order, which keeps parallel sweeps deterministic.  With a
    ``trace_dir`` the cell records its full event trace straight into
    ``<trace_dir>/<protocol>_d<depth>_<isolation>_r<run>.jsonl`` (sink
    mirroring, so no ring capacity limit applies).  ``access_events``
    additionally records the ``op.access``/``run.info`` stream the
    :mod:`repro.verify` history oracle checks.
    """
    observability = None
    if trace_dir is not None:
        from repro.obs import Observability

        sink = Path(trace_dir) / trace_filename(cell)
        observability = Observability.enabled(
            capacity=1, sink=sink, access_events=access_events
        )
    try:
        if cell.shards > 1:
            from repro.shard.runner import run_sharded_cluster1

            fault_schedule = None
            if spec.fault_schedule:
                from repro.chaos.schedule import load_schedule

                fault_schedule = load_schedule(spec.fault_schedule)
            return run_sharded_cluster1(
                cell.protocol,
                shards=cell.shards,
                lock_depth=cell.lock_depth,
                isolation=cell.isolation,
                scale=spec.scale,
                run_duration_ms=spec.run_duration_ms,
                seed=spec.base_seed + cell.run,
                observability=observability,
                transport=spec.shard_transport,
                fault_schedule=fault_schedule,
                chaos_seed=spec.chaos_seed + cell.run,
            )
        return run_cluster1(
            cell.protocol,
            lock_depth=cell.lock_depth,
            isolation=cell.isolation,
            scale=spec.scale,
            run_duration_ms=spec.run_duration_ms,
            seed=spec.base_seed + cell.run,
            observability=observability,
        )
    finally:
        if observability is not None:
            observability.close()


class SweepRunner:
    """Runs a :class:`SweepSpec` and aggregates per-cell repetitions.

    With ``workers > 1`` the independent cells are fanned out across a
    process pool; aggregation still happens in matrix order, so the
    results match a serial run exactly.  When a pool cannot be created
    (restricted environments) the runner silently falls back to serial
    execution.

    Fault tolerance: when the pool breaks mid-sweep, every cell whose
    result already arrived is *kept* and only the unfinished remainder
    re-runs serially (cells are deterministic, so a rerun of a lost
    in-flight cell reproduces its result exactly).  ``cell_timeout_s``
    bounds each parallel cell; a serial (re-)execution that raises is
    retried up to ``cell_retries`` extra times.  With a ``journal``
    path every finished cell is appended to a JSONL journal, and
    ``resume=True`` aggregates journaled cells instead of re-running
    them -- producing byte-identical CSV/JSON to an uninterrupted run.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        workers: int = 1,
        trace_dir: Union[str, Path, None] = None,
        access_events: bool = False,
        journal: Union[str, Path, None] = None,
        resume: bool = False,
        cell_timeout_s: Optional[float] = None,
        cell_retries: int = 1,
    ):
        self.spec = spec
        self.workers = max(1, int(workers)) if workers else 1
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.access_events = bool(access_events)
        self.journal_path = None if journal is None else Path(journal)
        self.resume = bool(resume)
        if self.resume and self.journal_path is None:
            raise BenchmarkError("resume requires a journal path")
        self.cell_timeout_s = cell_timeout_s
        self.cell_retries = max(0, int(cell_retries))
        #: Aggregated results keyed ``(protocol, depth, isolation, shards)``
        #: (legacy three-part keys are still accepted and sort as shards=1).
        self.results: Dict[Tuple, CellResult] = {}
        #: Cells taken from the journal on the last ``run`` (resume).
        self.resumed_cells = 0

    def run(self, *, progress=None, stop_after: Optional[int] = None
            ) -> List[CellResult]:
        """Execute the matrix; ``stop_after`` caps *freshly executed*
        cells (for testing resume -- journaled cells don't count)."""
        cells = list(self.spec.cells())
        self.results = {}
        self.resumed_cells = 0
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        journal = None
        done: Dict[SweepCell, RunResult] = {}
        if self.journal_path is not None:
            from repro.tamix.journal import SweepJournal

            journal = SweepJournal(self.journal_path, self.spec)
            if self.resume:
                done = journal.load()
            journal.open_for_append(fresh=not self.resume)
        try:
            pending = [cell for cell in cells if cell not in done]
            if stop_after is not None:
                pending = pending[:max(0, stop_after)]
            pending_set = set(pending)
            fresh = self._pending_outcomes(pending)
            # Merge journaled and fresh outcomes in matrix order, so the
            # aggregation (incremental averaging) orders identically to
            # an uninterrupted run -- the basis of byte-identical resume.
            for cell in cells:
                if cell in done:
                    outcome = done[cell]
                    self.resumed_cells += 1
                elif cell in pending_set:
                    outcome = next(fresh)[1]
                    if journal is not None:
                        journal.record(cell, outcome)
                else:
                    continue  # cut off by stop_after
                self._aggregate(cell, outcome)
                if progress is not None:
                    progress(cell, outcome)
        finally:
            if journal is not None:
                journal.close()
        return self.sorted_results()

    def _pending_outcomes(self, pending: List[SweepCell]):
        """Yield ``(cell, outcome)`` for every pending cell, in order.

        Parallel execution handles as many cells as the pool survives
        for; the remainder (including the cell that was in flight when
        the pool broke or timed out) runs serially with bounded retry.
        Unlike the pre-journal behaviour, completed parallel results are
        never discarded.
        """
        remaining = pending
        if self.workers > 1 and len(remaining) > 1:
            delivered = 0
            for pair in self._iter_parallel(remaining):
                if pair is None:
                    break
                yield pair
                delivered += 1
            remaining = remaining[delivered:]
        for cell in remaining:
            yield (cell, self._execute_with_retry(cell))

    def _execute_with_retry(self, cell: SweepCell) -> RunResult:
        attempts = 1 + self.cell_retries
        for attempt in range(1, attempts + 1):
            try:
                return _execute_cell(self.spec, cell, self.trace_dir,
                                     self.access_events)
            except BenchmarkError:
                raise  # misconfiguration: retrying cannot help
            except Exception:
                if attempt == attempts:
                    raise

    def _iter_parallel(self, cells: List[SweepCell]):
        """Yield (cell, outcome) pairs *live*, in matrix order.

        Results are consumed per-future (not gathered), so a ``progress``
        callback fires as soon as each matrix-order cell is done -- later
        cells may already have finished in the background.  Yields
        ``None`` (then stops) when no process pool is available, the pool
        breaks mid-run, or a cell exceeds ``cell_timeout_s`` -- the
        caller falls back to serial execution for the cells not yet
        delivered.
        """
        # Generate the document once, here: forked workers inherit its
        # image instead of each regenerating it for their first cell.
        load_bib(self.spec.scale)
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures import TimeoutError as FutureTimeout
            from concurrent.futures.process import BrokenProcessPool
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(cells))
            )
        except (ImportError, NotImplementedError, OSError, ValueError):
            yield None
            return
        try:
            futures = [
                pool.submit(_execute_cell, self.spec, cell,
                            self.trace_dir, self.access_events)
                for cell in cells
            ]
            for cell, future in zip(cells, futures):
                try:
                    yield (cell, future.result(timeout=self.cell_timeout_s))
                except BrokenProcessPool:
                    yield None
                    return
                except FutureTimeout:
                    yield None
                    return
                except Exception:
                    # A deterministic in-cell failure: the serial retry
                    # path decides whether it is fatal.
                    yield None
                    return
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def sorted_results(self) -> List[CellResult]:
        return [
            self.results[key]
            for key in sorted(
                self.results,
                key=lambda k: (k[0], k[2], k[1], k[3] if len(k) > 3 else 1),
            )
        ]

    # -- persistence ---------------------------------------------------------

    def to_csv(self, *, include_histogram: bool = False) -> str:
        rows = []
        for result in self.sorted_results():
            row = result.as_row()
            if include_histogram:
                # Flattened in canonical bucket order, so the header is
                # identical whichever protocols (or none) ever waited.
                buckets = canonical_histogram(result.wait_histogram)
                for bucket, count in buckets.items():
                    row[f"wait_{bucket}"] = count
            rows.append(row)
        if not rows:
            return ""
        fieldnames = list(rows[0])
        seen = set(fieldnames)
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    fieldnames.append(key)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=fieldnames, restval=0)
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            [
                result.as_row(include_histogram=True)
                for result in self.sorted_results()
            ],
            indent=2,
        )

    def series(self, metric: str = "committed",
               isolation: Optional[str] = None,
               shards: Optional[int] = None) -> Dict[str, List[float]]:
        """Per-protocol series over lock depth (line-chart ready)."""
        isolation = isolation or self.spec.isolations[0]
        if shards is None:
            shards = self.spec.shards[0] if self.spec.shards else 1
        series: Dict[str, List[float]] = {}
        for result in self.sorted_results():
            if result.cell.isolation != isolation:
                continue
            if result.cell.shards != shards:
                continue
            value = getattr(result, metric)
            series.setdefault(result.cell.protocol, []).append(value)
        return series

    # -- internals -----------------------------------------------------------------

    def _aggregate(self, cell: SweepCell, outcome: RunResult) -> None:
        key = (cell.protocol, cell.lock_depth, cell.isolation, cell.shards)
        slot = self.results.get(key)
        if slot is None:
            slot = CellResult(
                SweepCell(cell.protocol, cell.lock_depth, cell.isolation,
                          shards=cell.shards)
            )
            self.results[key] = slot
        n = slot.runs
        slot.committed = (slot.committed * n + outcome.committed) / (n + 1)
        slot.aborted = (slot.aborted * n + outcome.aborted) / (n + 1)
        slot.deadlocks = (slot.deadlocks * n + outcome.deadlocks) / (n + 1)
        for txn_type, metrics in outcome.by_type.items():
            previous = slot.by_type.get(txn_type, 0.0)
            slot.by_type[txn_type] = (previous * n + metrics.committed) / (n + 1)
            previous = slot.deadlock_aborts_by_type.get(txn_type, 0.0)
            slot.deadlock_aborts_by_type[txn_type] = (
                (previous * n + metrics.deadlock_aborts) / (n + 1)
            )
            slot.latencies.extend(metrics.durations)
        for kind, count in outcome.aborted_by_kind.items():
            previous = slot.aborted_by_kind.get(kind, 0.0)
            slot.aborted_by_kind[kind] = (previous * n + count) / (n + 1)
        for kind, count in outcome.deadlocks_by_kind.items():
            previous = slot.deadlocks_by_kind.get(kind, 0.0)
            slot.deadlocks_by_kind[kind] = (previous * n + count) / (n + 1)
        wait = outcome.wait_stats
        if wait:
            slot.lock_waits = (slot.lock_waits * n + wait["count"]) / (n + 1)
            slot.wait_mean_ms = (slot.wait_mean_ms * n + wait["mean_ms"]) / (n + 1)
            slot.wait_max_ms = max(slot.wait_max_ms, wait["max_ms"])
        histogram = outcome.wait_histogram
        if histogram:
            slot.wait_total_ms += float(histogram.get("total", 0.0))
            for bucket, count in histogram["buckets"].items():
                slot.wait_histogram[bucket] = (
                    slot.wait_histogram.get(bucket, 0) + count
                )
        slot.runs = n + 1
