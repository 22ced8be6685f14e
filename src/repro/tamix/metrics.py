"""TaMix performance metrics (Section 4.1).

"We could specifically realize the following performance metrics for each
experiment: number of committed and aborted transactions for a
pre-specified lock depth and isolation level; average, maximal, and
minimal duration of a transaction of a given type; number and type of
deadlocks for a lock protocol."
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The latency SLO percentiles reported per transaction type.
SLO_PERCENTILES = (("p50_ms", 50.0), ("p99_ms", 99.0), ("p999_ms", 99.9))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-th percentile by the nearest-rank method (deterministic).

    ``sorted_values`` must be non-empty and ascending.  Nearest rank --
    ``ceil(q/100 * n)`` -- is exact-arithmetic on the observed samples
    (no interpolation), so seeded runs report byte-identical SLOs.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} out of (0, 100]")
    rank = -(-q * len(sorted_values) // 100)  # ceil without floats
    return sorted_values[int(rank) - 1]


def latency_slo(durations: Sequence[float]) -> Dict[str, float]:
    """SLO summary of a latency sample: count + p50/p99/p999 (ms).

    Empty samples yield a count of 0 and no percentile keys, so reports
    never print percentiles fabricated from nothing.
    """
    slo: Dict[str, float] = {"count": len(durations)}
    if durations:
        ordered = sorted(durations)
        for key, q in SLO_PERCENTILES:
            slo[key] = nearest_rank(ordered, q)
    return slo


@dataclass
class TypeMetrics:
    """Counters for one transaction type."""

    committed: int = 0
    aborted: int = 0
    deadlock_aborts: int = 0
    timeout_aborts: int = 0
    storage_aborts: int = 0
    shard_unavailable_aborts: int = 0
    durations: List[float] = field(default_factory=list)

    def record_commit(self, duration_ms: float) -> None:
        self.committed += 1
        self.durations.append(duration_ms)

    def record_abort(self, kind: str = "deadlock") -> None:
        self.aborted += 1
        if kind == "deadlock":
            self.deadlock_aborts += 1
        elif kind == "storage":
            self.storage_aborts += 1
        elif kind == "shard-unavailable":
            self.shard_unavailable_aborts += 1
        else:
            self.timeout_aborts += 1

    def as_journal(self) -> Dict[str, object]:
        journal = {
            "committed": self.committed,
            "aborted": self.aborted,
            "deadlock_aborts": self.deadlock_aborts,
            "timeout_aborts": self.timeout_aborts,
            "storage_aborts": self.storage_aborts,
            "durations": list(self.durations),
        }
        # Only sharded runs can see this kind; journals of single-node
        # runs stay byte-identical to the pre-shard golden files.
        if self.shard_unavailable_aborts:
            journal["shard_unavailable_aborts"] = self.shard_unavailable_aborts
        return journal

    @classmethod
    def from_journal(cls, data: Dict[str, object]) -> "TypeMetrics":
        return cls(
            committed=int(data["committed"]),
            aborted=int(data["aborted"]),
            deadlock_aborts=int(data["deadlock_aborts"]),
            timeout_aborts=int(data["timeout_aborts"]),
            storage_aborts=int(data.get("storage_aborts", 0)),
            shard_unavailable_aborts=int(
                data.get("shard_unavailable_aborts", 0)
            ),
            durations=[float(d) for d in data["durations"]],
        )

    @property
    def avg_duration(self) -> Optional[float]:
        if not self.durations:
            return None
        return sum(self.durations) / len(self.durations)

    @property
    def min_duration(self) -> Optional[float]:
        return min(self.durations) if self.durations else None

    @property
    def max_duration(self) -> Optional[float]:
        return max(self.durations) if self.durations else None

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank latency percentile over the recorded durations."""
        if not self.durations:
            return None
        return nearest_rank(sorted(self.durations), q)

    @property
    def latency_slo(self) -> Dict[str, float]:
        """count + p50/p99/p999 commit latency, ms (see :func:`latency_slo`)."""
        return latency_slo(self.durations)


@dataclass
class RunResult:
    """The outcome of one TaMix benchmark run."""

    protocol: str
    lock_depth: int
    isolation: str
    run_duration_ms: float
    by_type: Dict[str, TypeMetrics] = field(
        default_factory=lambda: defaultdict(TypeMetrics)
    )
    deadlocks: int = 0
    deadlocks_by_kind: Dict[str, int] = field(default_factory=dict)
    lock_stats: Dict[str, int] = field(default_factory=dict)
    #: Aggregate lock-wait durations (count/total/mean/max, simulated ms).
    wait_stats: Dict[str, float] = field(default_factory=dict)
    #: Fixed-bucket wait-time histogram (see repro.obs.metrics.Histogram).
    wait_histogram: Dict[str, object] = field(default_factory=dict)
    #: Transaction restarts performed by the retry policy (0 without one).
    restarts: int = 0
    #: Work items shed by admission control (0 without a controller).
    sheds: int = 0

    # -- the paper's headline numbers ---------------------------------------

    @property
    def committed(self) -> int:
        """Total committed transactions (the figures' throughput axis)."""
        return sum(m.committed for m in self.by_type.values())

    @property
    def aborted(self) -> int:
        return sum(m.aborted for m in self.by_type.values())

    @property
    def aborted_by_kind(self) -> Dict[str, int]:
        """Abort counts split by cause (deadlock/timeout/storage fault/
        unavailable shard)."""
        return {
            "deadlock": sum(m.deadlock_aborts for m in self.by_type.values()),
            "timeout": sum(m.timeout_aborts for m in self.by_type.values()),
            "storage": sum(m.storage_aborts for m in self.by_type.values()),
            "shard-unavailable": sum(
                m.shard_unavailable_aborts for m in self.by_type.values()
            ),
        }

    @property
    def latency_slo(self) -> Dict[str, Dict[str, float]]:
        """Per-transaction-type latency SLO percentiles, plus ``_overall``.

        Keys are transaction types (sorted), values ``{"count", "p50_ms",
        "p99_ms", "p999_ms"}``; the ``_overall`` entry pools every
        committed transaction's duration.  This is what the lock server
        reports per SLO window and what the sweep reports tabulate.
        """
        slo = {
            name: metrics.latency_slo
            for name, metrics in sorted(self.by_type.items())
        }
        pooled: List[float] = []
        for metrics in self.by_type.values():
            pooled.extend(metrics.durations)
        slo["_overall"] = latency_slo(pooled)
        return slo

    def committed_of(self, txn_type: str) -> int:
        return self.by_type[txn_type].committed

    def normalized_throughput(self, window_ms: float = 300_000.0) -> float:
        """Committed transactions per paper-sized (5-minute) window."""
        if self.run_duration_ms <= 0:
            return 0.0
        return self.committed * window_ms / self.run_duration_ms

    # -- reporting ---------------------------------------------------------------

    def row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "lock_depth": self.lock_depth,
            "isolation": self.isolation,
            "committed": self.committed,
            "aborted": self.aborted,
            "deadlocks": self.deadlocks,
        }

    def as_journal(self) -> Dict[str, object]:
        """Lossless JSON-safe image of this result (sweep journal rows).

        Floats survive JSON round trips exactly (repr-based encoding), so
        a result rebuilt by :meth:`from_journal` aggregates to the same
        bytes as the original -- the basis of ``repro sweep --resume``.
        """
        return {
            "protocol": self.protocol,
            "lock_depth": self.lock_depth,
            "isolation": self.isolation,
            "run_duration_ms": self.run_duration_ms,
            "by_type": {
                name: metrics.as_journal()
                for name, metrics in sorted(self.by_type.items())
            },
            "deadlocks": self.deadlocks,
            "deadlocks_by_kind": dict(self.deadlocks_by_kind),
            "lock_stats": dict(self.lock_stats),
            "wait_stats": dict(self.wait_stats),
            "wait_histogram": dict(self.wait_histogram),
            "restarts": self.restarts,
            "sheds": self.sheds,
        }

    @classmethod
    def from_journal(cls, data: Dict[str, object]) -> "RunResult":
        result = cls(
            protocol=str(data["protocol"]),
            lock_depth=int(data["lock_depth"]),
            isolation=str(data["isolation"]),
            run_duration_ms=float(data["run_duration_ms"]),
            deadlocks=int(data["deadlocks"]),
            deadlocks_by_kind=dict(data["deadlocks_by_kind"]),
            lock_stats=dict(data["lock_stats"]),
            wait_stats=dict(data["wait_stats"]),
            wait_histogram=dict(data["wait_histogram"]),
            restarts=int(data.get("restarts", 0)),
            sheds=int(data.get("sheds", 0)),
        )
        for name, metrics in data["by_type"].items():
            result.by_type[name] = TypeMetrics.from_journal(metrics)
        return result

    def summary(self) -> str:
        per_type = "  ".join(
            f"{name}={metrics.committed}/{metrics.aborted}"
            for name, metrics in sorted(self.by_type.items())
        )
        return (
            f"{self.protocol:<9} depth={self.lock_depth} "
            f"{self.isolation:<11} committed={self.committed:<5} "
            f"aborted={self.aborted:<5} deadlocks={self.deadlocks:<5} "
            f"[{per_type}]"
        )
