"""The metrics registry: counters, gauges, histograms with fixed buckets.

Components publish in two ways:

* **direct instruments** on cold-ish paths -- e.g. the lock manager
  observes every blocking wait into a :class:`Histogram`, the transaction
  manager counts aborts by reason;
* **collectors** for counters that already exist as cheap attributes on
  hot paths (lock-table request counts, buffer I/O statistics) -- a
  collector callback copies them into the registry when a snapshot is
  taken, so the hot path itself pays nothing new.

Snapshots (:meth:`MetricsRegistry.as_dict`) are plain nested dicts,
exported as JSON or CSV (:meth:`MetricsRegistry.to_json`,
:meth:`MetricsRegistry.to_csv`); the lock-wait histogram feeds the
TaMix sweep rows (``repro sweep --json``) and their reports.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default wait-time bucket boundaries (simulated ms) -- chosen to bracket
#: the paper's lock-wait regimes, from instant grants to timeout-scale
#: stalls.  The implicit final bucket is +Inf.
WAIT_TIME_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        # Preserve int-ness so mirrored counters export as integers.
        self.value = value


class Histogram:
    """Fixed-boundary histogram (cumulative-style bucket counts).

    ``boundaries`` are upper bounds of the finite buckets; one overflow
    bucket (+Inf) is implicit.  Boundaries are fixed at construction so
    histograms from different runs/protocols are directly comparable.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = WAIT_TIME_BUCKETS_MS):
        if list(boundaries) != sorted(boundaries) or len(set(boundaries)) != len(
            tuple(boundaries)
        ):
            raise ValueError("histogram boundaries must be sorted and unique")
        self.name = name
        self.boundaries: Tuple[float, ...] = tuple(float(b) for b in boundaries)
        self.bucket_counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        for boundary, bucket_count in zip(self.boundaries, self.bucket_counts):
            buckets[f"le_{boundary:g}"] = bucket_count
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "max": round(self.max, 6),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument access --------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._histograms[name] = Histogram(
                name, boundaries if boundaries is not None else WAIT_TIME_BUCKETS_MS
            )
        elif boundaries is not None and tuple(
            float(b) for b in boundaries
        ) != instrument.boundaries:
            raise ValueError(
                f"histogram {name} already registered with different buckets"
            )
        return instrument

    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback run at every snapshot.

        Collectors copy cheap native counters (lock-table statistics,
        buffer I/O counts) into registry instruments without putting the
        registry on the component's hot path.
        """
        self._collectors.append(collect)

    # -- snapshots ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        for collect in self._collectors:
            collect(self)
        snapshot: Dict[str, object] = {}
        for name in sorted(self._counters):
            snapshot[name] = self._counters[name].value
        for name in sorted(self._gauges):
            snapshot[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            snapshot[name] = self._histograms[name].as_dict()
        return snapshot

    def typed_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Snapshot keeping the instrument kinds apart.

        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` --
        the shape the windowed time-series and the Prometheus renderer
        consume, where counter/gauge/histogram semantics diverge
        (deltas vs. last-value vs. bucket merges).  Runs collectors,
        like :meth:`as_dict`.
        """
        for collect in self._collectors:
            collect(self)
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Flat ``metric,value`` rows (histograms flattened per bucket)."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["metric", "value"])
        for name, value in self.as_dict().items():
            if isinstance(value, dict):  # histogram
                for stat in ("count", "total", "mean", "max"):
                    writer.writerow([f"{name}.{stat}", value[stat]])
                for bucket, bucket_count in value["buckets"].items():
                    writer.writerow([f"{name}.bucket.{bucket}", bucket_count])
            else:
                writer.writerow([name, value])
        return out.getvalue()

    # -- internals -----------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric {name} already registered as another type")
