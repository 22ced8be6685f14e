"""repro.obs -- the cross-cutting observability layer.

Two cooperating pieces:

* the **event tracer** (:mod:`repro.obs.tracer`): typed events for the
  lock pipeline, deadlock detector, transaction lifecycle, and buffer
  manager, kept in a ring buffer and optionally mirrored to a JSONL sink;
* the **metrics registry** (:mod:`repro.obs.metrics`): counters, gauges,
  and fixed-bucket histograms that every runtime component publishes
  into.

:class:`Observability` bundles one tracer and one registry; a
:class:`~repro.database.Database` owns one bundle and hands it to the
lock manager, deadlock detector, transaction manager, and buffer pool.
``Observability.disabled()`` (the default) uses the no-op tracer, whose
cost at every instrumentation site is a single attribute check.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro import _lazy_exports
from repro.obs.events import (  # noqa: F401  (re-exported taxonomy)
    ADMISSION_DECISION,
    BUFFER_EVICT,
    BUFFER_FIX,
    BUFFER_MISS,
    CHAOS_FAULT,
    DEADLOCK_DETECTED,
    EVENT_KINDS,
    LOCK_BLOCK,
    LOCK_CONVERT,
    LOCK_ESCALATE,
    LOCK_GRANT,
    LOCK_RELEASE,
    LOCK_REQUEST,
    LOCK_TIMEOUT,
    OP_ACCESS,
    RUN_INFO,
    SPAN_BEGIN,
    SPAN_END,
    TXN_ABORT,
    TXN_BEGIN,
    TXN_COMMIT,
    TXN_RETRY,
    TraceEvent,
    txn_label,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WAIT_TIME_BUCKETS_MS,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    aggregate,
    load_jsonl,
)

# The tracer, metrics and event taxonomy are bound above because
# :class:`Observability` and every instrumented layer use them; the
# offline analysis and export modules load on first use.
__getattr__, __dir__ = _lazy_exports(__name__, {
    ".analysis": ("Hotspots", "TraceAnalysis", "WaitRecord", "splid_prefix"),
    ".prom": ("render_prometheus", "render_registry", "sanitize_metric_name"),
    ".spans": ("Span", "TxnTimeline", "build_timelines"),
    ".timeseries": ("SERIES_VERSION", "WindowSnapshot", "WindowedSeries"),
})

__all__ = [
    "EVENT_KINDS",
    "OP_ACCESS",
    "RUN_INFO",
    "CHAOS_FAULT",
    "TXN_RETRY",
    "ADMISSION_DECISION",
    "SPAN_BEGIN",
    "SPAN_END",
    "TraceEvent",
    "txn_label",
    "NullTracer",
    "NULL_TRACER",
    "RingTracer",
    "load_jsonl",
    "aggregate",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WAIT_TIME_BUCKETS_MS",
    "SERIES_VERSION",
    "WindowSnapshot",
    "WindowedSeries",
    "render_prometheus",
    "render_registry",
    "sanitize_metric_name",
    "Observability",
    "Span",
    "TxnTimeline",
    "build_timelines",
    "TraceAnalysis",
    "WaitRecord",
    "Hotspots",
    "splid_prefix",
]


class Observability:
    """One tracer + one metrics registry, wired through a database."""

    def __init__(
        self,
        tracer: Optional["NullTracer | RingTracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        access_events: bool = False,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: When set, the node manager also traces one ``op.access`` event
        #: per logical data access (and the TaMix coordinator a
        #: ``run.info`` manifest) -- the inputs of the history oracle in
        #: :mod:`repro.verify`.  Off by default so existing traces stay
        #: byte-identical.
        self.access_events = access_events

    @classmethod
    def disabled(cls) -> "Observability":
        """No-op tracing; metrics registry still collectable on demand."""
        return cls(NULL_TRACER)

    @classmethod
    def enabled(
        cls,
        capacity: Optional[int] = 65_536,
        *,
        sink: Union[str, Path, None] = None,
        access_events: bool = False,
    ) -> "Observability":
        """Ring-buffer tracing (``capacity=None`` keeps every event)."""
        return cls(RingTracer(capacity, sink=sink), access_events=access_events)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def bind_clock(self, clock: Callable[[], float]) -> None:
        if self.tracer.enabled:
            self.tracer.bind_clock(clock)

    def close(self) -> None:
        self.tracer.close()
