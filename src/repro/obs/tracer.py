"""Event tracers: a no-op null tracer and a ring-buffer tracer.

Zero-cost-when-disabled contract: every instrumentation site guards its
``emit`` call with a single attribute check::

    if tracer.enabled:
        tracer.emit(LOCK_GRANT, txn=..., node=..., mode=...)

so a disabled system pays exactly one ``bool`` load per site and never
builds the event payload.  The hot paths (buffer ``fix``, node-manager
operations) go further and pick their plain or instrumented
implementation once, when the tracer is bound.

The :class:`RingTracer` keeps the last ``capacity`` events in memory
(``capacity=None`` keeps everything) and can mirror every event into a
JSONL sink as it happens, so long runs survive ring overflow.  Timestamps
come from a bound clock -- the simulator clock during benchmark runs --
which makes traces deterministic, replayable, and diffable across
protocols.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.obs.events import EVENT_KINDS, TraceEvent


class NullTracer:
    """The disabled tracer: never records, never allocates."""

    enabled = False

    def emit(self, kind: str, txn: Optional[str] = None, **data: object) -> None:
        """No-op.  Instrumentation sites must not even reach this call
        when tracing is disabled (guard on ``tracer.enabled``)."""

    def events(self) -> List[TraceEvent]:
        return []

    def close(self) -> None:
        pass


#: The shared disabled tracer (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


class RingTracer:
    """Bounded in-memory event trace with an optional JSONL sink."""

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = 65_536,
        *,
        clock: Optional[Callable[[], float]] = None,
        sink: Union[str, Path, None] = None,
        enabled: bool = True,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        # Instance attribute shadows the class default, so a ring tracer
        # can be constructed dormant (``enabled=False``): sites see the
        # same False their guard would see from the null tracer.
        self.enabled = enabled
        self.capacity = capacity
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._ring: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._sink_path: Optional[Path] = None
        self._sink_handle = None
        if sink is not None:
            self._sink_path = Path(sink)
            self._sink_handle = self._sink_path.open("w", encoding="utf-8")

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, txn: Optional[str] = None, **data: object) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self._seq += 1
        event = TraceEvent(self._seq, self.clock(), kind, txn, data)
        if self.capacity is not None and len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        if self._sink_handle is not None:
            self._sink_handle.write(
                json.dumps(event.as_dict(), sort_keys=True) + "\n"
            )

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink_handle is not None:
            self._sink_handle.close()
            self._sink_handle = None

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def events(
        self,
        kind: Optional[str] = None,
        txn: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events currently in the ring, optionally filtered."""
        out = []
        for event in self._ring:
            if kind is not None and event.kind != kind:
                continue
            if txn is not None and event.txn != txn:
                continue
            out.append(event)
        return out

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- JSONL persistence ---------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(event.as_dict(), sort_keys=True) + "\n"
            for event in self._ring
        )

    def dump_jsonl(self, path: Union[str, Path]) -> int:
        """Write the ring contents as JSONL; returns the event count."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(self._ring)


def load_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Read a JSONL trace back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def aggregate(events: Iterable[TraceEvent]) -> Dict[str, int]:
    """Counter aggregation of a trace (replay-side accounting).

    Returns per-kind totals plus the derived transaction counters the
    TaMix metrics report, so a trace can be checked against the metrics
    of the run that produced it::

        committed            == RunResult.committed
        aborted.deadlock     == sum of per-type deadlock aborts
        aborted.timeout      == sum of per-type timeout aborts
        lock.block           == lock_stats["waits"]
    """
    totals: Dict[str, int] = {}
    for event in events:
        totals[event.kind] = totals.get(event.kind, 0) + 1
        if event.kind == "txn.abort":
            reason = str(event.data.get("reason", "rollback"))
            key = f"aborted.{reason}"
            totals[key] = totals.get(key, 0) + 1
        elif event.kind == "txn.commit":
            totals["committed"] = totals.get("committed", 0) + 1
    return totals
