"""The front door: an asyncio socket server around one :class:`Database`.

One server process owns one database (document + lock manager + WAL) and
serves the wire protocol of :mod:`repro.net.wire`.  Concurrency comes
from the same substrate as the simulator and the threaded runtime: every
node-manager operation is a generator yielding
:class:`~repro.sched.simulator.Delay` and
:class:`~repro.locking.lock_table.WaitTicket` effects, and the server
drives them on the asyncio event loop -- everything between two yields
runs atomically on the single loop thread, which is exactly the
latch-protected atomicity the lock table expects (see DESIGN.md and
:mod:`repro.sched.threaded`).

Two classes split the work.  :class:`RequestHandler` decides what one
request frame does -- sans IO, on whatever clock it is given, blocking
requests expressed as effect generators -- and :class:`LockServer` is
the asyncio shell that feeds it frames from sockets.  The load
generator's sim executor feeds the *same* handler from the
discrete-event simulator, so simulated traffic measures this server.

Overload protection is the PR 5 story wired to the network edge: a
:class:`~repro.chaos.retry.AdmissionController` gates BEGIN frames
(queue with backoff, then shed with a typed
:class:`~repro.errors.AdmissionRejected` ERROR frame that clients know
is transient), and every transient abort (deadlock victim, lock-wait
timeout) is reported with its taxonomy so the client-side
:class:`~repro.chaos.retry.RetryPolicy` can restart the transaction.

Latency SLOs: the server clocks every transaction from BEGIN to COMMIT
and every request frame from read to reply, per transaction-type name,
and reports p50/p99/p999 (nearest-rank, see
:func:`repro.tamix.metrics.latency_slo`) through STATS frames and
:meth:`LockServer.stats`.  With tracing enabled each request is wrapped
in an ``rpc`` span, nesting the node manager's ``op`` and ``lock.wait``
spans exactly like embedded runs.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.retry import ADMIT, QUEUE, AdmissionPolicy
from repro.core.protocol import Access
from repro.database import Database
from repro.errors import (
    ProtocolError,
    ReproError,
    TransactionError,
    AdmissionRejected,
    UnsupportedWireVersion,
    is_transient,
)
from repro.locking.lock_table import WaitTicket
from repro.net import wire
from repro.obs import (
    SPAN_BEGIN,
    SPAN_END,
    MetricsRegistry,
    WindowedSeries,
    txn_label,
)
from repro.query import QueryProcessor
from repro.sched.simulator import Delay, SimulationError
from repro.tamix.bibgen import BibInfo, load_bib
from repro.tamix.metrics import latency_slo
from repro.txn.transaction import Transaction, TxnState

#: Node-manager operations a CALL frame may name.  Everything else is a
#: protocol error -- the wire surface is the session surface, not the
#: whole object graph.
NODE_OPS = frozenset({
    "get_element_by_id",
    "get_first_child",
    "get_last_child",
    "get_next_sibling",
    "get_previous_sibling",
    "get_parent",
    "get_child_nodes",
    "get_attributes",
    "read_content",
    "get_attribute_value",
    "read_subtree",
    "update_content",
    "rename_element",
    "insert_tree",
    "delete_subtree",
})


def dispatch_call(nodes, txn: Transaction, name: str, args: Tuple[Any, ...]):
    """A node-manager operation generator for one CALL frame.

    ``delete_subtree``'s :class:`~repro.core.protocol.Access` argument
    crosses the wire as its string value ("navigation"/"jump").
    """
    if name not in NODE_OPS:
        raise ProtocolError(f"unknown operation {name!r}")
    if name == "delete_subtree" and len(args) == 2 and isinstance(args[1], str):
        try:
            args = (args[0], Access(args[1]))
        except ValueError:
            raise ProtocolError(f"unknown access kind {args[1]!r}") from None
    try:
        return getattr(nodes, name)(txn, *args)
    except TypeError as exc:
        raise ProtocolError(f"bad arguments for {name}: {exc}") from None


class SloTracker:
    """Per-transaction-type latency samples with SLO percentiles.

    Samples are kept in a bounded per-type reservoir (Algorithm R, seeded
    RNG) so a long-lived server holds O(types * reservoir) floats instead
    of one float per committed transaction ever.  ``slo()`` keeps its
    output shape -- per-type summaries plus ``_overall`` -- and reports
    the *true* observation count per type, with percentiles estimated
    from the reservoir once it saturates.
    """

    def __init__(self, *, reservoir: int = 512, seed: int = 2006):
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self.reservoir = int(reservoir)
        self._rng = random.Random(seed)
        self._samples: Dict[str, List[float]] = {}
        self._observed: Dict[str, int] = {}
        self.committed = 0
        self.aborted = 0
        self.aborted_by_reason: Dict[str, int] = {}

    def record_commit(self, txn_type: str, latency_ms: float) -> None:
        self.committed += 1
        seen = self._observed.get(txn_type, 0)
        self._observed[txn_type] = seen + 1
        samples = self._samples.setdefault(txn_type, [])
        if seen < self.reservoir:
            samples.append(latency_ms)
        else:
            slot = self._rng.randrange(seen + 1)
            if slot < self.reservoir:
                samples[slot] = latency_ms

    def record_abort(self, reason: str) -> None:
        self.aborted += 1
        self.aborted_by_reason[reason] = (
            self.aborted_by_reason.get(reason, 0) + 1
        )

    def slo(self) -> Dict[str, Dict[str, float]]:
        """{txn_type: {count, p50_ms, p99_ms, p999_ms}} plus ``_overall``."""
        report: Dict[str, Dict[str, float]] = {}
        pooled: List[float] = []
        for name, samples in sorted(self._samples.items()):
            row = latency_slo(samples)
            row["count"] = self._observed[name]
            report[name] = row
            pooled.extend(samples)
        overall = latency_slo(pooled)
        total = sum(self._observed.values())
        if total:
            overall["count"] = total
        report["_overall"] = overall
        return report


@dataclass
class ServerConfig:
    """Everything one ``repro serve`` invocation needs."""

    host: str = "127.0.0.1"
    port: int = 7420
    protocol: str = "taDOM3+"
    lock_depth: int = 4
    isolation: str = "repeatable"
    #: Bib document scale for the built-in workload document.
    scale: float = 0.1
    seed: int = 2006
    #: Real-milliseconds lock-wait timeout (the database clock is wall
    #: time on a live server).
    wait_timeout_ms: Optional[float] = 5_000.0
    enable_wal: bool = False
    observability: Any = None
    #: Admission control for BEGIN frames; ``None`` admits everything.
    admission: Optional[AdmissionPolicy] = None
    escalation_threshold: Optional[int] = None
    #: Live telemetry plane: windowed series, slow-request log, loop-lag
    #: probe, TELEMETRY/SUBSCRIBE frames.  Disabled, the request path
    #: pays one ``is not None`` check.
    telemetry: bool = True
    telemetry_window_ms: float = 1_000.0
    telemetry_capacity: int = 120
    slow_log_size: int = 16


#: Event-loop lag buckets (wall ms).  A healthy loop oversleeps its
#: sampler window by well under a millisecond; the tail buckets catch
#: long synchronous stretches (big QUERY subtree reads, GC pauses).
LOOP_LAG_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1_000.0,
)


class SlowRequestLog:
    """Top-K requests by service time, with wait/cost attribution.

    A min-heap keyed on service time: a new request enters only by
    beating the current K-th slowest, so steady-state cost per request
    is one comparison.
    """

    def __init__(self, size: int = 16):
        self.size = int(size)
        self._heap: List[Tuple[float, int, Dict[str, Any]]] = []
        self._seq = 0

    def note(self, record: Dict[str, Any]) -> None:
        if self.size <= 0:
            return
        key = (record["service_ms"], self._seq, record)
        self._seq += 1
        if len(self._heap) < self.size:
            heapq.heappush(self._heap, key)
        elif key[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, key)

    def as_list(self) -> List[Dict[str, Any]]:
        """Records, slowest first."""
        return [
            dict(record)
            for _ms, _seq, record in sorted(
                self._heap, key=lambda item: (-item[0], item[1])
            )
        ]


class TelemetryPlane:
    """The server-side live-telemetry bundle.

    Owns a private registry for server-plane instruments (request
    latency and loop-lag histograms, mirrored overload counters), merges
    it with the database's registry into one typed snapshot, and feeds a
    :class:`~repro.obs.timeseries.WindowedSeries` that the sampler task
    ticks once per window.  Everything here runs off the request path:
    the only per-request work is :meth:`note_request`.
    """

    def __init__(self, server: "RequestHandler"):
        config = server.config
        self.server = server
        self.registry = MetricsRegistry()
        self.request_ms = self.registry.histogram("server.request_ms")
        self.loop_lag_ms = self.registry.histogram(
            "server.loop_lag_ms", LOOP_LAG_BUCKETS_MS
        )
        self.registry.register_collector(self._collect)
        self.slow = SlowRequestLog(config.slow_log_size)
        self.series = WindowedSeries(
            self.snapshot,
            window_ms=config.telemetry_window_ms,
            capacity=config.telemetry_capacity,
            clock=server.clock,
        )
        self._window_samples: List[float] = []
        self.series.add_sampler("request_ms", self._drain_samples)
        #: SUBSCRIBE fan-out: one bounded queue per streaming client.
        self.subscribers: List[_Subscriber] = []
        #: Windows dropped across all subscribers (slow consumers).
        self.dropped_windows = 0

    # -- collection ----------------------------------------------------------

    def _collect(self, registry: MetricsRegistry) -> None:
        """Mirror the server's native counters into the registry.

        Counters use the monotone-total idiom (``inc(total - value)``)
        so the windowed series can diff them; point-in-time facts export
        as gauges.
        """
        server = self.server

        def mirror(name: str, total: int) -> None:
            instrument = registry.counter(name)
            instrument.inc(total - instrument.value)

        mirror("server.requests", server.requests)
        mirror("server.connections", server.connections)
        mirror("server.committed", server.slo.committed)
        mirror("server.aborted", server.slo.aborted)
        mirror("server.sheds", server.sheds)
        mirror("server.protocol_errors", server.protocol_errors)
        for reason, total in server.slo.aborted_by_reason.items():
            mirror(f"server.aborted.{reason}", total)
        for name, total in server.requests_by_opcode.items():
            mirror(f"server.requests.{name}", total)
        registry.gauge("server.active_txns").set(
            server.database.transactions.active_count
        )
        registry.gauge("server.uptime_ms").set(round(server.clock(), 3))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One merged typed snapshot: database plane + server plane."""
        merged = self.server.database.obs.metrics.typed_snapshot()
        for kind, instruments in self.registry.typed_snapshot().items():
            merged[kind].update(instruments)
        return merged

    def _drain_samples(self) -> List[float]:
        samples, self._window_samples = self._window_samples, []
        return samples

    # -- the one request-path hook -------------------------------------------

    def note_request(
        self,
        op: str,
        service_ms: float,
        *,
        lock_wait_ms: float = 0.0,
        sim_cost_ms: float = 0.0,
        txn: Optional[str] = None,
        trace: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        self.request_ms.observe(service_ms)
        self._window_samples.append(service_ms)
        record: Dict[str, Any] = {
            "op": op,
            "service_ms": round(service_ms, 3),
            "lock_wait_ms": round(lock_wait_ms, 3),
            "sim_cost_ms": round(sim_cost_ms, 3),
            "t_ms": round(self.server.clock(), 3),
            "txn": txn,
        }
        if trace is not None:
            record["trace"] = trace
        if error is not None:
            record["error"] = error
        self.slow.note(record)

    # -- fan-out -------------------------------------------------------------

    def publish(self, window_dict: Dict[str, Any]) -> None:
        """Hand a closed window to every subscriber (count the drops)."""
        for subscriber in self.subscribers:
            try:
                subscriber.queue.put_nowait(window_dict)
            except asyncio.QueueFull:
                # A slow consumer skips windows rather than stalling the
                # sampler -- but the skip is *counted* and reported in
                # the stream's DONE frame, never silently swallowed.
                subscriber.dropped += 1
                self.dropped_windows += 1


class _Subscriber:
    """One SUBSCRIBE stream: its window queue and its drop count."""

    __slots__ = ("queue", "dropped")

    def __init__(self, queue: asyncio.Queue):
        self.queue = queue
        self.dropped = 0


class _Connection:
    """Per-connection state: negotiated version, open transactions, and
    the current request's time attribution (cost-model ``Delay`` ms vs.
    time parked on lock waits), filled in by whoever drives it."""

    __slots__ = ("name", "version", "txns", "started", "in_restart",
                 "lock_wait_ms", "sim_cost_ms")

    def __init__(self):
        self.name = "?"
        self.version = None
        self.txns: Dict[int, Tuple[Transaction, str, float]] = {}
        self.started = 0.0
        self.in_restart = False
        self.lock_wait_ms = self.sim_cost_ms = 0.0


class Pause(Delay):
    """A delay that must really pass before the generator resumes:
    simulated ms under the Simulator, wall ms in ``LockServer._drive``."""


class RequestHandler:
    """What the server does with one request frame -- and nothing else.

    Sans-IO: owns the database, the query processor, SLO tracking,
    admission control, per-connection transaction state, the counters
    and the optional telemetry plane, and reads time only through
    ``clock`` (milliseconds).  :class:`LockServer` drives it from
    sockets on the asyncio loop with a wall clock; the load generator's
    sim executor drives the same object from
    :class:`~repro.sched.simulator.Simulator` processes with the
    simulated clock.
    """

    def __init__(
        self,
        database: Database,
        *,
        clock: Callable[[], float],
        config: Optional[ServerConfig] = None,
        info: Optional[BibInfo] = None,
    ):
        self.config = config or ServerConfig()
        self.database = database
        self.info = info
        self.clock = clock
        self.nodes = database.nodes
        self.query = QueryProcessor(database.nodes)
        self.slo = SloTracker()
        self.admission = (
            self.config.admission.controller()
            if self.config.admission is not None else None
        )
        self.protocol_errors = 0
        self.sheds = 0
        self.requests = 0
        self.requests_by_opcode: Dict[str, int] = {}
        self.connections = 0
        database.set_clock(clock)
        self._plane: Optional[TelemetryPlane] = (
            TelemetryPlane(self) if self.config.telemetry else None
        )

    # -- stats ---------------------------------------------------------------

    def server_info(self) -> Dict[str, Any]:
        """The WELCOME/INFO payload: identity plus workload handles."""
        document = self.database.document
        payload: Dict[str, Any] = {
            "protocol": self.database.protocol.name,
            "lock_depth": self.database.lock_depth,
            "isolation": self.database.default_isolation.value,
            "root": document.name_of(document.root),
            "nodes": int(document.statistics()["nodes"]),
        }
        if self.info is not None:
            payload["book_ids"] = list(self.info.book_ids)
            payload["topic_ids"] = list(self.info.topic_ids)
            payload["person_ids"] = list(self.info.person_ids)
        return payload

    def stats(self) -> Dict[str, Any]:
        """The STATS payload: SLO percentiles and overload counters."""
        return {
            "slo": self.slo.slo(),
            "committed": self.slo.committed,
            "aborted": self.slo.aborted,
            "aborted_by_reason": dict(sorted(
                self.slo.aborted_by_reason.items()
            )),
            "sheds": self.sheds,
            "protocol_errors": self.protocol_errors,
            "requests": self.requests,
            "requests_by_opcode": dict(sorted(
                self.requests_by_opcode.items()
            )),
            "connections": self.connections,
            "active_txns": self.database.transactions.active_count,
            "uptime_ms": round(self.clock(), 3),
        }

    def telemetry(self) -> Dict[str, Any]:
        """The TELEMETRY payload: windowed series + live snapshot.

        The series' own ``snapshot`` field is the image at the last
        sampler tick (deterministic under a simulated clock); the
        payload overrides it with a fresh merged snapshot so a one-shot
        scrape sees the current totals, and adds the slow-request log.
        """
        plane = self._plane
        if plane is None:
            raise ReproError("telemetry is disabled on this server")
        payload = plane.series.to_dict()
        payload["snapshot"] = plane.snapshot()
        payload["uptime_ms"] = round(self.clock(), 3)
        payload["slow_requests"] = plane.slow.as_list()
        return payload

    # -- connections ---------------------------------------------------------

    def connect(self) -> _Connection:
        self.connections += 1
        return _Connection()

    def abandon(self, conn: _Connection) -> None:
        """Roll back whatever a vanished connection left active."""
        for txn, _name, _started in conn.txns.values():
            if txn.state is TxnState.ACTIVE:
                self.database.abort(txn, reason="rollback")
        conn.txns.clear()
        if conn.in_restart and self.admission is not None:
            self.admission.leave_restart()
            conn.in_restart = False

    # -- one request frame -> one reply frame --------------------------------

    def count(self, opcode: int) -> None:
        self.requests += 1
        name = wire.OPCODE_NAMES.get(opcode, f"0x{opcode:02x}")
        self.requests_by_opcode[name] = (
            self.requests_by_opcode.get(name, 0) + 1
        )

    def dispatch(self, conn, opcode: int, body):
        """The reply to one request frame.

        BEGIN, CALL and QUERY can block (admission queueing, lock
        waits): for them the result is a generator that yields
        ``Delay``/``Pause``/``WaitTicket`` effects and *returns* the
        reply frame.  Every other opcode answers at once with the frame
        bytes.
        """
        self.count(opcode)
        if opcode in (wire.OP_CALL, wire.OP_QUERY):
            return self._work(conn, opcode, body)
        if opcode == wire.OP_BEGIN:
            return self._begin(conn, body)
        if opcode == wire.OP_COMMIT:
            return self._commit(conn, body)
        if opcode == wire.OP_ABORT:
            return self._abort(conn, body)
        if opcode == wire.OP_PING:
            return wire.encode_frame(wire.OP_PONG)
        if opcode == wire.OP_INFO:
            return wire.encode_frame(
                wire.OP_RESULT, self.server_info(), 0.0
            )
        if opcode == wire.OP_STATS:
            return wire.encode_frame(wire.OP_RESULT, self.stats(), 0.0)
        if opcode == wire.OP_TELEMETRY:
            if self._plane is None:
                return wire.encode_error(
                    ReproError("telemetry is disabled on this server")
                )
            return wire.encode_frame(wire.OP_RESULT, self.telemetry(), 0.0)
        raise ProtocolError(
            f"unexpected opcode 0x{opcode:02x} "
            f"({wire.OPCODE_NAMES.get(opcode, '?')})"
        )

    def _begin(self, conn, body):
        if len(body) != 2:
            raise ProtocolError("BEGIN needs (name, isolation)")
        name, isolation = str(body[0]), body[1]
        if self.admission is not None and not conn.in_restart:
            waits = 0
            while True:
                decision = self.admission.admit(waits)
                if decision is ADMIT:
                    break
                if decision is QUEUE:
                    waits += 1
                    yield Pause(self.admission.policy.queue_backoff_ms)
                    continue
                self.sheds += 1  # SHED
                return wire.encode_error(AdmissionRejected(
                    f"admission control shed {name!r} "
                    f"(pressure {self.admission.pressure})"
                ))
        try:
            txn = self.database.begin(
                name, None if isolation is None else str(isolation)
            )
        except ReproError as exc:
            return wire.encode_error(exc)
        conn.txns[txn.txn_id] = (txn, name, self.clock())
        return wire.encode_frame(wire.OP_BEGUN, txn.txn_id)

    def _conn_txn(self, conn, txn_id) -> Tuple[Transaction, str, float]:
        entry = conn.txns.get(txn_id)
        if entry is None:
            raise ProtocolError(
                f"transaction {txn_id} is not open on this connection"
            )
        return entry

    def _commit(self, conn, body) -> bytes:
        if len(body) != 1:
            raise ProtocolError("COMMIT needs (txn_id,)")
        txn, name, started = self._conn_txn(conn, body[0])
        try:
            self.database.commit(txn)
        except ReproError as exc:
            return wire.encode_error(exc)
        del conn.txns[txn.txn_id]
        self.slo.record_commit(name, self.clock() - started)
        if conn.in_restart and self.admission is not None:
            self.admission.leave_restart()
            conn.in_restart = False
        return wire.encode_frame(wire.OP_DONE, self.clock() - started)

    def _abort(self, conn, body) -> bytes:
        if len(body) != 2:
            raise ProtocolError("ABORT needs (txn_id, reason)")
        txn, _name, started = self._conn_txn(conn, body[0])
        reason = str(body[1]) or "rollback"
        try:
            self.database.abort(txn, reason=reason)
        except ReproError as exc:
            return wire.encode_error(exc)
        del conn.txns[txn.txn_id]
        self.slo.record_abort(reason)
        return wire.encode_frame(wire.OP_DONE, self.clock() - started)

    def _work(self, conn, opcode: int, body):
        trace: Optional[str] = None
        if opcode == wire.OP_CALL:
            if len(body) not in (3, 4):
                raise ProtocolError("CALL needs (txn_id, op, args[, trace])")
            txn_id, name, args = body[0], body[1], body[2]
            if not isinstance(args, tuple):
                raise ProtocolError("CALL args must be a tuple")
            if len(body) == 4:
                trace = body[3]
        else:
            if len(body) not in (2, 3):
                raise ProtocolError("QUERY needs (txn_id, path[, trace])")
            txn_id, name, args = body[0], "query", (str(body[1]),)
            if len(body) == 3:
                trace = body[2]
        if trace is not None and not isinstance(trace, str):
            raise ProtocolError("trace context must be a string or None")
        txn, txn_name, _started = self._conn_txn(conn, txn_id)
        if opcode == wire.OP_CALL:
            generator = dispatch_call(self.nodes, txn, str(name), args)
        else:
            generator = self.query.evaluate(txn, args[0])
        tracer = self.database.tracer
        traced = tracer.enabled
        if traced:
            extra = {"trace": trace} if trace is not None else {}
            tracer.emit(
                SPAN_BEGIN, txn=txn_label(txn), cat="rpc", name=name, **extra
            )
        plane = self._plane
        if plane is not None:
            conn.lock_wait_ms = conn.sim_cost_ms = 0.0
        request_t0 = self.clock()
        failure: Optional[Exception] = None
        try:
            value = yield from generator
        except (ReproError, ValueError, TypeError, AttributeError) as exc:
            # Non-Repro failures are bad arguments reaching the kernel
            # (a string where a Splid belongs, ...): the server must
            # report them typed and keep serving, not drop the link.
            failure = exc
        cost_ms = self.clock() - request_t0
        error = None if failure is None else type(failure).__name__
        if traced:
            outcome = {"service_ms": cost_ms} if error is None \
                else {"error": error}
            tracer.emit(
                SPAN_END, txn=txn_label(txn), cat="rpc", name=name,
                **outcome, **extra,
            )
        if plane is not None:
            plane.note_request(
                str(name), cost_ms,
                lock_wait_ms=conn.lock_wait_ms,
                sim_cost_ms=conn.sim_cost_ms,
                txn=txn_label(txn), trace=trace, error=error,
            )
        if failure is not None:
            return self._work_failed(conn, txn, txn_name, failure)
        return wire.encode_frame(wire.OP_RESULT, value, cost_ms)

    def _work_failed(self, conn, txn, txn_name, exc: Exception) -> bytes:
        """Roll back a failed operation's transaction and report typed.

        Transient failures (deadlock victim, lock timeout) additionally
        raise the admission controller's restart pressure until this
        connection commits again -- the coordinator-side bookkeeping of
        PR 5, moved server-side.
        """
        reason = str(getattr(exc, "reason", "") or "")
        if not reason:
            reason = "storage" if isinstance(exc, ReproError) else "error"
        if txn.state is TxnState.ACTIVE:
            try:
                self.database.abort(txn, reason=reason)
            except ReproError:
                # The original failure is the interesting one.  A failed
                # rollback leaves the transaction ACTIVE with its locks
                # held, so it stays on the connection: the client's
                # ABORT (or abandon() on disconnect) can still end it.
                pass
        if txn.state is not TxnState.ACTIVE:
            conn.txns.pop(txn.txn_id, None)
            self.slo.record_abort(reason)
        if is_transient(exc) and self.admission is not None \
                and not conn.in_restart:
            self.admission.enter_restart()
            conn.in_restart = True
        return wire.encode_error(exc)


class LockServer(RequestHandler):
    """The asyncio shell: sockets, handshake, streaming, effect driving."""

    def __init__(
        self,
        database: Database,
        *,
        config: Optional[ServerConfig] = None,
        info: Optional[BibInfo] = None,
    ):
        t0 = time.monotonic()
        super().__init__(
            database, config=config, info=info,
            clock=lambda: (time.monotonic() - t0) * 1000.0,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        # The handler (telemetry plane included) is built synchronously,
        # so from_config works off-loop; the sampler task starts with
        # the server.
        self._sampler_task: Optional[asyncio.Task] = None

    @classmethod
    def from_config(cls, config: ServerConfig) -> "LockServer":
        """Build a server plus its bib workload document from scratch."""
        info = load_bib(config.scale, seed=config.seed)
        database = Database(
            protocol=config.protocol,
            lock_depth=config.lock_depth,
            isolation=config.isolation,
            document=info.document,
            wait_timeout_ms=config.wait_timeout_ms,
            enable_wal=config.enable_wal,
            observability=config.observability,
            escalation_threshold=config.escalation_threshold,
        )
        return cls(database, config=config, info=info)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self._plane is not None and self._sampler_task is None:
            self._sampler_task = asyncio.ensure_future(self._sampler_loop())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _sampler_loop(self) -> None:
        """Close one telemetry window per ``telemetry_window_ms``.

        Doubles as the event-loop lag probe: the sleep's oversleep --
        how late the loop woke us relative to the deadline we asked
        for -- is exactly the scheduling delay every other task saw,
        observed into ``server.loop_lag_ms`` once per window.
        """
        plane = self._plane
        assert plane is not None
        window_s = self.config.telemetry_window_ms / 1000.0
        loop = asyncio.get_running_loop()
        while True:
            target = loop.time() + window_s
            await asyncio.sleep(window_s)
            lag_ms = max(0.0, (loop.time() - target) * 1000.0)
            plane.loop_lag_ms.observe(lag_ms)
            window = plane.series.tick()
            if plane.subscribers:
                plane.publish(window.as_dict())

    @property
    def port(self) -> int:
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = self.connect()
        try:
            await self._serve_connection(conn, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-frame: nothing left to tell it
        except ProtocolError as exc:
            self.protocol_errors += 1
            await self._try_send(writer, wire.encode_error(exc))
        finally:
            self.abandon(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_frame(self, reader) -> Tuple[int, Tuple[Any, ...]]:
        header = await reader.readexactly(4)
        length, _total = wire.split_frame(header)
        payload = await reader.readexactly(length)
        return wire.decode_frame(header + payload)

    async def _try_send(self, writer, frame: bytes) -> None:
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _serve_connection(self, conn, reader, writer) -> None:
        # Handshake first: exactly one HELLO, version-checked.
        try:
            opcode, body = await self._read_frame(reader)
        except asyncio.IncompleteReadError:
            return
        if opcode != wire.OP_HELLO or len(body) != 2:
            raise ProtocolError("expected HELLO (version, client_name)")
        version, client_name = body
        if version != wire.WIRE_VERSION:
            raise UnsupportedWireVersion(
                f"client speaks wire version {version}, "
                f"server speaks {wire.WIRE_VERSION}"
            )
        conn.version = int(version)
        conn.name = str(client_name)
        writer.write(wire.encode_frame(
            wire.OP_WELCOME, wire.WIRE_VERSION, self.server_info()
        ))
        await writer.drain()
        while True:
            try:
                opcode, body = await self._read_frame(reader)
            except asyncio.IncompleteReadError:
                return  # clean EOF between frames
            if opcode == wire.OP_SUBSCRIBE:
                # The one request answered by a frame *stream*, so it
                # cannot go through the one-reply dispatch path.
                self.count(opcode)
                await self._handle_subscribe(writer, body)
                continue
            reply = self.dispatch(conn, opcode, body)
            if not isinstance(reply, bytes):
                reply = await self._drive(reply, conn)
            writer.write(reply)
            await writer.drain()

    async def _handle_subscribe(self, writer, body) -> None:
        """Stream ``max_windows`` WINDOW frames, then DONE.

        Each frame carries one closed window as the sampler ticks it;
        the subscriber queue is bounded, and a consumer too slow to
        drain it skips windows rather than stalling the sampler.
        """
        if len(body) != 1 or not isinstance(body[0], int) \
                or isinstance(body[0], bool):
            raise ProtocolError("SUBSCRIBE needs (max_windows:int)")
        count = body[0]
        if not 1 <= count <= 10_000:
            raise ProtocolError(
                f"SUBSCRIBE max_windows must be in 1..10000, got {count}"
            )
        plane = self._plane
        if plane is None:
            await self._try_send(writer, wire.encode_error(
                ReproError("telemetry is disabled on this server")
            ))
            return
        subscriber = _Subscriber(asyncio.Queue(maxsize=32))
        plane.subscribers.append(subscriber)
        t0 = self.clock()
        try:
            for _ in range(count):
                window_dict = await subscriber.queue.get()
                writer.write(wire.encode_frame(wire.OP_WINDOW, window_dict))
                await writer.drain()
        finally:
            plane.subscribers.remove(subscriber)
        # The DONE frame reports how many windows this stream *lost* to
        # a full queue, so consumers can tell a complete picture from a
        # sampled one.
        writer.write(wire.encode_frame(
            wire.OP_DONE, self.clock() - t0, subscriber.dropped
        ))
        await writer.drain()

    # -- effect driving ------------------------------------------------------

    async def _drive(self, generator, conn: _Connection) -> bytes:
        """Drive one request generator to its reply on the event loop.

        Mirrors :class:`~repro.sched.threaded.ThreadedRuntime._loop`,
        except that cost-model ``Delay``s never sleep (they are
        simulation artifacts; the hardware sets the pace): a ``Pause``
        sleeps its wall milliseconds, and a ``WaitTicket`` parks on an
        :class:`asyncio.Event` that the lock table's grant callback
        sets, honouring the wait timeout.

        ``conn`` collects the request's time attribution for telemetry.
        """
        send_value: Any = None
        throw_value: Optional[BaseException] = None
        while True:
            try:
                if throw_value is not None:
                    error, throw_value = throw_value, None
                    effect = generator.throw(error)
                else:
                    effect = generator.send(send_value)
            except StopIteration as stop:
                return stop.value
            send_value = None
            if isinstance(effect, Pause):
                await asyncio.sleep(effect.ms / 1000.0)
            elif isinstance(effect, Delay):
                conn.sim_cost_ms += effect.ms
            elif isinstance(effect, WaitTicket):
                wait_t0 = self.clock()
                throw_value = await self._await_ticket(effect)
                conn.lock_wait_ms += self.clock() - wait_t0
            else:
                raise SimulationError(f"unexpected effect {effect!r}")

    async def _await_ticket(self, ticket: WaitTicket):
        """Park on a blocked lock request; returns an error to throw."""
        if ticket.granted:
            return None
        event = asyncio.Event()
        ticket.on_grant = lambda _ticket: event.set()
        timeout_s = None
        if ticket.timeout_ms is not None:
            # The database clock is wall milliseconds, so the ticket's
            # timeout is too.
            timeout_s = max(ticket.timeout_ms / 1000.0, 0.001)
        try:
            await asyncio.wait_for(event.wait(), timeout_s)
            return None
        except asyncio.TimeoutError:
            if ticket.granted:
                return None
            if ticket.cancel is not None:
                ticket.cancel()
            from repro.errors import LockTimeout

            return LockTimeout(
                f"lock wait timed out on {ticket.resource} (server)",
                resource=ticket.resource,
                timeout_ms=ticket.timeout_ms,
            )


async def _serve_async(server: LockServer, *, ready=None,
                       max_seconds: Optional[float] = None) -> None:
    host, port = await server.start()
    if ready is not None:
        ready(server, host, port)
    # Graceful shutdown on SIGTERM/SIGINT.  A handler is essential for
    # scripted runs: a process backgrounded by a non-interactive shell
    # (CI smoke jobs) inherits SIGINT ignored, and SIGTERM's default
    # action would skip the final stats report.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without loop signals
    try:
        task = asyncio.ensure_future(server.serve_forever())
        try:
            await asyncio.wait_for(stop.wait(), max_seconds)
        except asyncio.TimeoutError:
            pass  # fixed uptime reached (CI smoke)
        finally:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()


def run_server(config: ServerConfig, *, ready=None,
               max_seconds: Optional[float] = None) -> LockServer:
    """Blocking entry point: build, bind, and serve until interrupted.

    ``ready(server, host, port)`` fires once the socket is bound;
    ``max_seconds`` stops the server after a fixed uptime (CI smoke),
    ``None`` serves until Ctrl-C.  Returns the server (with its final
    stats) after shutdown either way.
    """
    server = LockServer.from_config(config)
    try:
        asyncio.run(_serve_async(server, ready=ready, max_seconds=max_seconds))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return server
