"""One shard: a full database stack behind a message interface.

A :class:`ShardServer` owns a complete replica stack -- document,
buffer pool, WAL, lock manager, node manager -- and executes the
node-manager operations the router ships to it.  Operations arrive as
``EXEC`` frames, are driven synchronously until they finish, park on a
lock wait, or raise, and answer with ``DONE``/``BLOCKED``/``EXC``.

Determinism contract: a shard has **no clock and no scheduler of its
own**.  Every request carries the coordinator's simulated time, the
shard processes exactly one message at a time, and simulated cost
(:class:`~repro.sched.simulator.Delay` effects yielded by the operation)
is *accumulated and reported* in the reply rather than slept on -- the
router charges it on the coordinator's timeline.  Lock waits likewise
belong to the router: a parked ticket is resolved only by a later
``RESUME`` (after the router observed the grant) or ``CANCEL`` (timeout
or cross-shard deadlock victim).

Each replica is a private copy of the document generated from the
generator seed (:func:`~repro.tamix.bibgen.load_bib`), so every shard
holds a structurally identical document; the partition plan makes a shard
authoritative for its own SPLID range, and the router never reads or
writes a range on a non-owning shard.

Transaction lifecycle events (``txn.begin``/``commit``/``abort``) are
coordinator-owned: the shard's transaction manager is muted, shard-local
transactions are lazily begun on first touch, and their labels are
patched to the coordinator's global labels so lock and access events
merge into one coherent history.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.database import Database
from repro.errors import (
    DeadlockAbort,
    LockTimeout,
    ProtocolError,
    ReproError,
    ShardUnavailableError,
)
from repro.locking.lock_table import WaitTicket
from repro.net import wire
from repro.net.server import dispatch_call
from repro.obs import Observability
from repro.obs.events import txn_label
from repro.obs.tracer import NULL_TRACER, RingTracer
from repro.sched.simulator import Delay
from repro.shard import messages
from repro.tamix.bibgen import load_bib


class OutboxTracer(RingTracer):
    """A ring tracer that also queues every event for shipping.

    The shard's instrumentation sites (lock manager, node manager,
    buffer pool) emit into this tracer exactly as they would into a
    local ring; the server drains the outbox into each reply and the
    router re-emits the events into the coordinator's tracer, which
    re-stamps sequence numbers on the merged timeline.
    """

    def __init__(self, capacity: Optional[int] = 4096):
        super().__init__(capacity)
        self.outbox: List[Dict[str, object]] = []

    def emit(self, kind: str, txn: Optional[str] = None, **data: object) -> None:
        super().emit(kind, txn=txn, **data)
        event = self._ring[-1]
        self.outbox.append(
            {"kind": event.kind, "txn": event.txn, "data": dict(event.data)}
        )

    def drain(self) -> List[Dict[str, object]]:
        out, self.outbox = self.outbox, []
        return out


class _TxnState:
    """Shard-local leg of one coordinator transaction."""

    __slots__ = ("txn", "gen", "ticket", "cost")

    def __init__(self, txn):
        self.txn = txn
        self.gen = None        # in-flight operation generator
        self.ticket = None     # parked WaitTicket while blocked
        self.cost = 0.0        # accumulated Delay ms since the last reply


class ShardServer:
    """Executes shard messages against one replica stack.

    ``config`` keys: ``protocol``, ``lock_depth``, ``isolation``,
    ``scale``, ``doc_seed``, ``wait_timeout_ms``, ``escalation_threshold``,
    ``tracing``, ``access_events``, ``wal_path``.  The dict is
    primitive-only so process transports can pickle or wire-ship it.

    With a ``wal_path`` the shard is durable against its own death: it
    opens that file at start (replaying what a previous incarnation
    committed), appends each commit's records to it before the commit
    reply, and closes it on ``SHUTDOWN``.
    """

    #: Bound on the idempotent-reply cache (see ``handle``).
    REPLY_CACHE_SIZE = 512

    def __init__(self, shard_id: int, config: Dict[str, object]):
        self.shard_id = int(shard_id)
        self.now = 0.0
        self.stopped = False
        self.tracer: Optional[OutboxTracer] = (
            OutboxTracer() if config.get("tracing") else None
        )
        obs = Observability(
            tracer=self.tracer,
            access_events=bool(config.get("access_events")),
        )
        self._scale = float(config.get("scale", 0.1))
        self._doc_seed = int(config.get("doc_seed", 2006))
        info = load_bib(self._scale, seed=self._doc_seed)
        self.info = info
        #: The append-only file behind ``db.wal``; ``None`` for a shard
        #: without a ``wal_path``, which never touches a file.
        self._wal_file = None
        self.recovered = False
        document = info.document
        if config.get("wal_path"):
            document = self._recover_document(
                str(config["wal_path"]), info.document
            )
        self.db = Database(
            protocol=str(config["protocol"]),
            lock_depth=int(config["lock_depth"]),
            isolation=str(config.get("isolation", "repeatable")),
            document=document,
            wait_timeout_ms=config.get("wait_timeout_ms", 10_000.0),
            enable_wal=True,
            observability=obs,
            escalation_threshold=config.get("escalation_threshold"),
        )
        if self._wal_file is not None:
            # The file's log (empty on a cold start) must keep
            # accumulating so a *second* crash replays the full committed
            # history.
            self.db.adopt_wal(self._wal_file.log)
        # The coordinator owns the transaction lifecycle events.
        self.db.transactions.tracer = NULL_TRACER
        self.db.set_clock(lambda: self.now)
        self._txns: Dict[str, _TxnState] = {}
        self._woken: List[str] = []
        self._replies: "OrderedDict[str, bytes]" = OrderedDict()

    def _recover_document(self, wal_path: str, pristine):
        """Open the WAL file and rebuild the state it holds, if any.

        Returns the redo-recovered document, or ``pristine`` on a cold
        start (no file yet, or an empty one).  Only committed
        transactions are replayed: records past the last commit-time
        flush never reached the file, and a record the kill cut short is
        truncated away by :meth:`~repro.txn.wal.WalFile.open` -- exactly
        the crash contract.  A file that exists but cannot be opened
        raises :class:`~repro.errors.StorageError` and the shard does
        not start.
        """
        from repro.txn.transaction import Transaction
        from repro.txn.wal import WalFile, recover, take_checkpoint

        self._wal_file = WalFile.open(wal_path)
        log = self._wal_file.log
        if not len(log):
            return pristine
        base = take_checkpoint(pristine)  # lsn 0: replay from the origin
        document = recover(base, log)
        # The txn-id counter is process-global and resets in a forked
        # replacement process; push it past every recovered id so new
        # transactions never collide with committed winners in the log.
        max_id = max((record.txn_id for record in log.records()), default=0)
        Transaction._counter = max(Transaction._counter, max_id)
        self.recovered = True
        return document

    # -- message entry point ------------------------------------------------

    def handle(self, data: bytes) -> bytes:
        opcode, fields = wire.decode_frame(data)
        if opcode == messages.OP_SHARD_REQ:
            request_id = str(fields[0])
            cached = self._replies.get(request_id)
            if cached is not None:
                return cached
            inner_op, inner_fields = wire.decode_frame(bytes(fields[1]))
            reply = self._dispatch(inner_op, inner_fields)
            self._replies[request_id] = reply
            while len(self._replies) > self.REPLY_CACHE_SIZE:
                self._replies.popitem(last=False)
            return reply
        return self._dispatch(opcode, fields)

    def _dispatch(self, opcode: int, fields) -> bytes:
        handler = self._HANDLERS.get(opcode)
        if handler is None:
            return self._error(
                ProtocolError(f"unknown shard opcode 0x{opcode:02x}")
            )
        try:
            return handler(self, fields)
        except ReproError as exc:
            return self._error(exc)

    # -- request handlers ---------------------------------------------------

    def _handle_exec(self, fields) -> bytes:
        now, label, name, isolation, op, args = fields
        self.now = float(now)
        label = str(label)
        state = self._txns.get(label)
        if state is None:
            txn = self.db.begin(str(name), str(isolation))
            txn.label = label  # global label; shard events carry it
            state = _TxnState(txn)
            self._txns[label] = state
        if state.gen is not None:
            return self._error(
                ProtocolError(f"{label} already has an operation in flight")
            )
        state.cost = 0.0
        state.gen = dispatch_call(self.db.nodes, state.txn, str(op), tuple(args))
        return self._advance(state)

    def _handle_resume(self, fields) -> bytes:
        now, label = fields
        self.now = float(now)
        state = self._txns.get(str(label))
        if state is None:
            # A restart between the grant and the RESUME lost the leg.
            return self._error(ShardUnavailableError(
                f"{label} lost in shard {self.shard_id} restart",
                shard_id=self.shard_id,
            ))
        if state.gen is None or state.ticket is None:
            return self._error(ProtocolError(f"{label} has no parked wait"))
        if not state.ticket.granted:
            return self._error(ProtocolError(f"{label} resumed but not granted"))
        state.ticket = None
        return self._advance(state)

    def _handle_cancel(self, fields) -> bytes:
        now, label, reason, message, cycle = fields
        self.now = float(now)
        state = self._txns.get(str(label))
        if state is None:
            # Idempotent: the parked leg died with a restarted shard, so
            # there is nothing left to withdraw.
            return messages.encode_done(
                None, 0.0, self._drain_woken(), self._drain_events()
            )
        if state.gen is None or state.ticket is None:
            return self._error(ProtocolError(f"{label} has no parked wait"))
        ticket = state.ticket
        state.ticket = None
        if str(reason) == "deadlock":
            self.db.locks.table.cancel_wait(state.txn)
            error: ReproError = DeadlockAbort(str(message), cycle=tuple(cycle))
        else:
            if ticket.cancel is not None:
                # Counts the timeout and withdraws the request.
                ticket.cancel()
            else:
                self.db.locks.table.cancel_wait(state.txn)
            error = LockTimeout(
                str(message), resource=ticket.resource,
                timeout_ms=ticket.timeout_ms,
            )
        return self._advance(state, throw=error)

    def _handle_commit(self, fields) -> bytes:
        now, label = fields
        self.now = float(now)
        state = self._txns.pop(str(label), None)
        if state is None:
            # The leg's effects were in memory only and died with the
            # old process: committing would silently lose writes, so the
            # coordinator must treat the transaction as aborted.
            return self._error(ShardUnavailableError(
                f"{label} lost in shard {self.shard_id} restart",
                shard_id=self.shard_id,
            ))
        if state.gen is not None:
            self._txns[str(label)] = state
            return self._error(
                ProtocolError(f"{label} cannot commit mid-operation")
            )
        self.db.commit(state.txn)
        if self._wal_file is not None:
            # Commit-time barrier: the reply leaves only after this
            # transaction's records are in the file.  A crash between
            # commits loses only records since the last flush -- all of
            # them belonging to uncommitted transactions.
            self._wal_file.flush()
        return messages.encode_done(
            None, 0.0, self._drain_woken(), self._drain_events()
        )

    def _handle_abort(self, fields) -> bytes:
        now, label, reason = fields
        self.now = float(now)
        state = self._txns.pop(str(label), None)
        if state is None:
            # Idempotent: an unknown leg (lost in a restart, or already
            # rolled back) is exactly the state an abort asks for.
            return messages.encode_done(
                None, 0.0, self._drain_woken(), self._drain_events()
            )
        if state.gen is not None:
            # Aborted while an operation is still parked (run horizon or
            # a hard router-side failure): withdraw the wait and unwind.
            if state.ticket is not None and not state.ticket.granted:
                self.db.locks.table.cancel_wait(state.txn)
            state.ticket = None
            state.gen.close()
            state.gen = None
        self.db.abort(state.txn, reason=str(reason))
        return messages.encode_done(
            None, 0.0, self._drain_woken(), self._drain_events()
        )

    def _handle_blockers(self, fields) -> bytes:
        now, label = fields
        self.now = float(now)
        state = self._txns.get(str(label))
        ticket = (
            self.db.locks.table.waiting_ticket(state.txn)
            if state is not None else None
        )
        if ticket is None:
            return messages.encode_info(
                {"waiting": False, "blockers": [], "is_conversion": False}
            )
        blockers = sorted(
            txn_label(t) for t in self.db.locks.table.blockers_of(ticket)
        )
        return messages.encode_info({
            "waiting": True,
            "blockers": blockers,
            "is_conversion": bool(ticket.is_conversion),
        })

    def _handle_stats(self, fields) -> bytes:
        (now,) = fields
        self.now = float(now)
        locks = self.db.locks
        return messages.encode_info({
            "shard": self.shard_id,
            "lock_statistics": locks.lock_statistics(),
            "wait_statistics": locks.wait_statistics(),
            "wait_histogram": locks.wait_histogram.as_dict(),
            "deadlocks_by_kind": locks.detector.counts_by_kind(),
            "lock_count": locks.table.lock_count(),
            **self._wal_counters(),
        })

    def _wal_counters(self) -> Dict[str, int]:
        """What this incarnation wrote to its WAL file (zeros without
        one); equal to the file size when there was no restart."""
        wal_file = self._wal_file
        return {
            "wal_bytes_written": wal_file.bytes_written if wal_file else 0,
            "wal_writes": wal_file.writes if wal_file else 0,
        }

    def close(self) -> None:
        """Release the WAL file handle, as process exit would."""
        if self._wal_file is not None:
            self._wal_file.close()

    def _handle_shutdown(self, fields) -> bytes:
        self.stopped = True
        self.close()
        return messages.encode_info({"shard": self.shard_id, "stopped": True})

    def _handle_ping(self, fields) -> bytes:
        (now,) = fields
        self.now = float(now)
        return messages.encode_info({
            "shard": self.shard_id, "ok": True, "recovered": self.recovered,
        })

    def _handle_snapshot(self, fields) -> bytes:
        """Recovery-oracle snapshot: digest the live document against a
        fault-free redo of this shard's full WAL over a pristine replica.

        The two digests agree exactly when redo recovery is sound for
        the history this shard executed (the single-node chaos runner
        makes the same check in-process); ``commits_in_wal`` lets the
        coordinator cross-check its committed-transaction count.
        """
        from repro.txn.wal import LogKind, recover, take_checkpoint
        from repro.verify import canonical_image

        (now,) = fields
        self.now = float(now)
        pristine = load_bib(self._scale, seed=self._doc_seed)
        base = take_checkpoint(pristine.document)
        replayed = recover(base, self.db.wal)
        commits = sum(
            1 for record in self.db.wal.records()
            if record.kind is LogKind.COMMIT
        )
        return messages.encode_info({
            "shard": self.shard_id,
            "live_image": hashlib.sha256(
                canonical_image(self.db.document)).hexdigest(),
            "replayed_image": hashlib.sha256(
                canonical_image(replayed)).hexdigest(),
            "commits_in_wal": commits,
            "wal_records": len(self.db.wal),
            **self._wal_counters(),
            "recovered": self.recovered,
            "open_legs": sorted(self._txns),
        })

    _HANDLERS = {
        messages.OP_SHARD_EXEC: _handle_exec,
        messages.OP_SHARD_RESUME: _handle_resume,
        messages.OP_SHARD_CANCEL: _handle_cancel,
        messages.OP_SHARD_COMMIT: _handle_commit,
        messages.OP_SHARD_ABORT: _handle_abort,
        messages.OP_SHARD_BLOCKERS: _handle_blockers,
        messages.OP_SHARD_STATS: _handle_stats,
        messages.OP_SHARD_SHUTDOWN: _handle_shutdown,
        messages.OP_SHARD_PING: _handle_ping,
        messages.OP_SHARD_SNAPSHOT: _handle_snapshot,
    }

    # -- the operation stepper ----------------------------------------------

    def _advance(self, state: _TxnState, *, throw: Optional[ReproError] = None) -> bytes:
        """Drive the in-flight operation to its next boundary."""
        gen = state.gen
        try:
            effect = gen.throw(throw) if throw is not None else gen.send(None)
            while True:
                if isinstance(effect, Delay):
                    state.cost += float(effect.ms)
                elif isinstance(effect, WaitTicket):
                    if not effect.granted:
                        return self._blocked(state, effect)
                else:
                    raise ProtocolError(
                        f"unexpected effect {effect!r} from shard operation"
                    )
                effect = gen.send(None)
        except StopIteration as stop:
            state.gen = None
            state.ticket = None
            return messages.encode_done(
                stop.value, self._take_cost(state),
                self._drain_woken(), self._drain_events(),
            )
        except ReproError as exc:
            state.gen = None
            state.ticket = None
            return messages.encode_exc(
                exc, self._take_cost(state),
                self._drain_woken(), self._drain_events(),
            )

    def _blocked(self, state: _TxnState, ticket: WaitTicket) -> bytes:
        state.ticket = ticket
        label = state.txn.label
        # Fires during a *later* message (release/cancel of a holder);
        # the wake is reported in that message's reply.
        ticket.on_grant = lambda _t, _label=label, _s=self: (
            _s._woken.append(_label)
        )
        blockers = sorted(
            txn_label(t) for t in self.db.locks.table.blockers_of(ticket)
        )
        space, key = ticket.resource
        return messages.encode_blocked(
            blockers, ticket.is_conversion, str(space), str(key), ticket.mode,
            self._take_cost(state), self._drain_woken(), self._drain_events(),
        )

    # -- reply plumbing -----------------------------------------------------

    def _error(self, exc: ReproError) -> bytes:
        return messages.encode_exc(
            exc, 0.0, self._drain_woken(), self._drain_events()
        )

    def _take_cost(self, state: _TxnState) -> float:
        cost, state.cost = state.cost, 0.0
        return cost

    def _drain_woken(self) -> List[str]:
        woken, self._woken = self._woken, []
        return woken

    def _drain_events(self) -> List[Dict[str, object]]:
        return self.tracer.drain() if self.tracer is not None else []
