"""The shard router: one coordinator-side front for N shards.

:class:`ShardedDatabase` duck-types the single-node
:class:`~repro.database.Database` surface the TaMix coordinator drives
(``begin``/``commit``/``abort``, ``nodes``, ``locks``, ``set_clock``,
``obs``), while every node-manager operation is shipped as an ``EXEC``
frame to the shard owning the target's SPLID range and driven through
the reply protocol of :mod:`repro.shard.messages`.

Lock waits cross the network as ``BLOCKED`` replies.  The router parks
the calling slot on a local :class:`~repro.locking.lock_table.WaitTicket`
mirror, which the deterministic scheduler resumes when a later reply's
``woken`` list names the transaction.  Because there is no global
wait-for graph any more, cross-shard deadlocks are found by
**edge-chasing probes**: on every block the router chases the wait
edges shard by shard (``BLOCKERS`` frames), expanding blockers in
sorted label order, and declares the *initiating* transaction the
victim when a chase returns to it -- the same deterministic
requester-is-victim rule as the local detector, so seeded runs pick
identical victims on every repeat.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.retry import RetryPolicy
from repro.core.registry import get_protocol
from repro.errors import (
    DeadlockAbort,
    LockError,
    LockTimeout,
    ProtocolError,
    ShardUnavailableError,
)
from repro.locking.lock_table import WaitTicket
from repro.net import wire
from repro.net.client import _wire_args
from repro.net.server import NODE_OPS
from repro.obs import DEADLOCK_DETECTED, Observability, TXN_ABORT, TXN_BEGIN, TXN_COMMIT
from repro.obs.metrics import WAIT_TIME_BUCKETS_MS
from repro.locking.lock_manager import IsolationLevel
from repro.sched.simulator import Delay
from repro.shard import messages
from repro.shard.partition import PartitionPlan

#: Consecutive request failures after which the router marks a shard DOWN.
FAILURE_THRESHOLD = 3
#: Paces the heartbeat probes to a DOWN shard.
_PROBE_RETRY = RetryPolicy()


class LogicalTxn:
    """Coordinator-side image of one distributed transaction."""

    __slots__ = (
        "label", "name", "isolation", "started", "participants",
        "epochs",
    )

    def __init__(self, label: str, name: str, isolation: IsolationLevel,
                 started: float):
        self.label = label
        self.name = name
        self.isolation = isolation
        self.started = started
        self.participants: Set[int] = set()
        #: Shard incarnation at enlist time; a participant whose shard
        #: has since restarted holds none of this txn's state any more.
        self.epochs: Dict[int, int] = {}

    def __repr__(self) -> str:
        return f"LogicalTxn({self.label})"


class _WaitEntry:
    """Directory record of one transaction parked on a remote lock."""

    __slots__ = ("label", "shard", "ticket")

    def __init__(self, label: str, shard: int, ticket: WaitTicket):
        self.label = label
        self.shard = shard
        self.ticket = ticket


class _ShardHealth:
    """Router-side failure tracking for one shard (allocated lazily).

    A shard accumulates consecutive request failures; at
    :data:`FAILURE_THRESHOLD` it is marked DOWN and traffic to it is shed
    locally (no network) until a heartbeat probe -- paced by the retry
    policy's backoff on the simulated clock -- finds it answering again.
    """

    __slots__ = ("failures", "down", "probe_attempts", "next_probe_at")

    def __init__(self):
        self.failures = 0
        self.down = False
        self.probe_attempts = 0
        self.next_probe_at = 0.0


class CrossShardDetector:
    """Probe-protocol bookkeeping, shaped like the local detector.

    ``count``/``counts_by_kind`` aggregate the shard-local detectors
    (fetched over ``STATS``) *plus* the cross-shard cycles the probe
    chase found, so the TaMix collector sees one total either way.
    """

    def __init__(self, router: "ShardRouter"):
        self._router = router
        #: (cycle, kind) per cross-shard deadlock, in detection order.
        self.cross_events: List[Tuple[Tuple[str, ...], str]] = []
        #: Total BLOCKERS probe frames sent.
        self.probes_sent = 0

    def record(self, cycle: Tuple[str, ...], kind: str) -> None:
        self.cross_events.append((tuple(cycle), kind))

    def cross_count(self) -> int:
        return len(self.cross_events)

    def count(self) -> int:
        local = sum(
            stats["lock_statistics"]["deadlocks"]
            for stats in self._router.shard_stats()
        )
        return local + len(self.cross_events)

    def counts_by_kind(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for stats in self._router.shard_stats():
            for kind, count in stats["deadlocks_by_kind"].items():
                merged[kind] = merged.get(kind, 0) + int(count)
        for _cycle, kind in self.cross_events:
            merged[kind] = merged.get(kind, 0) + 1
        return merged


class ShardRouter:
    """Routes operations, mirrors waits, and chases deadlock probes."""

    def __init__(
        self,
        plan: PartitionPlan,
        transport,
        document,
        tracer,
        *,
        rtt_ms: float = 0.1,
        wait_timeout_ms: Optional[float] = 10_000.0,
    ):
        self.plan = plan
        self.transport = transport
        self.document = document
        self.tracer = tracer
        self.rtt_ms = float(rtt_ms)
        self.wait_timeout_ms = wait_timeout_ms
        self.clock: Callable[[], float] = lambda: 0.0
        self.detector = CrossShardDetector(self)
        self.messages_sent = 0
        #: Partition awareness.  ``_health`` stays empty on fault-free
        #: runs, so the healthy hot path pays one empty-dict check.
        self._probe_rng = random.Random("shard-probe")
        self._health: Dict[int, _ShardHealth] = {}
        self._epoch_of = getattr(transport, "epoch", lambda _sid: 0)
        self.down_sheds = 0
        self.stale_sheds = 0
        self.partial_commits = 0
        #: Shard legs committed by failed (partially committed) txns.
        self.partial_commit_legs = 0
        self._waiting: Dict[str, _WaitEntry] = {}
        self._active: Dict[str, LogicalTxn] = {}
        #: Element id -> owning shard, from the coordinator replica's id
        #: index.  Unknown (runtime-created) ids route to shard 0, which
        #: is then authoritative for their (absent) index entry.
        self._id_home: Dict[str, int] = {
            id_value: plan.shard_of(document.element_by_id(id_value))
            for id_value in document.id_index.ids()
        }

    # -- transaction registry ----------------------------------------------

    def register(self, txn: LogicalTxn) -> None:
        self._active[txn.label] = txn

    def forget(self, label: str) -> None:
        self._active.pop(label, None)
        self._waiting.pop(label, None)

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- shipping ----------------------------------------------------------

    def route(self, op: str, args: Tuple) -> int:
        if op == "get_element_by_id":
            return self._id_home.get(args[0], 0)
        return self.plan.shard_of(args[0])

    def ship(self, txn: LogicalTxn, op: str, args: Tuple):
        """Generator: run one node-manager operation on its owning shard.

        Yields :class:`Delay`/:class:`WaitTicket` effects exactly like a
        local node-manager operation, so TaMix programs are oblivious to
        the shard boundary.
        """
        shard_id = self.route(op, args)
        self._check_available(shard_id)
        epoch = self._epoch_of(shard_id)
        known = txn.epochs.get(shard_id)
        if known is not None and known != epoch:
            # The shard restarted under this transaction: every effect
            # of its earlier leg died with the old incarnation, so the
            # only sound move is to shed the whole transaction.
            self.stale_sheds += 1
            raise ShardUnavailableError(
                f"{txn.label} leg on shard {shard_id} lost to restart "
                f"(epoch {known} -> {epoch})",
                shard_id=shard_id,
            )
        txn.participants.add(shard_id)
        txn.epochs[shard_id] = epoch
        reply = self._request(shard_id, messages.encode_exec(
            self.clock(), txn.label, txn.name, txn.isolation.value,
            op, _wire_args(op, args),
        ))
        while True:
            opcode, fields = wire.decode_frame(reply)
            if opcode == messages.OP_SHARD_DONE:
                value, cost, woken, events = fields
                self._absorb(shard_id, woken, events)
                yield Delay(float(cost) + self.rtt_ms)
                return value
            if opcode == messages.OP_SHARD_EXC:
                code, message, cycle, cost, woken, events = fields
                self._absorb(shard_id, woken, events)
                yield Delay(float(cost) + self.rtt_ms)
                raise messages.rebuild_exception(code, message, cycle)
            if opcode != messages.OP_SHARD_BLOCKED:
                raise ProtocolError(
                    f"unexpected shard reply opcode 0x{opcode:02x}"
                )
            blockers, is_conv, space, key, mode, cost, woken, events = fields
            self._absorb(shard_id, woken, events)
            ticket = WaitTicket(
                txn=txn, resource=(str(space), str(key)), mode=str(mode),
                is_conversion=bool(is_conv),
            )
            entry = _WaitEntry(txn.label, shard_id, ticket)
            self._waiting[txn.label] = entry
            try:
                # The blocked operation's cost and the reply leg.
                yield Delay(float(cost) + self.rtt_ms)
                if not ticket.granted:
                    cycle, probes, conv = self._probe(txn.label)
                    if probes:
                        yield Delay(probes * self.rtt_ms)
                    if cycle is not None and not ticket.granted:
                        self._abort_victim(
                            txn, shard_id, cycle, conv, str(space), str(key)
                        )
                if not ticket.granted:
                    ticket.timeout_ms = self.wait_timeout_ms
                    try:
                        yield ticket
                    except LockTimeout:
                        self._cancel(
                            txn, shard_id, "timeout",
                            f"{txn.label} lock wait timed out",
                        )
                        raise
            finally:
                self._waiting.pop(txn.label, None)
            reply = self._request(
                shard_id, messages.encode_resume(self.clock(), txn.label)
            )
            yield Delay(self.rtt_ms)

    # -- probe-based deadlock detection ------------------------------------

    def _probe(self, origin: str):
        """Chase wait edges from ``origin``; returns (cycle, probes, conv).

        ``cycle`` is the label tuple of the cycle through ``origin`` (or
        ``None``), discovered by DFS expanding blockers in sorted label
        order -- deterministic, and identical to the local detector's
        search order.  One ``BLOCKERS`` probe per distinct waiting
        transaction reached.
        """
        cache: Dict[str, Tuple[Tuple[str, ...], bool]] = {}
        probes = 0

        def live_blockers(label: str) -> Tuple[Tuple[str, ...], bool]:
            nonlocal probes
            cached = cache.get(label)
            if cached is not None:
                return cached
            entry = self._waiting.get(label)
            if entry is None or entry.ticket.granted:
                result: Tuple[Tuple[str, ...], bool] = ((), False)
            else:
                probes += 1
                self.detector.probes_sent += 1
                try:
                    opcode, fields = wire.decode_frame(self._request(
                        entry.shard,
                        messages.encode_blockers(self.clock(), label),
                    ))
                except ShardUnavailableError:
                    # A dead shard holds no locks: its waiters will be
                    # cancelled by timeout, so the chase treats the edge
                    # as gone rather than wedging the probe.
                    opcode, fields = None, ()
                payload = fields[0] if opcode == messages.OP_SHARD_INFO else {}
                if payload.get("waiting"):
                    result = (
                        tuple(payload["blockers"]),
                        bool(payload["is_conversion"]),
                    )
                else:
                    result = ((), False)
            cache[label] = result
            return result

        first, origin_conv = live_blockers(origin)
        stack = [iter(first)]
        path = [origin]
        conv = [origin_conv]
        visited = {origin}
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                path.pop()
                conv.pop()
                continue
            if nxt == origin:
                return tuple(path), probes, any(conv)
            if nxt in visited:
                continue
            visited.add(nxt)
            blockers, is_conv = live_blockers(nxt)
            path.append(nxt)
            conv.append(is_conv)
            stack.append(iter(blockers))
        return None, probes, False

    def _abort_victim(
        self, txn: LogicalTxn, shard_id: int, cycle: Tuple[str, ...],
        conversion: bool, space: str, key: str,
    ) -> None:
        kind = "conversion" if conversion else "distinct-subtree"
        self.detector.record(cycle, kind)
        if self.tracer.enabled:
            self.tracer.emit(
                DEADLOCK_DETECTED, txn=txn.label, deadlock_kind=kind,
                cycle=list(cycle), resource=key, space=space,
                active_transactions=self.active_count,
                scope="cross-shard", probes=self.detector.probes_sent,
            )
        self._cancel(txn, shard_id, "deadlock", f"{txn.label} is a deadlock victim")
        raise DeadlockAbort(
            f"{txn.label} is a cross-shard deadlock victim", cycle=cycle
        )

    def _cancel(
        self, txn: LogicalTxn, shard_id: int, reason: str, message: str
    ) -> None:
        """Withdraw a parked wait shard-side; unwinds the remote operation."""
        entry = self._waiting.get(txn.label)
        cycle = ()
        try:
            opcode, fields = wire.decode_frame(self._request(
                shard_id,
                messages.encode_cancel(
                    self.clock(), txn.label, reason, message, cycle
                ),
            ))
        except ShardUnavailableError:
            # The wait (and the whole leg) died with the shard; the
            # local mirror is all that is left to mark.
            opcode, fields = None, ()
        if opcode in (messages.OP_SHARD_EXC, messages.OP_SHARD_DONE):
            # EXC: the unwound operation (expected); absorb its trail.
            *_, woken, events = fields
            self._absorb(shard_id, woken, events)
        if entry is not None:
            entry.ticket.cancelled = True

    # -- transaction resolution --------------------------------------------

    def finish(self, txn: LogicalTxn, *, commit: bool, reason: str = "") -> None:
        """Commit or roll back every shard-local leg, in shard order.

        A commit is gated on every participant being up *and* still on
        the epoch the leg enlisted under; otherwise the survivors are
        rolled back and the transaction fails with the transient
        :class:`~repro.errors.ShardUnavailableError` (the restart loop
        re-runs it from scratch).  Aborts are best-effort: a dead or
        restarted participant has already lost the leg.
        """
        if commit and txn.participants:
            self._precommit_check(txn)
        if not commit:
            self._abort_legs(txn, reason)
            self.forget(txn.label)
            return
        committed = 0
        for shard_id in sorted(txn.participants):
            try:
                opcode, fields = wire.decode_frame(self._request(
                    shard_id, messages.encode_commit(self.clock(), txn.label)
                ))
            except ShardUnavailableError:
                opcode, fields = None, ()
            error = None
            if opcode == messages.OP_SHARD_DONE:
                _value, _cost, woken, events = fields
                self._absorb(shard_id, woken, events)
                committed += 1
                continue
            if opcode == messages.OP_SHARD_EXC:
                code, message, cycle, _cost, woken, events = fields
                self._absorb(shard_id, woken, events)
                error = messages.rebuild_exception(code, message, cycle)
            if error is None:
                error = ShardUnavailableError(
                    f"shard {shard_id} unreachable committing {txn.label}",
                    shard_id=shard_id,
                )
            # Roll back the legs not yet committed.  Legs already
            # committed stay committed (crashes never fire on COMMIT
            # frames, so this needs an exhausted retry storm; it is
            # counted so the acceptance oracle can account for it).
            if committed:
                self.partial_commits += 1
                self.partial_commit_legs += committed
            self._abort_legs(
                txn, "shard-unavailable",
                skip={s for s in sorted(txn.participants)[:committed]},
            )
            self.forget(txn.label)
            raise error
        self.forget(txn.label)

    def _precommit_check(self, txn: LogicalTxn) -> None:
        """All participants up and on their enlisted epochs, or shed."""
        stale = None
        for shard_id in sorted(txn.participants):
            try:
                self._check_available(shard_id)
            except ShardUnavailableError as exc:
                stale = exc
                break
            epoch = self._epoch_of(shard_id)
            if txn.epochs.get(shard_id, epoch) != epoch:
                self.stale_sheds += 1
                stale = ShardUnavailableError(
                    f"{txn.label} leg on shard {shard_id} lost to restart",
                    shard_id=shard_id,
                )
                break
        if stale is None:
            return
        self._abort_legs(txn, "shard-unavailable")
        self.forget(txn.label)
        raise stale

    def _abort_legs(
        self, txn: LogicalTxn, reason: str, skip: Optional[Set[int]] = None
    ) -> None:
        """Best-effort ABORT to every (surviving, current-epoch) leg."""
        for shard_id in sorted(txn.participants):
            if skip and shard_id in skip:
                continue
            if txn.epochs.get(shard_id) != self._epoch_of(shard_id):
                continue  # the leg died with the old incarnation
            try:
                opcode, fields = wire.decode_frame(self._request(
                    shard_id,
                    messages.encode_abort(self.clock(), txn.label, reason),
                ))
            except ShardUnavailableError:
                continue
            if opcode == messages.OP_SHARD_DONE:
                _value, _cost, woken, events = fields
                self._absorb(shard_id, woken, events)

    # -- shard statistics ---------------------------------------------------

    def shard_stats(self) -> List[Dict[str, object]]:
        stats = []
        for shard_id in range(self.plan.shards):
            opcode, fields = wire.decode_frame(self._request(
                shard_id, messages.encode_stats(self.clock())
            ))
            if opcode != messages.OP_SHARD_INFO:
                raise ProtocolError("STATS reply must be INFO")
            stats.append(fields[0])
        return stats

    # -- partition awareness -------------------------------------------------

    def _check_available(self, shard_id: int) -> None:
        """Shed traffic to a DOWN shard locally; heartbeat it on schedule.

        Raises :class:`~repro.errors.ShardUnavailableError` while the
        shard is marked DOWN.  Probes are paced by the retry policy's
        backoff on the *simulated* clock, so probing is deterministic
        and a down shard costs nothing between probe points.
        """
        if not self._health:
            return
        health = self._health.get(shard_id)
        if health is None or not health.down:
            return
        now = self.clock()
        if now >= health.next_probe_at and self._heartbeat(shard_id):
            health.down = False
            health.failures = 0
            health.probe_attempts = 0
            return
        self.down_sheds += 1
        raise ShardUnavailableError(
            f"shard {shard_id} is marked down", shard_id=shard_id
        )

    def _heartbeat(self, shard_id: int) -> bool:
        """One PING probe; reschedules the next probe on failure."""
        health = self._health[shard_id]
        self.messages_sent += 1
        try:
            opcode, _fields = wire.decode_frame(
                self.transport.request(
                    shard_id, messages.encode_ping(self.clock())
                )
            )
            return opcode == messages.OP_SHARD_INFO
        except ShardUnavailableError:
            health.probe_attempts += 1
            health.next_probe_at = self.clock() + _PROBE_RETRY.backoff_ms(
                health.probe_attempts, self._probe_rng
            )
            return False

    def _note_shard_failure(self, shard_id: int) -> None:
        health = self._health.get(shard_id)
        if health is None:
            health = self._health[shard_id] = _ShardHealth()
        health.failures += 1
        if not health.down and health.failures >= FAILURE_THRESHOLD:
            health.down = True
            health.probe_attempts = 1
            health.next_probe_at = self.clock() + _PROBE_RETRY.backoff_ms(
                1, self._probe_rng
            )

    # -- internals ----------------------------------------------------------

    def _request(self, shard_id: int, frame: bytes) -> bytes:
        self.messages_sent += 1
        try:
            reply = self.transport.request(shard_id, frame)
        except ShardUnavailableError:
            self._note_shard_failure(shard_id)
            raise
        if self._health:
            health = self._health.get(shard_id)
            if health is not None and not health.down:
                health.failures = 0
        return reply

    def _absorb(
        self, shard_id: int, woken: Sequence[str], events: Sequence[Dict]
    ) -> None:
        """Re-emit shipped trace events; fire local mirrors of grants."""
        if self.tracer.enabled:
            for event in events:
                self.tracer.emit(
                    event["kind"], txn=event["txn"], **event["data"]
                )
        for label in woken:
            entry = self._waiting.get(label)
            if (
                entry is not None
                and entry.shard == shard_id
                and not entry.ticket.granted
            ):
                entry.ticket._fire()


class ShardedNodeManager:
    """Node-manager facade whose operations run on their owning shard."""

    def __init__(self, router: ShardRouter, document):
        self._router = router
        self.document = document


def _make_op(name: str):
    def op(self, txn, *args):
        return self._router.ship(txn, name, args)

    op.__name__ = name
    op.__qualname__ = f"ShardedNodeManager.{name}"
    op.__doc__ = f"Ship ``{name}`` to the shard owning its target."
    return op


for _name in sorted(NODE_OPS):
    setattr(ShardedNodeManager, _name, _make_op(_name))


class _MergedHistogram:
    """Read-only merge of the shards' wait-time histograms."""

    def __init__(self, router: ShardRouter):
        self._router = router

    def as_dict(self) -> Dict[str, object]:
        merged_buckets: Dict[str, int] = {
            f"le_{b:g}": 0 for b in WAIT_TIME_BUCKETS_MS
        }
        merged_buckets["le_inf"] = 0
        count = 0
        total = 0.0
        peak = 0.0
        for stats in self._router.shard_stats():
            histogram = stats["wait_histogram"]
            count += int(histogram["count"])
            total += float(histogram["total"])
            peak = max(peak, float(histogram["max"]))
            for bucket, value in histogram["buckets"].items():
                merged_buckets[bucket] = (
                    merged_buckets.get(bucket, 0) + int(value)
                )
        return {
            "count": count,
            "total": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "max": round(peak, 6),
            "buckets": merged_buckets,
        }


class _ShardedLockFacade:
    """The ``database.locks`` surface the TaMix collector reads."""

    def __init__(self, router: ShardRouter):
        self._router = router
        self.detector = router.detector
        self.wait_histogram = _MergedHistogram(router)

    def lock_statistics(self) -> Dict[str, int]:
        merged = {
            "requests": 0, "instant_grants": 0, "waits": 0,
            "conversions": 0, "deadlocks": 0, "timeouts": 0,
        }
        for stats in self._router.shard_stats():
            for field, value in stats["lock_statistics"].items():
                merged[field] = merged.get(field, 0) + int(value)
        merged["deadlocks"] += self.detector.cross_count()
        return merged

    def wait_statistics(self) -> Dict[str, float]:
        count = 0.0
        total = 0.0
        peak = 0.0
        for stats in self._router.shard_stats():
            shard_waits = stats["wait_statistics"]
            count += float(shard_waits["count"])
            total += float(shard_waits["total_ms"])
            peak = max(peak, float(shard_waits["max_ms"]))
        return {
            "count": count,
            "total_ms": total,
            "mean_ms": total / count if count else 0.0,
            "max_ms": peak,
        }


class ShardedDatabase:
    """N shards behind the single-node ``Database`` driving surface."""

    def __init__(
        self,
        plan: PartitionPlan,
        transport,
        info,
        *,
        protocol: str,
        isolation="repeatable",
        observability=None,
        rtt_ms: float = 0.1,
        wait_timeout_ms: Optional[float] = 10_000.0,
    ):
        self.plan = plan
        self.protocol = get_protocol(protocol)
        self.default_isolation = IsolationLevel.parse(isolation)
        if observability is None or observability is False:
            self.obs = Observability.disabled()
        elif observability is True:
            self.obs = Observability.enabled()
        else:
            self.obs = observability
        self.document = info.document
        self.router = ShardRouter(
            plan, transport, info.document, self.obs.tracer,
            rtt_ms=rtt_ms, wait_timeout_ms=wait_timeout_ms,
        )
        self.nodes = ShardedNodeManager(self.router, info.document)
        self.locks = _ShardedLockFacade(self.router)
        self._clock: Callable[[], float] = lambda: 0.0
        self._begun = 0
        self.committed = 0
        #: Shard legs committed by successful transactions (durability
        #: accounting: one WAL COMMIT record per leg).
        self.leg_commits = 0
        self.aborted = 0
        self.aborted_by_reason: Dict[str, int] = {}

    @property
    def tracer(self):
        return self.obs.tracer

    @property
    def shards(self) -> int:
        return self.plan.shards

    @property
    def active_count(self) -> int:
        return self.router.active_count

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.router.clock = clock
        self.obs.bind_clock(clock)

    # -- transaction lifecycle (coordinator-owned) --------------------------

    def begin(self, name: str = "txn", isolation=None) -> LogicalTxn:
        level = (
            self.default_isolation if isolation is None
            else IsolationLevel.parse(isolation)
        )
        if level is IsolationLevel.SERIALIZABLE and not (
            self.protocol.supports_serializable
        ):
            raise LockError(
                f"isolation level serializable is only offered by the "
                f"taDOM protocols, not {self.protocol.name}"
            )
        self._begun += 1
        txn = LogicalTxn(
            f"T{self._begun}:{name}", name, level, self._clock()
        )
        self.router.register(txn)
        if self.tracer.enabled:
            self.tracer.emit(
                TXN_BEGIN, txn=txn.label, name=name, isolation=level.value,
            )
        return txn

    def commit(self, txn: LogicalTxn) -> None:
        try:
            self.router.finish(txn, commit=True)
        except ShardUnavailableError:
            # The router already rolled back the surviving legs; record
            # the abort here so accounting matches the trace, then let
            # the transient error reach the restart loop.
            self.aborted += 1
            reason = "shard-unavailable"
            self.aborted_by_reason[reason] = (
                self.aborted_by_reason.get(reason, 0) + 1
            )
            self.obs.metrics.counter("txn.aborted").inc()
            self.obs.metrics.counter(f"txn.aborted.{reason}").inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    TXN_ABORT, txn=txn.label, name=txn.name, reason=reason,
                    duration_ms=round(self._clock() - txn.started, 6),
                )
            raise
        self.committed += 1
        self.leg_commits += len(txn.participants)
        self.obs.metrics.counter("txn.committed").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                TXN_COMMIT, txn=txn.label, name=txn.name,
                duration_ms=round(self._clock() - txn.started, 6),
            )

    def abort(self, txn: LogicalTxn, *, reason: str = "rollback") -> None:
        self.router.finish(txn, commit=False, reason=reason)
        self.aborted += 1
        self.aborted_by_reason[reason] = (
            self.aborted_by_reason.get(reason, 0) + 1
        )
        self.obs.metrics.counter("txn.aborted").inc()
        self.obs.metrics.counter(f"txn.aborted.{reason}").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                TXN_ABORT, txn=txn.label, name=txn.name, reason=reason,
                duration_ms=round(self._clock() - txn.started, 6),
            )

    def abort_in_flight(self, *, reason: str = "rollback") -> int:
        """Roll back every still-active transaction (run-horizon sweep).

        Returns the number of transactions aborted.  Used by the chaos
        acceptance runner so the recovery oracle compares *committed*
        state only.
        """
        labels = list(self.router._active)
        for label in labels:
            txn = self.router._active.get(label)
            if txn is not None:
                self.abort(txn, reason=reason)
        return len(labels)
