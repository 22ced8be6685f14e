"""Network-site chaos for the shard plane: a faulty transport decorator.

:class:`ChaosTransport` wraps any shard transport (simulated or process)
and runs every round trip through the chaos engine's network sites:

``net.request``
    Consulted once per delivery attempt.  ``drop`` loses the frame and
    ``torn`` truncates it (the receiver's codec rejects it -- modelled as
    receiver-side loss so a corrupt frame can never wedge a child); both
    accrue the retry policy's backoff as simulated latency and re-send.
    ``duplicate`` delivers the frame twice -- the shard's request-id
    dedup absorbs the second copy.  ``delay`` adds ``latency_ms``.
``net.reply``
    Consulted once per received reply.  ``drop``/``torn`` lose the reply
    after the shard already executed; the re-sent envelope hits the
    shard's reply cache, so the operation still happens at most once.
    ``duplicate`` is absorbed coordinator-side; ``delay`` adds latency.
``shard.crash``
    Consulted once per delivered ``EXEC`` frame (never for commits or
    aborts, so a cross-shard commit is atomic per shard group and the
    committed-history oracle stays sound).  A ``kill`` hands the shard
    to the supervisor -- SIGKILL + WAL restart -- and the in-flight
    request fails with :class:`~repro.errors.ShardUnavailableError`.

Every decision is made coordinator-side by the engine's seeded per-site
RNG streams, so simulated and process transports see byte-identical
fault sequences; all accumulated latency is charged into the reply's
cost field (:func:`repro.shard.messages.add_cost`) and therefore onto
the simulated clock, never the wall clock.  When the schedule has no
network or crash rules the decorator is a single attribute check per
request (the zero-cost-when-disabled contract).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ShardUnavailableError
from repro.shard import messages
from repro.shard.supervisor import ShardSupervisor

#: Fault kinds that lose the frame and force a re-send.
_LOSS_KINDS = ("drop", "torn")


class ChaosTransport:
    """A transport decorator that injects seeded network/process faults."""

    def __init__(self, inner, engine, supervisor: ShardSupervisor = None):
        self.inner = inner
        self.engine = engine
        self.supervisor = (
            supervisor if supervisor is not None else ShardSupervisor(inner)
        )
        self.enabled = True
        self._net_request = engine.wants("net.request")
        self._net_reply = engine.wants("net.reply")
        self._crash = engine.wants("shard.crash")
        self._active = self._net_request or self._net_reply or self._crash
        #: Per-shard request sequence numbers for idempotency envelopes.
        self._seq: Dict[int, int] = {}

    # -- transport interface --------------------------------------------------

    @property
    def shards(self) -> int:
        return self.inner.shards

    def epoch(self, shard_id: int) -> int:
        return self.supervisor.epoch(shard_id)

    def alive(self, shard_id: int) -> bool:
        return self.inner.alive(shard_id)

    def kill(self, shard_id: int) -> None:
        self.inner.kill(shard_id)

    def restart(self, shard_id: int) -> None:
        self.inner.restart(shard_id)

    def close(self) -> None:
        self.inner.close()

    def request(self, shard_id: int, frame: bytes) -> bytes:
        if not (self.enabled and self._active):
            return self.inner.request(shard_id, frame)
        engine = self.engine
        # Crash decisions fire at operation boundaries only: EXEC frames.
        if (
            self._crash
            and messages.opcode_of(frame) == messages.OP_SHARD_EXEC
            and engine.shard_kill(shard_id)
        ):
            epoch = self.supervisor.kill_and_restart(shard_id)
            raise ShardUnavailableError(
                f"shard {shard_id} crashed mid-request "
                f"(restarted as epoch {epoch})",
                shard_id=shard_id,
            )
        if not (self._net_request or self._net_reply):
            return self.inner.request(shard_id, frame)
        return self._faulty_round_trip(shard_id, frame)

    # -- the faulty round trip ------------------------------------------------

    def _faulty_round_trip(self, shard_id: int, frame: bytes) -> bytes:
        """Deliver under the network fault streams, at-most-once.

        The frame travels inside an idempotency envelope with a
        deterministic per-shard request id, so every re-send (dropped
        request, lost reply) and every duplicate is absorbed by the
        shard's reply cache.  Backoff and delay accrue as simulated
        latency charged into the reply's cost field.
        """
        engine = self.engine
        seq = self._seq.get(shard_id, 0) + 1
        self._seq[shard_id] = seq
        envelope = messages.encode_request(f"s{shard_id}:{seq}", frame)
        latency = 0.0
        attempts = engine.retry.max_attempts
        for attempt in range(1, attempts + 1):
            if self._net_request:
                rule = engine.net_request(shard_id)
                if rule is not None:
                    if rule.kind in _LOSS_KINDS:
                        # Lost before the shard saw it: back off, re-send.
                        latency += engine.net_backoff_ms(
                            "net.request", attempt
                        )
                        continue
                    if rule.kind == "delay":
                        latency += rule.latency_ms
                    elif rule.kind == "duplicate":
                        # First copy executes; the reply to it is
                        # superseded by the reply to the second copy,
                        # which the shard serves from its dedup cache.
                        self.inner.request(shard_id, envelope)
            reply = self.inner.request(shard_id, envelope)
            if self._net_reply:
                rule = engine.net_reply(shard_id)
                if rule is not None:
                    if rule.kind in _LOSS_KINDS:
                        # The shard executed but the reply is gone; the
                        # re-sent envelope replays the cached reply.
                        latency += engine.net_backoff_ms(
                            "net.reply", attempt
                        )
                        continue
                    if rule.kind == "delay":
                        latency += rule.latency_ms
                    # A duplicated reply is just discarded on arrival.
            return messages.add_cost(reply, latency)
        raise ShardUnavailableError(
            f"shard {shard_id} unreachable: frame lost "
            f"{attempts} consecutive times",
            shard_id=shard_id,
        )
