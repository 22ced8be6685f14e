"""ChaosTransport semantics: seeded network faults over the shard wire.

Every fault decision is made coordinator-side, so these tests pin the
observable contract per kind -- how many frames actually reach the inner
transport, that re-sends reuse the same idempotency envelope (the shard
dedups), that crashes fire only at EXEC boundaries, and that a rule-less
schedule leaves the decorator as a pure passthrough.
"""

import pytest

from repro.chaos import ChaosEngine, FaultRule, FaultSchedule
from repro.errors import ShardUnavailableError
from repro.net import wire
from repro.shard import ChaosTransport, SimTransport, messages, shard_config


class SpyTransport:
    """Records every frame delivered to the wrapped transport."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []

    @property
    def shards(self):
        return self.inner.shards

    def request(self, shard_id, frame):
        self.frames.append((shard_id, bytes(frame)))
        return self.inner.request(shard_id, frame)

    def alive(self, shard_id):
        return self.inner.alive(shard_id)

    def kill(self, shard_id):
        self.inner.kill(shard_id)

    def restart(self, shard_id):
        self.inner.restart(shard_id)

    def close(self):
        self.inner.close()


@pytest.fixture
def sim():
    transport = SimTransport(
        [shard_config("taDOM3+", 4, "repeatable", scale=0.02)]
    )
    yield transport
    transport.close()


def wrap(sim, *rules, seed=1):
    spy = SpyTransport(sim)
    engine = ChaosEngine(FaultSchedule(tuple(rules)), seed)
    return ChaosTransport(spy, engine), spy, engine


PING = messages.encode_ping(0.0)


class TestPassthrough:
    def test_ruleless_schedule_delegates_untouched(self, sim):
        chaos, spy, _engine = wrap(sim)
        direct = sim.request(0, PING)
        decorated = chaos.request(0, PING)
        assert decorated == direct
        # The frame went through verbatim: no envelope, one delivery.
        assert spy.frames == [(0, PING)]

    def test_storage_only_schedule_is_inactive(self, sim):
        chaos, spy, _engine = wrap(
            sim, FaultRule("page.read", "transient", probability=1.0)
        )
        chaos.request(0, PING)
        assert spy.frames == [(0, PING)]

    def test_disabled_flag_quiesces_active_schedule(self, sim):
        chaos, spy, engine = wrap(
            sim, FaultRule("net.request", "drop", probability=1.0)
        )
        chaos.enabled = False
        reply = chaos.request(0, PING)
        # The inner transport's reply bytes, forwarded as they are, and
        # not one draw from the engine's fault streams.
        assert reply == sim.request(0, PING)
        assert spy.frames == [(0, PING)]
        assert not any(engine.ops.values())


class TestNetworkFaults:
    def test_dropped_request_is_resent_under_envelope(self, sim):
        chaos, spy, engine = wrap(
            sim, FaultRule("net.request", "drop", at_ops=(1,))
        )
        reply = chaos.request(0, PING)
        opcode, _fields = wire.decode_frame(reply)
        assert opcode == messages.OP_SHARD_INFO
        # Attempt 1 was lost before delivery; only the re-send arrived,
        # wrapped in the idempotency envelope.
        assert len(spy.frames) == 1
        assert messages.opcode_of(spy.frames[0][1]) == messages.OP_SHARD_REQ
        assert engine.faults.get("net.request:drop") == 1

    def test_torn_request_behaves_as_receiver_side_loss(self, sim):
        chaos, spy, engine = wrap(
            sim, FaultRule("net.request", "torn", at_ops=(1,))
        )
        chaos.request(0, PING)
        assert len(spy.frames) == 1
        assert engine.faults.get("net.request:torn") == 1

    def test_duplicate_request_delivers_twice_same_envelope(self, sim):
        chaos, spy, _engine = wrap(
            sim, FaultRule("net.request", "duplicate", at_ops=(1,))
        )
        reply = chaos.request(0, PING)
        opcode, _fields = wire.decode_frame(reply)
        assert opcode == messages.OP_SHARD_INFO
        # Both copies carry the identical request id, so the shard's
        # dedup cache absorbs the second execution.
        assert len(spy.frames) == 2
        assert spy.frames[0] == spy.frames[1]

    def test_lost_reply_resend_hits_dedup_cache(self, sim):
        chaos, spy, engine = wrap(
            sim, FaultRule("net.reply", "drop", at_ops=(1,))
        )
        reply = chaos.request(0, PING)
        opcode, _fields = wire.decode_frame(reply)
        assert opcode == messages.OP_SHARD_INFO
        # The shard executed, the reply vanished, and the re-sent
        # envelope replayed the cached bytes: two deliveries, one id.
        assert len(spy.frames) == 2
        assert spy.frames[0] == spy.frames[1]
        assert engine.faults.get("net.reply:drop") == 1

    def test_total_loss_exhausts_retries_as_unavailable(self, sim):
        chaos, spy, engine = wrap(
            sim, FaultRule("net.request", "drop", probability=1.0)
        )
        with pytest.raises(ShardUnavailableError) as info:
            chaos.request(0, PING)
        assert info.value.shard_id == 0
        assert spy.frames == []  # nothing ever reached the shard
        assert (
            engine.faults["net.request:drop"] == engine.retry.max_attempts
        )

    def test_request_ids_are_deterministic_per_shard(self, sim):
        chaos, spy, _engine = wrap(
            sim, FaultRule("net.reply", "delay", probability=0.0001,
                           latency_ms=1.0)
        )
        chaos.request(0, PING)
        chaos.request(0, PING)
        ids = [
            wire.decode_frame(frame)[1][0] for _sid, frame in spy.frames
        ]
        assert ids == ["s0:1", "s0:2"]


class TestCrashSite:
    def exec_frame(self):
        return messages.encode_exec(
            0.0, "t1", "TAchapter", "repeatable", "noop", ()
        )

    def test_kill_fires_only_on_exec_frames(self, sim):
        chaos, spy, _engine = wrap(
            sim, FaultRule("shard.crash", "kill", probability=1.0)
        )
        # Control frames are never crash points: PING sails through.
        chaos.request(0, PING)
        assert len(spy.frames) == 1
        with pytest.raises(ShardUnavailableError):
            chaos.request(0, self.exec_frame())
        # The frame died before delivery; the supervisor restarted the
        # shard under a fresh epoch.
        assert len(spy.frames) == 1
        assert chaos.supervisor.restart_log == [(0, 1)]
        assert chaos.epoch(0) == 1
        assert sim.alive(0)

    def test_commit_frames_are_never_crash_points(self, sim):
        chaos, spy, _engine = wrap(
            sim, FaultRule("shard.crash", "kill", probability=1.0)
        )
        frame = messages.encode_commit(0.0, "t-unknown")
        opcode, fields = wire.decode_frame(chaos.request(0, frame))
        # Delivered (and answered -- unknown label after a restart).
        assert len(spy.frames) == 1
        assert opcode == messages.OP_SHARD_EXC
        assert fields[0] == "ShardUnavailableError"


class TestDeterminism:
    RULES = (
        FaultRule("net.request", "drop", probability=0.1),
        FaultRule("net.reply", "delay", probability=0.1, latency_ms=2.0),
    )

    def run_once(self, seed):
        transport = SimTransport(
            [shard_config("taDOM3+", 4, "repeatable", scale=0.02)]
        )
        try:
            chaos, _spy, engine = wrap(transport, *self.RULES, seed=seed)
            for _ in range(40):
                chaos.request(0, PING)
            return dict(engine.faults), engine.fingerprint()
        finally:
            transport.close()

    def test_same_seed_same_fault_log(self):
        assert self.run_once(3) == self.run_once(3)


class TestAddCost:
    def test_done_blocked_exc_carry_delay(self):
        done = messages.encode_done("v", 1.0, [], [])
        _op, fields = wire.decode_frame(messages.add_cost(done, 2.5))
        assert fields[1] == 3.5
        blocked = messages.encode_blocked([], False, "n", "k", "X", 1.0,
                                          [], [])
        _op, fields = wire.decode_frame(messages.add_cost(blocked, 2.5))
        assert fields[5] == 3.5
        exc = messages.encode_exc(ValueError("x"), 1.0, [], [])
        _op, fields = wire.decode_frame(messages.add_cost(exc, 2.5))
        assert fields[3] == 3.5

    def test_info_and_zero_delay_pass_through(self):
        info = messages.encode_info({"ok": True})
        assert messages.add_cost(info, 5.0) == info
        done = messages.encode_done("v", 1.0, [], [])
        assert messages.add_cost(done, 0.0) is done
