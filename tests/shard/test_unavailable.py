"""The transient/permanent taxonomy of shard failures.

``ShardUnavailableError`` is the single currency for "this shard cannot
answer right now": transport timeouts, dead processes, exhausted network
retries, and state lost in a restart all surface as it.  It must be
*transient* -- the TaMix retry loop restarts the transaction instead of
failing the run -- and it must survive the wire round trip typed.  The
router side turns repeated failures into a DOWN mark with probe-based
re-admission, shedding traffic locally in between.
"""

import pytest

from repro.chaos import load_schedule, run_chaos
from repro.errors import ReproError, ShardUnavailableError, TransientError
from repro.net import wire
from repro.shard import build_sharded_cluster, messages
from repro.shard.router import FAILURE_THRESHOLD


class TestTaxonomy:
    def test_is_transient_and_typed(self):
        error = ShardUnavailableError("shard 3 crashed", shard_id=3)
        assert isinstance(error, TransientError)
        assert isinstance(error, ReproError)
        assert error.reason == "shard-unavailable"
        assert error.shard_id == 3

    def test_defaults(self):
        error = ShardUnavailableError()
        assert str(error) == "shard unavailable"
        assert error.shard_id is None

    def test_survives_the_shard_wire_typed(self):
        rebuilt = messages.rebuild_exception(
            "ShardUnavailableError", "leg lost in restart", ()
        )
        assert isinstance(rebuilt, ShardUnavailableError)
        assert isinstance(rebuilt, TransientError)
        assert rebuilt.reason == "shard-unavailable"

    def test_survives_the_client_wire_typed(self):
        frame = wire.encode_error(ShardUnavailableError("gone"))
        opcode, body = wire.decode_frame(frame)
        assert opcode == wire.OP_ERROR
        rebuilt = wire.decode_error(body)
        assert isinstance(rebuilt, ShardUnavailableError)
        assert isinstance(rebuilt, TransientError)


class TestRouterPartitionAwareness:
    @pytest.fixture
    def cluster(self):
        built = build_sharded_cluster("taDOM3+", shards=2, scale=0.02)
        yield built
        built.close()

    def test_failure_threshold_marks_down_then_probe_readmits(
        self, cluster
    ):
        router = cluster.database.router
        transport = cluster.transport
        transport.kill(0)

        # Each failed request is noted; at the threshold the shard is
        # marked DOWN with a scheduled probe point.
        for _ in range(FAILURE_THRESHOLD):
            with pytest.raises(ShardUnavailableError):
                router._request(0, messages.encode_ping(0.0))
        health = router._health[0]
        assert health.down
        assert health.next_probe_at > 0.0

        # While DOWN and before the probe point, traffic is shed
        # locally -- the dead shard sees no frames at all.
        with pytest.raises(ShardUnavailableError):
            router._check_available(0)
        assert router.down_sheds == 1

        # After recovery, the next scheduled heartbeat re-admits it.
        transport.restart(0)
        probe_at = health.next_probe_at
        router.clock = lambda: probe_at + 1.0
        router._check_available(0)
        assert not health.down
        assert health.failures == 0
        router._request(0, messages.encode_ping(0.0))

    def test_failed_probe_backs_off_and_stays_down(self, cluster):
        router = cluster.database.router
        cluster.transport.kill(1)
        for _ in range(FAILURE_THRESHOLD):
            with pytest.raises(ShardUnavailableError):
                router._request(1, messages.encode_ping(0.0))
        health = router._health[1]
        probe_at = health.next_probe_at
        router.clock = lambda: probe_at + 1.0
        with pytest.raises(ShardUnavailableError):
            router._check_available(1)
        assert health.down
        assert health.next_probe_at > probe_at  # rescheduled, later
        assert router.down_sheds == 1

    def test_success_resets_the_failure_count(self, cluster):
        router = cluster.database.router
        cluster.transport.kill(0)
        with pytest.raises(ShardUnavailableError):
            router._request(0, messages.encode_ping(0.0))
        assert router._health[0].failures == 1
        cluster.transport.restart(0)
        router._request(0, messages.encode_ping(0.0))
        assert router._health[0].failures == 0
        assert not router._health[0].down


class TestRunAccounting:
    def test_crash_aborts_are_typed_and_retried(self):
        report = run_chaos(
            load_schedule("shard-kill"), seed=7, shards=2, scale=0.05,
            run_duration_ms=4_000.0,
        )
        assert report.ok, report.violations
        # The kill aborted at least one in-flight transaction with the
        # transient reason, and the retry loop restarted work rather
        # than failing the run.
        assert report.result.aborted_by_kind.get("shard-unavailable", 0) > 0
        assert report.restarts > 0
        assert report.committed > 0
        row_kinds = report.result.aborted_by_kind
        assert all(isinstance(kind, str) for kind in row_kinds)
