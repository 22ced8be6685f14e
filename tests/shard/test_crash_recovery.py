"""Supervised shard crash/restart: WAL recovery and the acceptance bar.

The `shard-kill` builtin schedule SIGKILLs (or, on the simulated
transport, discards) a shard mid-run and sprinkles request drops and
reply delays on top.  These tests hold the full crash runner to the
Jepsen-style bar -- committed history passes the oracle, every shard's
recovered document equals a fault-free replay of its WAL, accounting
balances, nothing leaks -- and pin that the whole thing is reproducible
bit-for-bit across repeats and across the sim/process transports.
"""

import multiprocessing

import pytest

from repro.chaos import FaultRule, FaultSchedule, load_schedule
from repro.net import wire
from repro.shard import build_sharded_cluster, messages
from repro.shard.chaosrun import run_shard_chaos
from repro.tamix.cluster import CLUSTER1_MIX
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator


def crash_run(transport="sim", seed=7):
    return run_shard_chaos(
        load_schedule("shard-kill"), seed=seed, shards=2, scale=0.05,
        run_duration_ms=4_000.0, transport=transport,
    )


@pytest.fixture(scope="module")
def sim_report():
    return crash_run()


class TestAcceptance:
    def test_crash_run_passes_all_oracles(self, sim_report):
        report = sim_report
        assert report.ok, report.violations
        assert report.oracle_ok and report.accesses_checked > 0
        assert report.recovery_ok
        assert report.committed > 0

    def test_the_kill_actually_fired_and_was_recovered(self, sim_report):
        report = sim_report
        assert report.faults.get("shard.crash:kill", 0) >= 1
        assert report.shard_restarts, "no supervised restart happened"
        for snapshot in report.shard_snapshots:
            assert snapshot["live_image"] == snapshot["replayed_image"]

    def test_wal_commit_accounting_balances(self, sim_report):
        report = sim_report
        assert not any("COMMIT records" in v for v in report.violations)
        if report.partial_commits == 0:
            # No partially-committed cross-shard group: the WALs hold
            # exactly one COMMIT per committed leg, nothing doubled or
            # lost despite the retries and the restart.
            assert report.commits_in_wal == report.leg_commits

    def test_nothing_leaks_past_teardown(self, sim_report):
        assert sim_report.leaked_processes == 0
        assert len(multiprocessing.active_children()) == 0


class TestDeterminism:
    def test_repeat_is_bit_identical(self, sim_report):
        assert crash_run().fingerprint == sim_report.fingerprint

    def test_process_transport_matches_sim(self, sim_report):
        report = crash_run(transport="process")
        assert report.ok, report.violations
        assert report.leaked_processes == 0
        assert report.fingerprint == sim_report.fingerprint


class TestWalRestart:
    #: A crash rule that never fires: provisions per-shard WAL files
    #: without injecting anything, so the restart below is the only one.
    NEVER = FaultSchedule(
        (FaultRule("shard.crash", "kill", at_ops=(10**9,)),),
        name="never",
    )

    def snapshot(self, cluster, shard_id):
        opcode, fields = wire.decode_frame(
            cluster.transport.request(
                shard_id, messages.encode_snapshot(0.0)
            )
        )
        assert opcode == messages.OP_SHARD_INFO
        return fields[0]

    def test_restart_recovers_exactly_the_committed_state(self):
        cluster = build_sharded_cluster(
            "taDOM3+", shards=2, scale=0.05, fault_schedule=self.NEVER,
        )
        try:
            config = TaMixConfig(
                protocol="taDOM3+", lock_depth=4, isolation="repeatable",
                run_duration_ms=2_000.0, mix=dict(CLUSTER1_MIX), seed=5,
            )
            TaMixCoordinator(cluster.database, cluster.info, config).run()
            # Roll back in-flight work so the live document holds the
            # committed effects only (what a WAL replay reconstructs).
            cluster.database.abort_in_flight(reason="rollback")

            before = self.snapshot(cluster, 0)
            assert before["recovered"] is False
            assert before["commits_in_wal"] > 0

            cluster.transport.supervisor.kill_and_restart(0)

            after = self.snapshot(cluster, 0)
            assert after["recovered"] is True
            assert after["commits_in_wal"] == before["commits_in_wal"]
            assert after["live_image"] == before["live_image"]
            assert after["live_image"] == after["replayed_image"]
            # The untouched shard is unaffected.
            assert self.snapshot(cluster, 1)["recovered"] is False
        finally:
            cluster.close()

    def test_replicas_and_snapshots_take_private_copies_of_one_image(self):
        from repro.tamix import bibgen

        bibgen._image_cache.clear()
        cluster = build_sharded_cluster("taDOM3+", shards=2, scale=0.05)
        try:
            # Coordinator plus two in-process replicas: one generation.
            assert len(bibgen._image_cache) == 1
            (pristine,) = bibgen._image_cache.values()
            replicas = [s.db.document for s in cluster.transport.servers]
            assert replicas[0] is not replicas[1]
            assert replicas[0].buffer is not replicas[1].buffer
            config = TaMixConfig(
                protocol="taDOM3+", lock_depth=4, isolation="repeatable",
                run_duration_ms=2_000.0, mix=dict(CLUSTER1_MIX), seed=5,
            )
            TaMixCoordinator(cluster.database, cluster.info, config).run()
            cluster.database.abort_in_flight(reason="rollback")
            # The live replicas moved on; the snapshot's pristine replica
            # still comes from the untouched image.
            for shard_id in (0, 1):
                snapshot = self.snapshot(cluster, shard_id)
                assert snapshot["commits_in_wal"] > 0
                assert snapshot["live_image"] == snapshot["replayed_image"]
            assert list(bibgen._image_cache.values()) == [pristine]
        finally:
            cluster.close()

    def test_cold_start_without_wal_file_is_pristine(self):
        cluster = build_sharded_cluster(
            "taDOM3+", shards=1, scale=0.02, fault_schedule=self.NEVER,
        )
        try:
            snapshot = self.snapshot(cluster, 0)
            assert snapshot["recovered"] is False
            assert snapshot["commits_in_wal"] == 0
            assert snapshot["live_image"] == snapshot["replayed_image"]
        finally:
            cluster.close()
