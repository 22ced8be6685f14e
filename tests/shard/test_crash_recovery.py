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
from pathlib import Path

import pytest

from repro.chaos import FaultRule, FaultSchedule, load_schedule
from repro.errors import StorageError
from repro.net import wire
from repro.shard import build_sharded_cluster, messages
from repro.shard.chaosrun import run_shard_chaos
from repro.shard.shard import ShardServer
from repro.tamix.cluster import CLUSTER1_MIX
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.txn.wal import WalFile, WriteAheadLog


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

    def durable_cluster(self, wal_dir):
        return build_sharded_cluster(
            "taDOM3+", shards=2, scale=0.05, fault_schedule=self.NEVER,
            wal_dir=str(wal_dir),
        )

    def run_committed(self, cluster, seed):
        """A short seeded run whose in-flight work is rolled back, so
        the live documents hold committed effects only."""
        config = TaMixConfig(
            protocol="taDOM3+", lock_depth=4, isolation="repeatable",
            run_duration_ms=2_000.0, mix=dict(CLUSTER1_MIX), seed=seed,
        )
        TaMixCoordinator(cluster.database, cluster.info, config).run()
        cluster.database.abort_in_flight(reason="rollback")

    def test_torn_tail_restart_recovers_the_clean_prefix(self, tmp_path):
        cluster = self.durable_cluster(tmp_path)
        try:
            self.run_committed(cluster, seed=5)
            before = self.snapshot(cluster, 0)
            assert before["commits_in_wal"] > 0
            path = tmp_path / "shard-0.wal"
            committed = path.read_bytes()
            cluster.transport.kill(0)
            # SIGKILL inside the next commit's write: a strict prefix of
            # one more record (here 7 of a header's 9 bytes) at the end.
            path.write_bytes(committed + committed[:7])
            cluster.transport.restart(0)
            after = self.snapshot(cluster, 0)
            assert after["recovered"] is True
            assert after["commits_in_wal"] == before["commits_in_wal"]
            assert after["live_image"] == before["live_image"]
            assert after["live_image"] == after["replayed_image"]
            assert path.read_bytes() == committed
        finally:
            cluster.close()

    def test_second_crash_replays_the_full_history(self, tmp_path):
        cluster = self.durable_cluster(tmp_path)
        try:
            path = tmp_path / "shard-0.wal"
            self.run_committed(cluster, seed=5)
            first = self.snapshot(cluster, 0)
            first_bytes = path.read_bytes()
            cluster.transport.supervisor.kill_and_restart(0)
            self.run_committed(cluster, seed=6)
            second = self.snapshot(cluster, 0)
            # The file continued after the restart instead of starting
            # over: the first incarnation's bytes are still its head.
            assert second["commits_in_wal"] > first["commits_in_wal"]
            assert path.read_bytes()[:len(first_bytes)] == first_bytes
            assert second["wal_bytes_written"] == (
                path.stat().st_size - len(first_bytes)
            )
            cluster.transport.supervisor.kill_and_restart(0)
            final = self.snapshot(cluster, 0)
            assert final["recovered"] is True
            assert final["commits_in_wal"] == second["commits_in_wal"]
            assert final["live_image"] == second["live_image"]
            assert final["live_image"] == final["replayed_image"]
            # The shard's wal.* gauges follow the adopted log, not the
            # empty one the database was built with.
            gauges = cluster.transport.inner.servers[0].db.obs.metrics.as_dict()
            assert gauges["wal.last_lsn"] == final["wal_records"] > 0
            assert gauges["wal.flushes"] == final["commits_in_wal"]
        finally:
            cluster.close()

    def test_every_commit_appends_exactly_its_own_records(
        self, tmp_path, monkeypatch
    ):
        flushes = []  # (path, records in the log, file size) per commit
        plain_flush = WalFile.flush

        def recording_flush(wal_file):
            plain_flush(wal_file)
            name = wal_file._handle.name
            flushes.append((name, len(wal_file.log), Path(name).stat().st_size))

        monkeypatch.setattr(WalFile, "flush", recording_flush)
        cluster = self.durable_cluster(tmp_path)
        try:
            self.run_committed(cluster, seed=5)
            for shard_id, stats in enumerate(
                cluster.database.router.shard_stats()
            ):
                path = tmp_path / f"shard-{shard_id}.wal"
                mine = [f[1:] for f in flushes if f[0] == str(path)]
                # Amplification exactly 1: what was written is what is
                # there, one write per commit.
                assert stats["wal_bytes_written"] == path.stat().st_size > 0
                assert stats["wal_writes"] == len(mine)
                snapshot = self.snapshot(cluster, shard_id)
                for key in ("wal_bytes_written", "wal_writes"):
                    assert snapshot[key] == stats[key]
                log = WriteAheadLog.from_bytes(path.read_bytes())
                offsets = [len(log.prefix(n)) for n in range(len(log) + 1)]
                seen = [(0, 0)] + mine
                for (n0, size0), (n1, size1) in zip(seen, seen[1:]):
                    assert n1 > n0
                    assert size1 - size0 == offsets[n1] - offsets[n0]
        finally:
            cluster.close()

    @staticmethod
    def lone_config(wal_dir):
        return dict(
            protocol="taDOM3+", lock_depth=4, scale=0.02,
            wal_path=str(wal_dir / "shard-0.wal"),
        )

    def test_unreadable_wal_refuses_to_start(self, tmp_path):
        # Exists but cannot be read (a directory stands in for EACCES /
        # EIO): treating it as a cold start would overwrite it at the
        # first commit.
        (tmp_path / "shard-0.wal").mkdir()
        with pytest.raises(StorageError, match="shard-0.wal"):
            ShardServer(0, self.lone_config(tmp_path))

    def test_stale_rewrite_tmp_is_removed_unread(self, tmp_path):
        stale = tmp_path / "shard-0.wal.tmp"
        stale.write_bytes(b"\x02half a rewritten image")
        server = ShardServer(0, self.lone_config(tmp_path))
        try:
            assert not stale.exists()
            assert server.recovered is False
            assert len(server.db.wal) == 0
        finally:
            server.close()

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
