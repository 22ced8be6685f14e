"""The shard router end-to-end: seeded sharded contests are deterministic,
validity gates hold, and one shard delegates to the classic runner."""

import json
import os

import pytest

from repro.errors import BenchmarkError
from repro.shard.runner import run_sharded_cluster1, validate_sharding

#: CI sets REPRO_SHARDS to exercise the suite at other shard counts.
SHARDS = int(os.environ.get("REPRO_SHARDS", "2"))


def _run(seed=7, duration=4_000.0):
    return run_sharded_cluster1(
        "taDOM3+", shards=SHARDS, lock_depth=4, scale=0.05,
        run_duration_ms=duration, seed=seed,
    )


class TestValidityGate:
    def test_root_navigating_protocol_rejected(self):
        with pytest.raises(BenchmarkError, match="root"):
            validate_sharding("Node2PL", 4, 2)

    def test_shallow_lock_depth_rejected(self):
        with pytest.raises(BenchmarkError, match="lock_depth"):
            validate_sharding("taDOM3+", 1, 2)

    def test_single_shard_always_passes(self):
        validate_sharding("Node2PL", 0, 1)  # delegates to the classic path

    def test_bad_shard_count_rejected(self):
        with pytest.raises(BenchmarkError, match=">= 1"):
            validate_sharding("taDOM3+", 4, 0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(BenchmarkError, match="transport"):
            run_sharded_cluster1("taDOM3+", shards=2, transport="carrier-pigeon")


class TestSeededDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = _run(seed=7)
        second = _run(seed=7)
        assert json.dumps(first.as_journal(), sort_keys=True) == \
            json.dumps(second.as_journal(), sort_keys=True)

    def test_different_seeds_diverge(self):
        first = _run(seed=7)
        second = _run(seed=8)
        assert json.dumps(first.as_journal(), sort_keys=True) != \
            json.dumps(second.as_journal(), sort_keys=True)

    def test_contest_makes_progress_and_merges_stats(self):
        result = _run(seed=42, duration=8_000.0)
        assert result.committed > 0
        assert set(result.by_type) <= {
            "TAqueryBook", "TAchapter", "TArenameTopic", "TAlendAndReturn",
        }
        wait = result.wait_stats
        assert wait["count"] >= 0.0
        histogram = result.wait_histogram
        assert histogram["count"] == sum(histogram["buckets"].values())


class TestRouterOptions:
    def test_single_shard_delegates_to_classic_runner(self):
        from repro.tamix.cluster import run_cluster1

        sharded = run_sharded_cluster1(
            "taDOM3+", shards=1, lock_depth=4, scale=0.05,
            run_duration_ms=3_000.0, seed=5,
        )
        classic = run_cluster1(
            "taDOM3+", lock_depth=4, scale=0.05,
            run_duration_ms=3_000.0, seed=5,
        )
        assert json.dumps(sharded.as_journal(), sort_keys=True) == \
            json.dumps(classic.as_journal(), sort_keys=True)
