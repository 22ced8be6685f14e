"""The sweep's shard axis: cell expansion, persistence, and reporting."""

import json

from repro.shard.runner import TRANSPORTS
from repro.tamix.sweep import (
    SHARD_TRANSPORTS,
    SweepCell,
    SweepRunner,
    SweepSpec,
    shardable,
    trace_filename,
)
from repro.tamix.sweep_report import render_markdown


class TestShardAxis:
    def test_cells_expand_the_shard_axis(self):
        spec = SweepSpec(protocols=("taDOM3+",), lock_depths=(4,),
                         shards=(1, 2, 4))
        cells = list(spec.cells())
        assert [c.shards for c in cells] == [1, 2, 4]

    def test_unshardable_combinations_are_skipped(self):
        spec = SweepSpec(protocols=("taDOM3+", "Node2PL"),
                         lock_depths=(1, 4), shards=(1, 2))
        cells = [(c.protocol, c.lock_depth, c.shards) for c in spec.cells()]
        # Depth 1 sits above the partition level; Node2PL navigates from
        # the root (and is depth-unaware, so only its first depth runs).
        assert ("taDOM3+", 1, 2) not in cells
        assert ("taDOM3+", 4, 2) in cells
        assert all(p != "Node2PL" or s == 1 for p, _d, s in cells)
        assert not shardable("Node2PL", 4)
        assert not shardable("taDOM3+", 1)
        assert shardable("taDOM3+", 2)

    def test_validated_transport_names_are_the_registry(self):
        assert sorted(TRANSPORTS) == list(SHARD_TRANSPORTS)

    def test_trace_filename_tags_sharded_cells_only(self):
        plain = SweepCell("taDOM3+", 4, "repeatable", 0)
        sharded = SweepCell("taDOM3+", 4, "repeatable", 1, shards=2)
        assert trace_filename(plain) == "taDOM3+_d4_repeatable_r0.jsonl"
        assert trace_filename(sharded) == "taDOM3+_d4_repeatable_s2_r1.jsonl"


class TestShardedSweepRun:
    def _spec(self, **overrides):
        defaults = dict(
            protocols=("taDOM3+",), lock_depths=(4,), shards=(1, 2),
            scale=0.05, run_duration_ms=2_000.0,
        )
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_rows_carry_the_shard_count(self):
        runner = SweepRunner(self._spec())
        results = runner.run()
        assert [(r.cell.shards, r.runs) for r in results] == [(1, 1), (2, 1)]
        rows = json.loads(runner.to_json())
        assert [row["shards"] for row in rows] == [1, 2]
        assert all(row["committed"] >= 0 for row in rows)

    def test_series_filters_by_shard_count(self):
        runner = SweepRunner(self._spec())
        runner.run()
        single = runner.series("committed", shards=1)
        double = runner.series("committed", shards=2)
        assert set(single) == set(double) == {"taDOM3+"}
        assert len(single["taDOM3+"]) == len(double["taDOM3+"]) == 1

    def test_journal_resume_round_trips_sharded_cells(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        full = SweepRunner(self._spec(), journal=journal)
        full.run()
        reference = full.to_json()

        resumed = SweepRunner(self._spec(), journal=journal, resume=True)
        resumed.run()
        assert resumed.resumed_cells == 2
        assert resumed.to_json() == reference

    def test_report_renders_the_scale_up_section(self):
        runner = SweepRunner(self._spec())
        runner.run()
        rows = json.loads(runner.to_json())
        markdown = render_markdown(rows)
        assert "Shard scale-up" in markdown
        assert "s=2" in markdown

    def test_report_back_compat_with_pre_shard_rows(self):
        """Rows persisted before the shard axis (no ``shards`` key) must
        still render, with no scale-up section."""
        legacy = [{
            "protocol": "taDOM3+", "lock_depth": 4,
            "isolation": "repeatable", "runs": 1,
            "committed": 10.0, "aborted": 1.0, "deadlocks": 0.0,
            "wait_total_ms": 0.0,
        }]
        markdown = render_markdown(legacy)
        assert "Shard scale-up" not in markdown
        assert "taDOM3+" in markdown
