"""Tests for the automated measurement environment (sweep runner)."""

import csv
import io
import json

import pytest

from repro.errors import BenchmarkError
from repro.tamix.sweep import SweepCell, SweepRunner, SweepSpec


def small_spec(**overrides):
    defaults = dict(
        protocols=("taDOM3+",),
        lock_depths=(0, 6),
        isolations=("repeatable",),
        runs_per_cell=1,
        scale=0.02,
        run_duration_ms=8_000.0,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSpec:
    def test_cell_expansion(self):
        spec = small_spec(protocols=("taDOM3+", "URIX"),
                          isolations=("none", "repeatable"),
                          runs_per_cell=2)
        cells = list(spec.cells())
        assert len(cells) == 2 * 2 * 2 * 2
        assert cells[0] == SweepCell("taDOM3+", 0, "none", 0)

    def test_depth_unaware_protocols_collapse_depths(self):
        spec = small_spec(protocols=("Node2PL",), lock_depths=(0, 3, 6))
        cells = list(spec.cells())
        assert len(cells) == 1
        assert cells[0].lock_depth == 0

    def test_invalid_runs(self):
        with pytest.raises(BenchmarkError):
            list(small_spec(runs_per_cell=0).cells())

    @pytest.mark.parametrize("protocols,isolation,named", [
        (("taDOM3+", "URIX"), "serializable", "URIX"),
        (("taDOM3+",), "bogus", "taDOM3+"),
    ])
    def test_bad_isolation_refused_before_any_cell_runs(
        self, monkeypatch, protocols, isolation, named
    ):
        from repro.tamix import sweep

        ran = []
        monkeypatch.setattr(sweep, "_execute_cell",
                            lambda _spec, cell, *_a: ran.append(cell))
        spec = small_spec(protocols=protocols,
                          isolations=("repeatable", isolation))
        with pytest.raises(BenchmarkError) as info:
            SweepRunner(spec).run()
        assert named in str(info.value)
        assert repr(isolation) in str(info.value)
        assert ran == []

    def test_serializable_accepted_for_the_tadom_group(self):
        spec = small_spec(protocols=("taDOM2", "taDOM3+"),
                          isolations=("serializable",))
        assert len(list(spec.cells())) == 4

    @pytest.mark.parametrize("overrides,named", [
        (dict(lock_depths=(4, -1)), "lock depths"),
        (dict(lock_depths=()), "lock depths"),
        (dict(scale=0.0), "scale"),
        (dict(scale=-0.1), "scale"),
        (dict(run_duration_ms=0.0), "run duration"),
        (dict(run_duration_ms=-5_000.0), "run duration"),
        (dict(shards=(1, 0)), "shard counts"),
        (dict(shard_transport="pigeon"), "shard transport"),
    ])
    def test_out_of_range_knobs_refused_before_any_cell_runs(
        self, monkeypatch, overrides, named
    ):
        from repro.tamix import sweep

        ran = []
        monkeypatch.setattr(sweep, "_execute_cell",
                            lambda _spec, cell, *_a: ran.append(cell))
        with pytest.raises(BenchmarkError, match=named):
            SweepRunner(small_spec(**overrides)).run()
        assert ran == []


class TestOrder:
    def test_isolation_levels_sort_weakest_first(self):
        from repro.locking import IsolationLevel
        from repro.tamix.sweep import CellResult

        runner = SweepRunner(small_spec())
        for level in sorted(level.value for level in IsolationLevel):
            for depth in (6, 0):
                runner.results[("taDOM3+", depth, level, 1)] = CellResult(
                    SweepCell("taDOM3+", depth, level)
                )
        cells = [result.cell for result in runner.sorted_results()]
        assert [cell.isolation for cell in cells[::2]] == [
            "none", "uncommitted", "committed", "repeatable", "serializable",
        ]
        assert [cell.lock_depth for cell in cells[:2]] == [0, 6]


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        runner = SweepRunner(small_spec(runs_per_cell=2))
        runner.run()
        return runner

    def test_aggregates_repetitions(self, runner):
        results = runner.sorted_results()
        assert len(results) == 2            # two depths, one protocol
        for result in results:
            assert result.runs == 2
            assert result.committed >= 0

    def test_depth_effect_visible(self, runner):
        depth0, depth6 = runner.sorted_results()
        assert depth0.cell.lock_depth == 0
        assert depth6.committed > depth0.committed

    def test_progress_callback(self):
        seen = []
        runner = SweepRunner(small_spec())
        runner.run(progress=lambda cell, outcome: seen.append(cell))
        assert len(seen) == 2

    def test_csv_output(self, runner):
        text = runner.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["protocol"] == "taDOM3+"
        assert "TAlendAndReturn" in rows[0]

    def test_json_output(self, runner):
        rows = json.loads(runner.to_json())
        assert len(rows) == 2
        assert {row["lock_depth"] for row in rows} == {0, 6}

    def test_rows_carry_deadlock_aborts_per_type(self, runner):
        for result in runner.sorted_results():
            row = result.as_row()
            for txn_type in result.by_type:
                assert row[f"{txn_type}_deadlock_aborts"] == round(
                    result.deadlock_aborts_by_type[txn_type], 2
                )
            assert sum(
                value for key, value in row.items()
                if key.endswith("_deadlock_aborts")
            ) == pytest.approx(row["aborted_deadlock"])

    def test_series_for_charts(self, runner):
        series = runner.series("committed")
        assert list(series) == ["taDOM3+"]
        assert len(series["taDOM3+"]) == 2

    def test_empty_runner_csv(self):
        assert SweepRunner(small_spec()).to_csv() == ""


class TestParallelRunner:
    def test_progress_fires_per_cell_in_matrix_order(self):
        seen = []
        runner = SweepRunner(small_spec(), workers=2)
        runner.run(progress=lambda cell, outcome: seen.append(cell))
        assert seen == list(small_spec().cells())

    def test_parent_holds_the_document_image_before_forking(self):
        from repro.tamix import bibgen

        bibgen._image_cache.clear()
        SweepRunner(small_spec(), workers=2).run()
        # The workers' copies came from this image, not from per-cell
        # generation: the parent generated once, before the pool existed.
        assert [key[0] for key in bibgen._image_cache] == ["0.02"]

    def test_workers_normalized(self):
        assert SweepRunner(small_spec(), workers=0).workers == 1
        assert SweepRunner(small_spec(), workers=-3).workers == 1
        assert SweepRunner(small_spec(), workers=4).workers == 4


class TestAccessEventTraces:
    def test_traces_carry_access_events_and_verify(self, tmp_path):
        from repro.tamix.sweep import trace_filename
        from repro.verify import verify_trace

        spec = small_spec(lock_depths=(4,))
        runner = SweepRunner(spec, trace_dir=tmp_path, access_events=True)
        runner.run()
        trace = tmp_path / trace_filename(list(spec.cells())[0])
        report = verify_trace(trace)
        assert report.ok
        assert report.accesses_checked > 0

    def test_access_events_off_by_default(self, tmp_path):
        from repro.obs import OP_ACCESS, load_jsonl
        from repro.tamix.sweep import trace_filename

        spec = small_spec(lock_depths=(4,))
        runner = SweepRunner(spec, trace_dir=tmp_path)
        runner.run()
        trace = tmp_path / trace_filename(list(spec.cells())[0])
        kinds = {event.kind for event in load_jsonl(trace)}
        assert OP_ACCESS not in kinds
