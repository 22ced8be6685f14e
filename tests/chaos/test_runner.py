"""Integration tests for verified chaos runs (the tentpole invariants).

A seeded TaMix workload runs under the ``ci-small`` fault schedule and
must come out the other side with (a) a serializable committed history,
(b) bit-identical WAL recovery, (c) exact commit accounting, and (d) a
run fingerprint that reproduces across invocations.
"""

import pytest

from repro.chaos import load_schedule
from repro.chaos.runner import run_chaos

SEED = 7
KWARGS = dict(scale=0.02, run_duration_ms=6_000.0)


@pytest.fixture(scope="module")
def report():
    return run_chaos(load_schedule("ci-small"), SEED, **KWARGS)


class TestInvariantsUnderFaults:
    def test_run_is_clean(self, report):
        assert report.ok, report.violations

    def test_faults_actually_fired(self, report):
        assert sum(report.faults.values()) > 0
        assert report.injection_rates["page.read"] > 0.0
        assert report.injection_rates["lock.acquire"] > 0.0

    def test_workload_made_progress_despite_faults(self, report):
        assert report.committed > 0
        assert report.result.restarts >= 0

    def test_history_oracle_passes(self, report):
        assert report.oracle_ok
        assert report.accesses_checked > 0
        assert report.oracle_violations == []

    def test_recovery_bit_identical(self, report):
        assert report.recovery_ok

    def test_no_lost_commits(self, report):
        assert report.commits_in_wal == report.committed

    def test_report_serializes(self, report):
        data = report.to_dict()
        assert data["ok"] is True
        assert data["schedule"] == "ci-small"
        assert data["fingerprint"] == report.fingerprint
        assert "chaos[ci-small" in report.summary()

    def test_determinism_across_invocations(self, report):
        again = run_chaos(load_schedule("ci-small"), SEED, **KWARGS)
        assert again.fingerprint == report.fingerprint
        assert again.faults == report.faults
        assert again.committed == report.committed
        assert again.restarts == report.restarts

    def test_seed_changes_the_run(self, report):
        other = run_chaos(load_schedule("ci-small"), SEED + 1, **KWARGS)
        assert other.ok, other.violations
        assert other.fingerprint != report.fingerprint

    def test_chaos_seed_moves_only_the_faults(self, report):
        other = run_chaos(load_schedule("ci-small"), SEED,
                          chaos_seed=SEED + 1, **KWARGS)
        assert other.ok, other.violations
        assert other.faults != report.faults
        assert other.fingerprint != report.fingerprint
        assert other.to_dict()["chaos_seed"] == SEED + 1
        assert "chaos_seed" not in report.to_dict()


class TestTraceCapture:
    def test_trace_records_chaos_events(self, tmp_path):
        from repro.obs import CHAOS_FAULT, load_jsonl

        trace = tmp_path / "chaos.jsonl"
        report = run_chaos(load_schedule("ci-small"), SEED,
                           trace_path=trace, **KWARGS)
        assert report.ok, report.violations
        kinds = {event.kind for event in load_jsonl(trace)}
        assert CHAOS_FAULT in kinds


class TestShardedRun:
    def test_empty_schedule_runs_fault_free(self):
        from repro.chaos import FaultSchedule

        report = run_chaos(FaultSchedule(name="empty"), SEED, shards=2,
                           scale=0.02, run_duration_ms=2_000.0)
        assert report.ok, report.violations
        assert report.faults == {}
        assert report.committed > 0
        assert report.to_dict()["shards"] == 2
