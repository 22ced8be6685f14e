"""SLO percentile and bounded-reservoir tracker edge cases (PR 8)."""

import pytest

from repro.net.server import SloTracker
from repro.tamix.metrics import latency_slo, nearest_rank


class TestLatencySlo:
    def test_empty_sample(self):
        assert latency_slo([]) == {"count": 0}

    def test_single_sample_is_every_percentile(self):
        slo = latency_slo([7.5])
        assert slo == {
            "count": 1, "p50_ms": 7.5, "p99_ms": 7.5, "p999_ms": 7.5,
        }

    def test_nearest_rank_boundaries_on_hundred(self):
        samples = [float(i) for i in range(1, 101)]
        slo = latency_slo(samples)
        # Nearest rank: ceil(q*n/100) -- p50 is the 50th of 100, p99 the
        # 99th, p999 ceil(99.9) = the 100th.
        assert slo["p50_ms"] == 50.0
        assert slo["p99_ms"] == 99.0
        assert slo["p999_ms"] == 100.0

    def test_nearest_rank_rounds_up_on_small_samples(self):
        samples = [1.0, 2.0, 3.0]
        assert nearest_rank(samples, 50.0) == 2.0  # ceil(1.5) = rank 2
        assert nearest_rank(samples, 99.0) == 3.0
        assert nearest_rank(samples, 33.4) == 2.0  # just past rank 1

    def test_nearest_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 100.1)

    def test_unsorted_input_is_sorted_by_latency_slo(self):
        assert latency_slo([3.0, 1.0, 2.0])["p50_ms"] == 2.0


class TestSloTracker:
    def test_empty_tracker(self):
        tracker = SloTracker()
        assert tracker.slo() == {"_overall": {"count": 0}}
        assert tracker.committed == 0

    def test_counts_and_shape(self):
        tracker = SloTracker()
        tracker.record_commit("TAchapter", 10.0)
        tracker.record_commit("TAchapter", 20.0)
        tracker.record_commit("TAqueryBook", 5.0)
        report = tracker.slo()
        assert set(report) == {"TAchapter", "TAqueryBook", "_overall"}
        assert report["TAchapter"]["count"] == 2
        assert report["TAchapter"]["p50_ms"] == 10.0
        assert report["_overall"]["count"] == 3
        assert report["_overall"]["p50_ms"] == 10.0

    def test_reservoir_bounds_memory(self):
        tracker = SloTracker(reservoir=64, seed=1)
        for i in range(10_000):
            tracker.record_commit("TAchapter", float(i))
        assert len(tracker._samples["TAchapter"]) == 64
        report = tracker.slo()
        # True count survives sampling; percentiles come from the
        # reservoir, so they stay within the observed range.
        assert report["TAchapter"]["count"] == 10_000
        assert 0.0 <= report["TAchapter"]["p50_ms"] <= 9_999.0
        assert tracker.committed == 10_000

    def test_reservoir_is_deterministic_per_seed(self):
        def fill(seed):
            tracker = SloTracker(reservoir=16, seed=seed)
            for i in range(1_000):
                tracker.record_commit("t", float(i))
            return tracker.slo()

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)

    def test_below_reservoir_keeps_exact_samples(self):
        tracker = SloTracker(reservoir=512)
        for i in range(100):
            tracker.record_commit("t", float(i + 1))
        assert tracker.slo()["t"]["p50_ms"] == 50.0

    def test_abort_reason_accounting(self):
        tracker = SloTracker()
        tracker.record_abort("deadlock")
        tracker.record_abort("deadlock")
        tracker.record_abort("timeout")
        assert tracker.aborted == 3
        assert tracker.aborted_by_reason == {"deadlock": 2, "timeout": 1}

    def test_aborts_do_not_pollute_latency(self):
        tracker = SloTracker()
        tracker.record_commit("t", 5.0)
        tracker.record_abort("timeout")
        assert tracker.slo()["_overall"]["count"] == 1

    def test_rejects_empty_reservoir(self):
        with pytest.raises(ValueError):
            SloTracker(reservoir=0)
