"""Integration tests: traces from real workloads are ordered, deterministic,
and agree exactly with the metrics of the run that produced them."""

import pytest

from repro import Database, DeadlockAbort
from repro.dom.node_manager import _TRACED_OPS
from repro.obs import (
    DEADLOCK_DETECTED,
    LOCK_BLOCK,
    LOCK_REQUEST,
    Observability,
    RingTracer,
    TXN_ABORT,
    TXN_BEGIN,
    TXN_COMMIT,
    aggregate,
    load_jsonl,
)
from repro.sched import Delay, Simulator

LIBRARY = (
    "topics",
    [("topic", {"id": "t0"}, [
        ("book", {"id": "b0"}, [
            ("title", ["Concurrency Control Theory"]),
            ("history", [("lend", {"person": "p1"}, [])]),
        ]),
    ])],
)


def updater(db, name, outcomes):
    """Read the book subtree, pause, then delete its lend entry.

    Two of these on the same book at lock depth 0 produce the paper's
    canonical conversion deadlock: shared subtree reads, then both try
    to upgrade for the delete.
    """
    txn = db.begin(name)
    book = db.document.element_by_id("b0")
    try:
        yield from db.nodes.read_subtree(txn, book)
        yield Delay(50.0)
        history = [
            splid for splid in db.document.store.children(book)
            if db.document.name_of(splid) == "history"
        ][0]
        lend = next(db.document.store.children(history))
        yield from db.nodes.delete_subtree(txn, lend)
        db.commit(txn)
        outcomes[name] = "committed"
    except DeadlockAbort as exc:
        db.abort(txn, reason=exc.reason)
        outcomes[name] = "deadlock"


def run_scripted_deadlock():
    obs = Observability.enabled()
    db = Database(protocol="taDOM2", lock_depth=0, root_element="bib",
                  observability=obs)
    db.load(LIBRARY)
    sim = Simulator()
    db.set_clock(lambda: sim.now)
    outcomes = {}
    sim.spawn(updater(db, "alpha", outcomes))
    sim.spawn(updater(db, "beta", outcomes))
    sim.run()
    return obs.tracer.events(), outcomes


class TestScriptedDeadlockTrace:
    def test_outcome_one_victim_one_survivor(self):
        _events, outcomes = run_scripted_deadlock()
        assert sorted(outcomes.values()) == ["committed", "deadlock"]

    def test_sequence_and_timestamps_are_monotone(self):
        events, _outcomes = run_scripted_deadlock()
        seqs = [event.seq for event in events]
        stamps = [event.ts for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert stamps == sorted(stamps)

    def test_event_ordering_tells_the_deadlock_story(self):
        events, outcomes = run_scripted_deadlock()
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)

        # Exactly one conversion deadlock, exactly one abort, one commit.
        assert len(by_kind[DEADLOCK_DETECTED]) == 1
        assert len(by_kind[TXN_ABORT]) == 1
        assert len(by_kind[TXN_COMMIT]) == 1
        assert len(by_kind[TXN_BEGIN]) == 2

        deadlock = by_kind[DEADLOCK_DETECTED][0]
        abort = by_kind[TXN_ABORT][0]
        assert deadlock.data["deadlock_kind"] == "conversion"
        assert abort.data["reason"] == "deadlock"
        # The victim recorded by the detector is the transaction aborted.
        assert abort.txn == deadlock.txn
        victim_name = next(n for n, o in outcomes.items() if o == "deadlock")
        assert victim_name in abort.txn

        # Causal order: the victim began, requested, blocked on the
        # conversion, the detector fired, then the abort was recorded.
        victim = deadlock.txn
        begin = next(e for e in by_kind[TXN_BEGIN] if e.txn == victim)
        block = next(
            e for e in by_kind[LOCK_BLOCK]
            if e.txn == victim and e.data.get("conversion")
        )
        request = next(e for e in by_kind[LOCK_REQUEST] if e.txn == victim)
        assert (begin.seq < request.seq < block.seq
                < deadlock.seq < abort.seq)

    def test_trace_is_deterministic_across_runs(self):
        """Same workload, same simulated clock => byte-identical trace."""
        first, _ = run_scripted_deadlock()
        second, _ = run_scripted_deadlock()
        assert first == second


class TestCellTraceMatchesMetrics:
    """Acceptance: a TaMix sweep cell's JSONL trace aggregates to exactly
    the counters the cell reports."""

    @pytest.fixture(scope="class")
    def cell(self, tmp_path_factory):
        from repro.tamix.cluster import run_cluster1

        sink = tmp_path_factory.mktemp("trace") / "cell.jsonl"
        obs = Observability.enabled(capacity=None, sink=sink)
        result = run_cluster1(
            "taDOM2", lock_depth=2, scale=0.05,
            run_duration_ms=20_000.0, seed=42, observability=obs,
        )
        obs.close()
        return obs, result, sink

    def test_replayed_counters_match_reported_metrics(self, cell):
        _obs, result, sink = cell
        totals = aggregate(load_jsonl(sink))
        assert totals.get("committed", 0) == result.committed
        assert (totals.get("aborted.deadlock", 0)
                == result.aborted_by_kind["deadlock"])
        assert (totals.get("aborted.timeout", 0)
                == result.aborted_by_kind["timeout"])
        assert totals.get("lock.block", 0) == result.lock_stats["waits"]
        assert totals.get(LOCK_REQUEST, 0) == result.lock_stats["requests"]

    def test_trace_timestamps_follow_the_simulator_clock(self, cell):
        _obs, _result, sink = cell
        events = load_jsonl(sink)
        assert events, "cell trace must not be empty"
        stamps = [event.ts for event in events]
        assert stamps == sorted(stamps)
        assert stamps[-1] > 0.0

    def test_cell_reports_wait_histogram(self, cell):
        _obs, result, _sink = cell
        histogram = result.wait_histogram
        assert set(histogram) == {"count", "total", "mean", "max", "buckets"}
        assert histogram["count"] >= 0


class TestStaticDispatch:
    """Instrumentation is selected when a tracer is bound, not checked
    per call: a disabled tracer must leave the uninstrumented
    implementations in place."""

    @pytest.mark.parametrize("make_obs", [
        Observability.disabled,
        lambda: Observability(RingTracer(4096, enabled=False)),
    ], ids=["no-tracer", "disabled-ring"])
    def test_disabled_tracer_binds_the_plain_paths(self, make_obs):
        db = Database(root_element="bib", observability=make_obs())
        buffer = db.document.buffer
        assert buffer.fix == buffer._fix_plain
        assert _TRACED_OPS
        for name, _wrapper, plain in _TRACED_OPS:
            assert getattr(db.nodes, name).__func__ is plain, name

    def test_enabled_tracer_binds_the_instrumented_paths(self):
        db = Database(root_element="bib", observability=True)
        buffer = db.document.buffer
        assert buffer.fix == buffer._fix_traced
        for name, wrapper, _plain in _TRACED_OPS:
            assert getattr(db.nodes, name).__func__ is wrapper, name
