"""Determinism regression tests for the benchmark environment.

The SPLID interning cache and the parallel sweep must not perturb
results: the same ``TaMixConfig.seed`` has to yield identical
``RunResult`` counters whether the label cache is cold or warm, and a
multi-worker sweep has to reproduce the serial sweep byte-for-byte
(guards against iteration-order or RNG-stream drift from the
optimizations).
"""

from repro.obs import txn_label
from repro.splid import Splid
from repro.tamix import TaMixConfig, TaMixCoordinator, generate_bib, make_database
from repro.tamix.cluster import run_cluster1
from repro.tamix.sweep import SweepRunner, SweepSpec

RUN_KW = dict(
    lock_depth=4,
    isolation="repeatable",
    scale=0.05,
    run_duration_ms=4_000.0,
    seed=42,
)


def counters(result):
    return {
        "committed": result.committed,
        "aborted": result.aborted,
        "deadlocks": result.deadlocks,
        "deadlocks_by_kind": dict(result.deadlocks_by_kind),
        "lock_stats": dict(result.lock_stats),
        "by_type": {
            name: (m.committed, m.aborted, m.deadlock_aborts,
                   m.timeout_aborts, tuple(m.durations))
            for name, m in result.by_type.items()
        },
    }


def test_same_seed_same_counters_cold_vs_warm_intern_cache():
    Splid.clear_intern_cache()
    cold = counters(run_cluster1("taDOM3+", **RUN_KW))
    # Second run reuses every label the first one interned.
    warm = counters(run_cluster1("taDOM3+", **RUN_KW))
    assert cold == warm


def test_same_seed_identical_deadlock_event_logs():
    """Repeated seeded runs must record byte-identical deadlock events.

    The detector used to sort wait-for edges by object address; this
    compares the full event log (cycle, wait-edge snapshot, waiting
    modes) of two identical high-contention runs."""

    def deadlock_log():
        info = generate_bib(scale=0.01, seed=99)  # tiny doc: max contention
        database, info = make_database("taDOM3+", 4, "repeatable", info=info)
        config = TaMixConfig(
            protocol="taDOM3+",
            lock_depth=4,
            isolation="repeatable",
            run_duration_ms=40_000.0,
            seed=7,
        )
        TaMixCoordinator(database, info, config).run()
        return [
            (
                txn_label(event.victim),
                tuple(txn_label(txn) for txn in event.cycle),
                event.conversion,
                event.resource[0],
                str(event.resource[1]),
                event.active_transactions,
                event.locks_held,
                tuple(
                    (txn_label(waiter), txn_label(blocker))
                    for waiter, blocker in event.wait_edges
                ),
                event.waiting_modes,
            )
            for event in database.locks.detector.events
        ]

    first = deadlock_log()
    second = deadlock_log()
    assert first, "stress configuration produced no deadlocks to compare"
    assert first == second


def test_serial_and_parallel_sweep_agree():
    spec = SweepSpec(
        protocols=("taDOM3+",),
        lock_depths=(0, 4),
        isolations=("repeatable",),
        runs_per_cell=2,
        scale=0.05,
        run_duration_ms=3_000.0,
    )
    serial = [r.as_row() for r in SweepRunner(spec).run()]
    parallel = [r.as_row() for r in SweepRunner(spec, workers=2).run()]
    assert parallel == serial


def test_parallel_sweep_csv_matches_serial():
    from repro.tamix import bibgen

    spec = SweepSpec(
        protocols=("taDOM3+",),
        lock_depths=(4,),
        isolations=("none", "repeatable"),
        runs_per_cell=1,
        scale=0.05,
        run_duration_ms=3_000.0,
    )
    # Cold image cache: the first cell runs on the generated document,
    # the second on a copy loaded from its image.
    bibgen._image_cache.clear()
    serial_runner = SweepRunner(spec)
    serial_runner.run()
    assert len(bibgen._image_cache) == 1
    # Warm cache: every cell runs on a loaded copy.
    warm_runner = SweepRunner(spec)
    warm_runner.run()
    assert warm_runner.to_csv() == serial_runner.to_csv()
    assert warm_runner.to_json() == serial_runner.to_json()
    parallel_runner = SweepRunner(spec, workers=2)
    parallel_runner.run()
    assert parallel_runner.to_csv() == serial_runner.to_csv()
    assert parallel_runner.to_json() == serial_runner.to_json()
