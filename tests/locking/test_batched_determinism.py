"""Determinism regression: batched acquisition must not move a single bit.

``golden_pr6.json`` pins seeded-run journals, the chaos engine's fault
fingerprint, ``IoStatistics.fault_delay_ms``, and the lock-wait
histogram as they were produced *before* the grant-path rebuild (flat
bitmask tables, batched ancestor acquisition, slab-allocated entries,
static instrumentation dispatch).  The rebuild is a pure performance
change: every value here must reproduce exactly -- byte-identical
journals, bit-identical float accumulators.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import ChaosEngine, RetryPolicy
from repro.chaos.schedule import load_schedule
from repro.tamix.cluster import CLUSTER1_MIX, make_database, run_cluster1
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_pr6.json").read_text(encoding="utf-8")
)

#: The seeded cells the golden file pins: (protocol, lock_depth, duration).
CELLS = [
    ("taDOM3+", 4, 4000.0, "cell:taDOM3+:d4"),
    ("taDOM2", 0, 4000.0, "cell:taDOM2:d0"),
    ("IRIX", 4, 4000.0, "cell:IRIX:d4"),
    ("Node2PL", 4, 4000.0, "cell:Node2PL:d4"),
    ("taDOM3+", 4, 20000.0, "cell:taDOM3+:d4:long"),
]


def _canon(journal) -> str:
    """Canonical JSON text, so the comparison is byte-level."""
    return json.dumps(journal, sort_keys=True, default=str)


@pytest.mark.parametrize("protocol,depth,duration,key",
                         CELLS, ids=[c[3] for c in CELLS])
def test_seeded_cell_journal_is_byte_identical(protocol, depth, duration, key):
    result = run_cluster1(protocol, lock_depth=depth, isolation="repeatable",
                          scale=0.05, run_duration_ms=duration, seed=42)
    assert _canon(result.as_journal()) == _canon(GOLDEN[key])


def test_chaos_fault_delay_and_wait_histogram_bit_identical():
    """Satellite bugfix check: fault delays and completed-wait histograms
    under the batched fast path match the pre-rebuild accumulators
    exactly (one wait per blocked path segment, not per batch)."""
    golden = GOLDEN["chaos"]
    schedule = load_schedule("storage-heavy")
    database, info = make_database("taDOM3+", 4, "repeatable", scale=0.05)
    engine = ChaosEngine(schedule, seed=7, retry=RetryPolicy())
    engine.install(database)
    config = TaMixConfig(protocol="taDOM3+", lock_depth=4,
                         isolation="repeatable", run_duration_ms=12000.0,
                         mix=dict(CLUSTER1_MIX), seed=7, retry=RetryPolicy())
    result = TaMixCoordinator(database, info, config).run()
    engine.uninstall()

    delay = round(database.document.buffer.stats.fault_delay_ms, 6)
    assert delay == golden["fault_delay_ms"]
    assert database.locks.wait_histogram.as_dict() == golden["wait_histogram"]
    assert result.committed == golden["committed"]
    assert result.aborted == golden["aborted"]
    assert result.restarts == golden["restarts"]
    assert engine.fingerprint() == golden["engine_fingerprint"]
    assert engine.ops["page.read"] == golden["page_read_ops"]
    assert engine.ops["page.write"] == golden["page_write_ops"]
