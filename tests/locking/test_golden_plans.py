"""Seeded runs of every contestant pin the lock plans end to end.

``golden_plans.json`` holds, per CLUSTER1 cell (all 11 protocols, lock
depths 0/2/4/7 -- only 0 for the depth-less *-2PL protocols -- under
repeatable and committed, plus serializable for taDOM*), the sha256 of
the canonical run journal, and per protocol and depth the CLUSTER2
single-delete time, which exercises the *-2PL group's ``scan_ids`` path.
A change to how plans are derived must leave every entry unchanged.

Re-record (only when a plan is *meant* to change) with::

    PYTHONPATH=src python tests/locking/test_golden_plans.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import get_protocol, protocol_names
from repro.obs import Observability
from repro.tamix.cluster import run_cluster1, run_cluster2

GOLDEN_PATH = Path(__file__).parent / "golden_plans.json"
SCALE = 0.05
DURATION_MS = 4000.0
SEED = 42


def _depths(protocol: str):
    return (0, 2, 4, 7) if get_protocol(protocol).supports_lock_depth else (0,)


def _isolations(protocol: str):
    if get_protocol(protocol).supports_serializable:
        return ("repeatable", "committed", "serializable")
    return ("repeatable", "committed")


CELLS = [
    (protocol, depth, isolation)
    for protocol in protocol_names()
    for depth in _depths(protocol)
    for isolation in _isolations(protocol)
]
DELETES = [
    (protocol, depth)
    for protocol in protocol_names()
    for depth in _depths(protocol)
]


def _canon(journal) -> str:
    return json.dumps(journal, sort_keys=True, default=str)


def _cell(protocol, depth, isolation, observability=None):
    return run_cluster1(protocol, lock_depth=depth, isolation=isolation,
                        scale=SCALE, run_duration_ms=DURATION_MS, seed=SEED,
                        observability=observability)


def _digest(protocol, depth, isolation) -> str:
    journal = _cell(protocol, depth, isolation).as_journal()
    return hashlib.sha256(_canon(journal).encode()).hexdigest()


def _record() -> dict:
    return {
        "cluster1": {
            f"{p}:d{d}:{i}": _digest(p, d, i) for p, d, i in CELLS
        },
        "cluster2": {
            f"{p}:d{d}": run_cluster2(p, lock_depth=d, scale=SCALE, seed=SEED)
            for p, d in DELETES
        },
    }


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else None)


def test_golden_covers_every_cell():
    assert len(CELLS) == 86
    assert sorted(GOLDEN["cluster1"]) == sorted(
        f"{p}:d{d}:{i}" for p, d, i in CELLS)
    assert sorted(GOLDEN["cluster2"]) == sorted(
        f"{p}:d{d}" for p, d in DELETES)


@pytest.mark.parametrize("protocol", protocol_names())
def test_cluster1_journals_are_byte_identical(protocol):
    for p, depth, isolation in CELLS:
        if p == protocol:
            key = f"{p}:d{depth}:{isolation}"
            assert _digest(p, depth, isolation) == GOLDEN["cluster1"][key], key


@pytest.mark.parametrize("protocol", protocol_names())
def test_cluster2_delete_times_are_identical(protocol):
    for p, depth in DELETES:
        if p == protocol:
            elapsed = run_cluster2(p, lock_depth=depth, scale=SCALE, seed=SEED)
            assert elapsed == GOLDEN["cluster2"][f"{p}:d{depth}"]


@pytest.mark.parametrize("protocol", protocol_names())
def test_traced_journal_equals_untraced(protocol):
    """Tracing only observes: a traced run's journal equals the
    untraced run's (both take the one batched acquire path)."""
    for isolation in ("repeatable", "committed"):
        plain = _cell(protocol, 4, isolation).as_journal()
        traced = _cell(protocol, 4, isolation,
                       Observability.enabled(capacity=1024)).as_journal()
        assert _canon(traced) == _canon(plain)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
