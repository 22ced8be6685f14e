"""Seeded traced runs pin the lock manager's event stream end to end.

``golden_traces.json`` holds the sha256 of the full JSONL event trace
(every event kept, access events on) of one CLUSTER1 cell per protocol
and isolation level -- all 11 protocols at lock depth 4 (0 for the
depth-less *-2PL protocols), under repeatable and committed -- plus the
trace of a seeded ``lock-storm`` chaos run, whose injected lock faults
sit among the lock events.  A change to how locks are acquired or traced
must leave every entry unchanged.

Re-record (only when the trace is *meant* to change) with::

    PYTHONPATH=src python tests/locking/test_golden_traces.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos import load_schedule, run_chaos
from repro.core import get_protocol, protocol_names
from repro.obs import Observability
from repro.tamix.cluster import run_cluster1

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"
SCALE = 0.05
DURATION_MS = 4000.0
SEED = 42
CHAOS_SCHEDULE = "lock-storm"
CHAOS_SEED = 7
CHAOS_DURATION_MS = 8000.0

CELLS = [
    (protocol, 4 if get_protocol(protocol).supports_lock_depth else 0,
     isolation)
    for protocol in protocol_names()
    for isolation in ("repeatable", "committed")
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell_digest(protocol, depth, isolation) -> str:
    obs = Observability.enabled(capacity=None, access_events=True)
    run_cluster1(protocol, lock_depth=depth, isolation=isolation,
                 scale=SCALE, run_duration_ms=DURATION_MS, seed=SEED,
                 observability=obs)
    return _sha256(obs.tracer.to_jsonl())


def _chaos_digest(trace_path: Path) -> str:
    report = run_chaos(load_schedule(CHAOS_SCHEDULE), CHAOS_SEED,
                       scale=SCALE, run_duration_ms=CHAOS_DURATION_MS,
                       trace_path=trace_path)
    assert report.ok, report.violations
    return _sha256(trace_path.read_text(encoding="utf-8"))


def _record(tmp_dir: Path) -> dict:
    return {
        "cluster1": {
            f"{p}:d{d}:{i}": _cell_digest(p, d, i) for p, d, i in CELLS
        },
        "chaos": {
            f"{CHAOS_SCHEDULE}:s{CHAOS_SEED}":
                _chaos_digest(tmp_dir / "chaos_trace.jsonl"),
        },
    }


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else None)


def test_golden_covers_every_cell():
    assert len(CELLS) == 22
    assert sorted(GOLDEN["cluster1"]) == sorted(
        f"{p}:d{d}:{i}" for p, d, i in CELLS)
    assert sorted(GOLDEN["chaos"]) == [f"{CHAOS_SCHEDULE}:s{CHAOS_SEED}"]


@pytest.mark.parametrize("protocol", protocol_names())
def test_cluster1_traces_are_byte_identical(protocol):
    for p, depth, isolation in CELLS:
        if p == protocol:
            key = f"{p}:d{depth}:{isolation}"
            assert _cell_digest(p, depth, isolation) == \
                GOLDEN["cluster1"][key], key


def test_lock_storm_trace_is_byte_identical(tmp_path):
    key = f"{CHAOS_SCHEDULE}:s{CHAOS_SEED}"
    assert _chaos_digest(tmp_path / "trace.jsonl") == GOLDEN["chaos"][key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _record(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
