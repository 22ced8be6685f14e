"""Seeded chaos reports are pinned artefacts: each ``repro chaos --json``
file in ``golden_reports.json`` must come out byte-identical.

Only the simulated-transport entries run here; the process-transport
entry spawns shard children and is checked by CI instead.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_reports.json").read_text(encoding="utf-8")
)
SIM_RUNS = sorted(
    name for name, entry in GOLDEN.items()
    if not name.startswith("_") and "process" not in entry["args"]
)


@pytest.mark.parametrize("name", SIM_RUNS)
def test_report_bytes_and_fingerprint(name, tmp_path):
    entry = GOLDEN[name]
    path = tmp_path / "report.json"
    assert main(["chaos", *entry["args"], "--json", str(path)]) == 0
    data = path.read_bytes()
    assert json.loads(data)["fingerprint"] == entry["fingerprint"]
    assert hashlib.sha256(data).hexdigest() == entry["sha256"]
