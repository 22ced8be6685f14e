"""Self-tests of the end-to-end benchmark.

Run by path (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import ledger  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(layers.PACKAGE.rglob("*.py"))
    assert len(modules) > 90
    for module in modules:
        relative = module.relative_to(layers.PACKAGE).as_posix()
        assert layers.layer_of_module(relative) in layers.LAYERS
    with pytest.raises(KeyError):
        layers.layer_of_module("brand_new_module.py")
    with pytest.raises(KeyError):
        layers.layer_of_module("newpkg/thing.py")


def test_benchmark_json_is_the_metric_tables():
    written = json.loads((layers.REPO_ROOT / "BENCHMARK.json").read_text())
    assert written == metrics.benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in written[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(written["workloads"]) <= 8
    assert len(written["end_to_end"]) <= 16
    assert len(written["per_layer"]) <= 128
    assert list(workloads.WORKLOADS) == list(metrics.WORKLOAD_WHY)
    assert all(len(entry["why"]) <= 200 for entry in written["workloads"])
    assert all(entry["bound"] <= 0.25 for entry in written["end_to_end"])


def _result_of(*args: str) -> dict:
    done = subprocess.run(RUN + list(args), stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def test_untraced_run_emits_every_end_to_end_metric():
    result = _result_of("--workload", "embedded-tadom", "--seed", "42",
                        "--seconds", "0.1", "--trace", "0")
    expected = {m.name: m.unit for m in metrics.UNIVERSAL}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_shares_sum_to_one():
    result = _result_of("--workload", "embedded-node2pl", "--seed", "42",
                        "--seconds", "0.1", "--trace", "1")
    expected = {m.name: m.unit for m in metrics.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    shares = sum(values[f"{layer}.share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.02)
    assert values["trace.overhead_ratio"] > 1.0
    assert all(values[m.name] > 0 for m in metrics.DIRECT)
    trace = json.loads(
        (workloads.OUT_DIR / "trace-embedded-node2pl.json").read_text()
    )
    assert trace["edges"] and trace["top_functions"]


def test_tiny_traced_unit_shares_sum_to_one_and_repeat_identically():
    tiny = workloads.Embedded("taDOM3+", run_duration_ms=10_000)
    first = tiny.run_unit(42)
    second = tiny.run_unit(42, traced=True)
    assert first.fingerprint == second.fingerprint
    assert tiny.run_unit(43).fingerprint != first.fingerprint
    assert sum(layers.shares(second.fold).values()) == pytest.approx(1.0, abs=0.02)
    assert second.fold["self_s"]["wire"] == 0.0
    assert second.fold["self_s"]["splid"] > 0.0


def test_more_clients_than_cpus_are_refused():
    crowded = workloads.Served(10, clients=(os.cpu_count() or 1) + 1)
    with pytest.raises(workloads.CheckFailed, match="exceed nproc"):
        crowded.run_unit(42)


def test_percentile_refuses_a_tail_it_cannot_support():
    assert ledger.percentile(range(1000), 99) == 989
    assert ledger.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        ledger.percentile(range(999), 99)
    with pytest.raises(ValueError):
        ledger.percentile(range(19), 50)


class _Drifting:
    """A workload whose seeded result changes from unit to unit."""

    imports = "json"

    def __init__(self):
        self.units = 0

    def run_unit(self, seed, *, traced=False):
        self.units += 1
        return workloads.Unit(
            setup_s=0.0, wall_s=0.6, issued=10, committed=10,
            fingerprint=workloads.fingerprint({"unit": self.units}),
        )


def test_a_corrupted_fingerprint_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(runner.WORKLOADS, "embedded-tadom", _Drifting())
    code = run.main(["--workload", "embedded-tadom", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "fingerprints differ" in captured.err
    assert captured.out == ""


def _ledger_of(values, workload="embedded-tadom", metric="txn_per_s"):
    return {
        "workloads": {workload: {metric: ledger.summarize(values)}},
        "started_at": {workload: list(range(len(values)))},
    }


def test_compare_applies_bounds_and_marks_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    (row,) = ledger.compare(_ledger_of(steady), _ledger_of(steady))
    assert row["verdict"] == "ok" and row["ratio"] == pytest.approx(1.0)
    slower = [value * 0.7 for value in steady]
    (row,) = ledger.compare(_ledger_of(steady), _ledger_of(slower))
    assert row["verdict"] == "regressed"
    noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
    (row,) = ledger.compare(_ledger_of(steady), _ledger_of(noisy))
    assert row["verdict"] == "unresolved"
    # fail_share is bounded absolutely: any failure at all is a regression.
    clean, failing = [0.0] * 5, [0.0, 0.0, 0.01, 0.01, 0.01]
    (row,) = ledger.compare(_ledger_of(clean, metric="fail_share"),
                            _ledger_of(failing, metric="fail_share"))
    assert row["verdict"] == "regressed"


def test_paired_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    metric = metrics.BY_NAME["txn_per_s"]
    base = [100.0 + (i % 3) for i in range(10)]
    with pytest.raises(ValueError):
        ledger.paired_claim(metric, base, base, 9)
    with pytest.raises(ValueError):
        ledger.paired_claim(metric, base[:5], base, 10)
    faster = [value * 1.2 for value in base]
    alternating = [i % 2 == 0 for i in range(10)]
    assert ledger.paired_claim(metric, base, faster, 10, alternating)["claim_met"]
    one_sided = [True] * 10
    assert not ledger.paired_claim(metric, base, faster, 10, one_sided)["claim_met"]
    barely = [value + 0.5 for value in base]  # wins, but inside the IQR
    assert not ledger.paired_claim(metric, base, barely, 10)["claim_met"]
    mixed = faster[:7] + [value * 0.9 for value in base[7:]]
    assert not ledger.paired_claim(metric, base, mixed, 10)["claim_met"]


def test_the_benchmark_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(layers.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "embedded-tadom",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
