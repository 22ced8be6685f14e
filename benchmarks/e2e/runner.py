"""One run of one workload in this process: what ``run.py --workload W
--seed N --seconds S --trace T`` does.

Untraced (``trace=0``): units of fixed work repeat until ``seconds`` of
measured time are spent; set-up time is the median over the units, the
transaction rate that of the fastest unit.
Traced (``trace=1``): one untraced unit gives the counts, the latencies
and the wall time to compare against; one unit under ``cProfile`` gives
the per-layer shares; then the direct-call rates run.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import direct
import layers
import ledger
import metrics
from workloads import OUT_DIR, WORKLOADS, CheckFailed, Unit, live_children

IMPORT_SAMPLES = 3


def environment(seed: int) -> Dict[str, object]:
    """What a reader needs to judge how noisy the machine was."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=layers.REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def import_seconds(modules: str) -> float:
    """Interpreter start to ``modules`` imported, in fresh processes.  The
    first sample may compile bytecode; the median of three does not."""
    code = f"import sys; sys.path.insert(0, {str(layers.SRC)!r}); import {modules}"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def check_clean() -> None:
    """No child process left alive, no temp dir left behind."""
    leftovers = live_children()
    if leftovers:
        raise CheckFailed(f"child processes left alive: {sorted(leftovers)}")
    if OUT_DIR.is_dir():
        stale = [p.name for p in OUT_DIR.iterdir() if p.is_dir()]
        if stale:
            raise CheckFailed(f"temp dirs left behind in {OUT_DIR}: {stale}")


def check_fingerprints(units: List[Unit]) -> Optional[str]:
    """Every unit ran the same seeded work, so results must be identical."""
    prints = {unit.fingerprint for unit in units}
    if len(prints) != 1:
        raise CheckFailed(f"run fingerprints differ between units: {prints}")
    return prints.pop()


def run_unit(workload, seed: int, *, traced: bool = False) -> Unit:
    gc.collect()  # the previous unit's document must not bill this one
    unit = workload.run_unit(seed, traced=traced)
    unit.own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return unit


def scoped_metrics(name: str, units: List[Unit]) -> Dict[str, float]:
    """The end-to-end metrics that exist on this workload only."""
    issued = sum(unit.issued for unit in units)
    scoped = {"fail_share": sum(unit.failed for unit in units) / issued}
    if name == "served-closed":
        txn_ms = [ms for unit in units for ms in unit.samples["txn_ms"]]
        req_ms = [ms for unit in units for key, sample in unit.samples.items()
                  if key.startswith("req_ms.") for ms in sample]
        scoped["txn_p50_ms"] = ledger.percentile(txn_ms, 50)
        scoped["txn_p99_ms"] = ledger.percentile(txn_ms, 99)
        scoped["req_p50_ms"] = ledger.percentile(req_ms, 50)
        scoped["req_p99_ms"] = ledger.percentile(req_ms, 99)
    if name == "sharded-wal":
        scoped["wal_write_amp"] = statistics.median(
            unit.counts["wal_write_amp"] for unit in units
        )
    return scoped


def count_metrics(units: List[Unit]) -> Dict[str, float]:
    """Layer counts (median over units) and per-opcode latencies."""
    names = {name for unit in units for name in unit.counts}
    counts = {
        name: statistics.median(
            unit.counts[name] for unit in units if name in unit.counts
        )
        for name in names if name in metrics.BY_NAME
    }
    for opcode, high in metrics.SERVER_PERCENTILES.items():
        pooled = [ms for unit in units
                  for ms in unit.samples.get(f"req_ms.{opcode.upper()}", ())]
        if pooled:
            counts[f"server.{opcode}_p50_ms"] = ledger.percentile(pooled, 50)
            counts[f"server.{opcode}_p{high}_ms"] = ledger.percentile(
                pooled, high
            )
    return counts


def peak_rss_mb(units: List[Unit]) -> float:
    """Peak RSS of the process and its children over the *first* unit.
    Later units reuse the heap the first one left behind, and how well
    they fit into it varies by 10 MiB with the seed; the first unit
    starts from a fresh process, as a user's run does."""
    first = units[0]
    return (first.own_rss_kb + first.child_rss_kb) / 1024.0


def contract_line(units: List[Unit], values: Dict[str, float]) -> dict:
    failed = sum(unit.failed for unit in units)
    return {
        "correct": failed == 0,
        "attempted": sum(unit.issued for unit in units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.BY_NAME[name].unit}
            for name, value in values.items()
        },
    }


def run_untraced(name: str, seed: int, seconds: float) -> Tuple[dict, dict]:
    workload = WORKLOADS[name]
    import_s = import_seconds(workload.imports)
    units: List[Unit] = []
    while sum(unit.wall_s for unit in units) < seconds:
        units.append(run_unit(workload, seed))
    fingerprint = check_fingerprints(units)
    check_clean()
    end_to_end = {
        "setup_s": import_s + statistics.median(u.setup_s for u in units),
        # Every unit does the same seeded work, so units differ only by
        # what else the machine was doing, and that only ever slows one
        # down: the fastest unit is the steadiest estimate of the rate
        # (README "Noise": spread 2.3% against the median's 6.0%).
        "txn_per_s": max(u.committed / u.wall_s for u in units),
        "peak_rss_mb": peak_rss_mb(units),
    }
    detail = {
        "workload": name,
        "units": len(units),
        "unit_wall_s": [unit.wall_s for unit in units],
        "unit_setup_s": [unit.setup_s for unit in units],
        "import_s": import_s,
        "fingerprint": fingerprint,
        "scoped": scoped_metrics(name, units),
        "counts": count_metrics(units),
        "detail": units[-1].detail,
    }
    return detail, contract_line(units, end_to_end)


def run_traced(name: str, seed: int) -> Tuple[dict, dict]:
    workload = WORKLOADS[name]
    base = run_unit(workload, seed)
    traced = run_unit(workload, seed, traced=True)
    # The traced unit (for sharded-proc: its in-process twin) must have
    # done exactly the work the untraced one did.
    fingerprint = check_fingerprints([base, traced])
    rates = direct.run_all(OUT_DIR)
    check_clean()
    fold = traced.fold
    if fold is None:
        raise CheckFailed(f"{name}: the traced unit returned no profile")
    values: Dict[str, float] = dict.fromkeys(
        (metric.name for metric in metrics.PER_LAYER), 0.0
    )
    values.update(scoped_metrics(name, [base]))
    for layer, share in layers.shares(fold).items():
        values[f"{layer}.share"] = share
        values[f"{layer}.calls"] = fold["calls"][layer]
    values["trace.self_total_s"] = sum(fold["self_s"].values())
    values["trace.overhead_ratio"] = traced.wall_s / base.wall_s
    values.update(count_metrics([traced]))
    values.update(count_metrics([base]))
    values.update(rates)
    unknown = set(values) - set(metrics.BY_NAME)
    if unknown:
        raise CheckFailed(f"metrics without a definition: {sorted(unknown)}")
    trace_file = OUT_DIR / f"trace-{name}.json"
    OUT_DIR.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": traced.wall_s,
        "self_s": fold["self_s"],
        "calls": fold["calls"],
        "edges": dict(sorted(
            fold["edges"].items(), key=lambda item: -item[1]["cum_s"]
        )),
        "top_functions": fold["top"],
        "untraced_detail": base.detail,
        "traced_detail": traced.detail,
    }, indent=1))
    detail = {
        "workload": name,
        "fingerprint": fingerprint,
        "trace_file": str(trace_file.relative_to(layers.REPO_ROOT)),
    }
    return detail, contract_line([base], values)


def run(name: str, seed: int, seconds: float, trace: int) -> Tuple[dict, dict]:
    """Returns (detail line, contract line); raises ``CheckFailed``."""
    env = environment(seed)
    if trace:
        detail, contract = run_traced(name, seed)
    else:
        detail, contract = run_untraced(name, seed, seconds)
    detail["env"] = env
    return detail, contract
