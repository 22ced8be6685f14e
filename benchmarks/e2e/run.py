"""The repo's end-to-end benchmark: six TaMix workloads, one command.

The ledger (every workload, every metric by name with unit, median,
quartiles and sample count; one fresh process per repeat)::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME]... [--repeats K]
                                 [--traced] [--output FILE [--append]]

One run of one workload in this process, as the driver of
``BENCHMARK.json`` calls it; the last line of standard output is the
result object, the line before it the run's details::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Comparing two ledgers against the bounds, and the paired rule for claims::

    python benchmarks/e2e/run.py --compare A.json B.json [--pairs N]

A failed output check is an error (exit code 1), never a number.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run once in this process, measuring this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 1 runs the traced run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="ledger: fresh-process repeats per workload")
    parser.add_argument("--traced", action="store_true",
                        help="ledger: add one traced run per workload")
    parser.add_argument("--output", type=Path, help="ledger: write JSON here")
    parser.add_argument("--append", action="store_true",
                        help="ledger: add the repeats to --output's samples")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="LEDGER")
    parser.add_argument("--pairs", type=int, default=0,
                        help="compare: also apply the paired rule to N pairs")
    return parser.parse_args(argv)


# -- one run in this process ----------------------------------------------------


def run_once(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: {SRC / 'repro'} not found; the benchmark measures "
              f"the repository it is checked out in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import runner
    from workloads import WORKLOADS, CheckFailed

    if not args.workload or len(args.workload) != 1:
        print("run.py: --seconds needs exactly one --workload", file=sys.stderr)
        return 2
    name = args.workload[0]
    if name not in WORKLOADS:
        print(f"run.py: unknown workload {name!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        detail, contract = runner.run(name, args.seed, args.seconds, args.trace)
    except CheckFailed as failure:
        print(f"run.py: output check failed on {name}: {failure}",
              file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(contract))
    return 0


# -- the ledger -------------------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: int):
    """One repeat = one fresh process; returns its (detail, metric values)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name}: run exited with code {done.returncode}")
    detail, result = (
        json.loads(line) for line in done.stdout.strip().splitlines()[-2:]
    )
    if not result["correct"]:
        raise RuntimeError(f"{name}: {result['failed']} transactions failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return detail["detail"], values


def repeat_workload(report: dict, name: str, args: argparse.Namespace) -> None:
    """Add ``args.repeats`` untraced repeats (and a traced run) of one
    workload to ``report``."""
    import ledger
    import metrics

    samples: Dict[str, List[float]] = {
        metric: list(summary["samples"])
        for metric, summary in report["workloads"].get(name, {}).items()
    }
    for _ in range(args.repeats):
        report["started_at"].setdefault(name, []).append(time.time())
        detail, values = child_run(name, args.seed, metrics.RUN_SECONDS, 0)
        known = report["fingerprints"].setdefault(name, detail["fingerprint"])
        if known != detail["fingerprint"]:
            raise RuntimeError(
                f"{name}: fingerprint {detail['fingerprint']} differs "
                f"from the earlier repeats' {known}"
            )
        values.update(detail["scoped"])
        for metric, value in values.items():
            samples.setdefault(metric, []).append(value)
        env = detail["env"]
        report["loadavg_at_start"].setdefault(name, []).append(
            env.pop("loadavg_at_start")
        )
        report["env"] = env
    report["workloads"][name] = {
        metric: ledger.summarize(values) for metric, values in samples.items()
    }
    if args.traced:
        _detail, report["traced"][name] = child_run(
            name, args.seed, metrics.RUN_SECONDS, 1
        )


def run_ledger(args: argparse.Namespace) -> int:
    import metrics

    names = args.workload or list(metrics.WORKLOAD_WHY)
    unknown = [name for name in names if name not in metrics.WORKLOAD_WHY]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("run.py: --repeats must be at least 1", file=sys.stderr)
        return 2
    report: Dict[str, object] = {
        "seed": args.seed, "run_seconds": metrics.RUN_SECONDS,
        "workloads": {}, "started_at": {}, "loadavg_at_start": {},
        "fingerprints": {}, "traced": {}, "env": {},
    }
    if args.append and args.output and args.output.exists():
        report = json.loads(args.output.read_text())
        if report["seed"] != args.seed:
            print("run.py: --append needs the seed the file was made with",
                  file=sys.stderr)
            return 2
    try:
        for name in names:
            repeat_workload(report, name, args)
    except RuntimeError as failure:
        print(f"run.py: {failure}", file=sys.stderr)
        return 1
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    print_ledger(report)
    return 0


def print_ledger(report: dict) -> None:
    import metrics

    print(f"{'workload':<17}{'metric':<34}{'unit':<9}"
          f"{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, by_metric in report["workloads"].items():
        for metric in metrics.END_TO_END:
            summary = by_metric.get(metric.name)
            if summary is None:
                continue
            print(f"{name:<17}{metric.name:<34}{metric.unit:<9}"
                  f"{summary['median']:>14.4f}{summary['q1']:>14.4f}"
                  f"{summary['q3']:>14.4f}{summary['n']:>4}")
        for metric_name, value in report["traced"].get(name, {}).items():
            unit = metrics.BY_NAME[metric_name].unit
            print(f"{name:<17}{metric_name:<34}{unit:<9}{value:>14.4f}"
                  f"{'':>14}{'':>14}{1:>4}")


# -- comparing ------------------------------------------------------------------


def run_compare(args: argparse.Namespace) -> int:
    import ledger
    import metrics

    base, new = (json.loads(path.read_text()) for path in args.compare)
    rows = ledger.compare(base, new)
    print(f"{'workload':<17}{'metric':<16}{'base':>12}{'new':>12}{'ratio':>8}"
          f"{'bound':>7}{'spread a/b':>14}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        spreads = f"{row['base_spread']:.3f}/{row['new_spread']:.3f}"
        print(f"{row['workload']:<17}{row['metric']:<16}{row['base']:>12.4f}"
              f"{row['new']:>12.4f}{ratio:>8}{row['bound']:>7.2f}"
              f"{spreads:>14}  {row['verdict']}")
    if args.pairs:
        print(f"\npaired rule over {args.pairs} pairs "
              f"(win >= {ledger.WIN_SHARE:.0%}, median gap > parent IQR):")
        for row in rows:
            workload, metric = row["workload"], metrics.BY_NAME[row["metric"]]
            order = [a < b for a, b in zip(base["started_at"][workload],
                                           new["started_at"][workload])]
            try:
                claim = ledger.paired_claim(
                    metric,
                    base["workloads"][workload][metric.name]["samples"],
                    new["workloads"][workload][metric.name]["samples"],
                    args.pairs, order,
                )
            except ValueError as problem:
                print(f"run.py: {problem}", file=sys.stderr)
                return 2
            print(f"{workload:<17}{metric.name:<16}wins {claim['wins']:>2}/"
                  f"{claim['pairs']}  gap {claim['median_gap']:.4f} vs IQR "
                  f"{claim['parent_iqr']:.4f}  alternating="
                  f"{claim['alternating']}  claim_met={claim['claim_met']}")
    verdicts = {row["verdict"] for row in rows}
    if "regressed" in verdicts:
        return 1
    return 3 if "unresolved" in verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.seconds is not None:
        return run_once(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
