"""Command-line interface: run the paper's experiments from the shell.

::

    python -m repro info
    python -m repro cluster1 --protocol taDOM3+ --lock-depth 4
    python -m repro cluster2
    python -m repro sweep --isolation none repeatable --depths 0 2 4 6
    python -m repro sweep --depths 2 4 --verify
    python -m repro trace --protocol taDOM2 --output trace.jsonl
    python -m repro verify traces/ --crash
    python -m repro metrics --protocol taDOM3+ --format json
    python -m repro query document.xml "//book[@year='1993']/title/text()"
    python -m repro stats document.xml
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.core import ALL_PROTOCOLS, GROUPS, group_of
from repro.dom import parse_document, serialize_subtree
from repro.locking import IsolationLevel
from repro.query import evaluate_raw
from repro.splid import Splid
from repro.tamix import run_cluster1, run_cluster2

_ISOLATIONS = [level.value for level in IsolationLevel]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contest of XML Lock Protocols (VLDB 2006) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and protocol inventory")

    c1 = sub.add_parser("cluster1", help="one CLUSTER1 benchmark run")
    c1.add_argument("--protocol", default="taDOM3+", choices=ALL_PROTOCOLS)
    c1.add_argument("--lock-depth", type=int, default=4)
    c1.add_argument("--isolation", default="repeatable",
                    choices=_ISOLATIONS)
    c1.add_argument("--scale", type=float, default=0.1)
    c1.add_argument("--seconds", type=float, default=60.0)
    c1.add_argument("--seed", type=int, default=42)

    c2 = sub.add_parser("cluster2", help="CLUSTER2 delete times, all protocols")
    c2.add_argument("--scale", type=float, default=0.1)
    c2.add_argument("--seed", type=int, default=7)

    sweep = sub.add_parser("sweep", help="lock-depth sweep (figure 9/10 style)")
    sweep.add_argument("--protocols", nargs="*", default=None,
                       help="default: all depth-aware protocols")
    sweep.add_argument("--depths", nargs="*", type=int,
                       default=[0, 1, 2, 3, 4, 5, 6, 7])
    sweep.add_argument("--isolation", nargs="+", default=["repeatable"],
                       choices=_ISOLATIONS,
                       help="isolation levels to sweep (default: repeatable)")
    sweep.add_argument("--scale", type=float, default=0.1)
    sweep.add_argument("--seconds", type=float, default=60.0)
    sweep.add_argument("--runs", type=int, default=1,
                       help="repetitions per cell (averaged)")
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument("--shards", nargs="+", type=int, default=[1],
                       help="shard counts to sweep (1 = single node; "
                            ">1 partitions the document by SPLID range "
                            "and runs one replica stack per shard)")
    sweep.add_argument("--shard-transport", default="sim",
                       choices=["sim", "process"],
                       help="how sharded cells host their shards: the "
                            "deterministic simulated network or real "
                            "OS processes (results are identical)")
    sweep.add_argument("--fault-schedule", default=None,
                       help="fault schedule (built-in name or JSON path) "
                            "applied to sharded cells; uses the "
                            "net.request/net.reply/shard.crash sites")
    sweep.add_argument("--chaos-seed", type=int, default=0,
                       help="chaos engine base seed for faulted sharded "
                            "cells (default: 0)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for the sweep cells "
                            "(1 = serial; results are identical)")
    sweep.add_argument("--csv", default=None,
                       help="also write the full result matrix as CSV")
    sweep.add_argument("--json", default=None,
                       help="also write the full result matrix as JSON")
    sweep.add_argument("--trace-dir", default=None,
                       help="capture a JSONL event trace per cell run "
                            "into this directory")
    sweep.add_argument("--progress", action="store_true",
                       help="print a live per-cell heartbeat to stderr")
    sweep.add_argument("--verify", action="store_true",
                       help="record op.access traces and run the "
                            "repro.verify history oracle on every cell "
                            "(uses a temp dir unless --trace-dir is set)")
    sweep.add_argument("--journal", default=None,
                       help="append every finished cell to this JSONL "
                            "journal (enables --resume)")
    sweep.add_argument("--resume", action="store_true",
                       help="aggregate cells already in --journal instead "
                            "of re-running them (byte-identical to an "
                            "uninterrupted run)")
    sweep.add_argument("--stop-after", type=int, default=None,
                       help="stop after N freshly executed cells (for "
                            "testing --resume round trips)")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       help="per-cell timeout in seconds for parallel "
                            "execution (timed-out cells re-run serially)")
    sweep.add_argument("--cell-retries", type=int, default=1,
                       help="extra serial attempts for a failing cell "
                            "(default: 1)")

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded workload under a fault schedule and verify "
             "invariants (serializability, bit-identical recovery, no "
             "lost commits)",
    )
    chaos.add_argument("--protocol", default="taDOM3+", choices=ALL_PROTOCOLS)
    chaos.add_argument("--lock-depth", type=int, default=4)
    chaos.add_argument("--isolation", default="repeatable",
                       choices=_ISOLATIONS)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--schedule", default="ci-small",
                       help="built-in schedule name or JSON schedule file "
                            "(default: ci-small)")
    chaos.add_argument("--scale", type=float, default=0.05)
    chaos.add_argument("--seconds", type=float, default=8.0)
    chaos.add_argument("--shards", type=int, default=1,
                       help="run the sharded chaos plane with this many "
                            "shards (default 1: single-node chaos; >1 "
                            "uses network/crash fault sites and the "
                            "per-shard WAL recovery oracle)")
    chaos.add_argument("--shard-transport", default="sim",
                       choices=["sim", "process"],
                       help="transport for sharded chaos runs "
                            "(default: sim)")
    chaos.add_argument("--chaos-seed", type=int, default=None,
                       help="fault-stream seed (default: --seed)")
    chaos.add_argument("--trace", default=None,
                       help="keep the run's JSONL event trace at this path")
    chaos.add_argument("--json", default=None,
                       help="write the chaos report as JSON to this file")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="run twice and require identical fault points, "
                            "retry counts, and final verified state")

    trace = sub.add_parser(
        "trace",
        help="run one CLUSTER1 cell with event tracing; write a JSONL trace",
    )
    _add_cell_arguments(trace)
    trace.add_argument("--output", default="trace.jsonl",
                       help="JSONL trace file (default: trace.jsonl)")
    trace.add_argument("--verify", action="store_true",
                       help="replay the written trace and check its "
                            "aggregated counters against the run metrics")
    trace.add_argument("--access-events", action="store_true",
                       help="also record op.access/run.info events so "
                            "`repro verify` can check the trace")

    metrics = sub.add_parser(
        "metrics",
        help="run one CLUSTER1 cell and dump the metrics registry",
    )
    _add_cell_arguments(metrics)
    metrics.add_argument("--format", default="text",
                         choices=["text", "json", "csv"])
    metrics.add_argument("--output", default=None,
                         help="write to a file instead of stdout")

    modes = sub.add_parser(
        "modes", help="print a protocol's lock matrices (the paper's figures)"
    )
    modes.add_argument("protocol", choices=ALL_PROTOCOLS)
    modes.add_argument("--space", default=None,
                       help="lock space (default: all spaces)")

    xmark = sub.add_parser(
        "xmark", help="the unsuitable benchmark: read-only XMark-style mix"
    )
    xmark.add_argument("--scale", type=float, default=0.1)
    xmark.add_argument("--seconds", type=float, default=20.0)

    query = sub.add_parser("query", help="evaluate a path expression on an XML file")
    query.add_argument("file")
    query.add_argument("path")

    stats = sub.add_parser("stats", help="storage statistics for an XML file")
    stats.add_argument("file")

    report = sub.add_parser(
        "report", help="render a sweep.json into a Markdown/HTML report",
    )
    report.add_argument("sweep_json",
                        help="sweep result file written by "
                             "`repro sweep --json`")
    report.add_argument("--format", default="md", choices=["md", "html"],
                        help="report format (default: md)")
    report.add_argument("--title", default="TaMix sweep report")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")

    verify = sub.add_parser(
        "verify",
        help="check recorded traces with the history oracle "
             "(serializability, lock conformance, two-phase) and/or run "
             "the WAL crash-point fault-injection suite",
    )
    verify.add_argument("target", nargs="?", default=None,
                        help="a JSONL trace (recorded with op.access "
                             "events) or a directory of traces; omit to "
                             "run only the crash suite")
    verify.add_argument("--protocol", default=None, choices=ALL_PROTOCOLS,
                        help="override the trace's run.info protocol")
    verify.add_argument("--lock-depth", type=int, default=None,
                        help="override the trace's run.info lock depth")
    verify.add_argument("--crash", action="store_true",
                        help="also run the crash-point fault-injection "
                             "suite against the WAL")
    verify.add_argument("--max-violations", type=int, default=10,
                        help="violations printed per trace (default: 10)")

    analyze = sub.add_parser(
        "analyze",
        help="analyze a JSONL event trace: blocking chains, hotspots, "
             "critical path",
    )
    analyze.add_argument("trace", help="JSONL trace file (from `repro "
                                       "trace` or `repro sweep --trace-dir`)")
    analyze.add_argument("--prefix-depth", type=int, default=2,
                         help="SPLID divisions for subtree hotspot "
                              "grouping (default: 2)")
    analyze.add_argument("--top", type=int, default=8,
                         help="rows per hotspot/chain listing")

    serve = sub.add_parser(
        "serve",
        help="serve a bib database over the wire protocol (asyncio)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7420,
                       help="TCP port (0 picks a free one; default: 7420)")
    serve.add_argument("--protocol", default="taDOM3+", choices=ALL_PROTOCOLS)
    serve.add_argument("--lock-depth", type=int, default=4)
    serve.add_argument("--isolation", default="repeatable",
                       choices=_ISOLATIONS)
    serve.add_argument("--scale", type=float, default=0.1,
                       help="bib document scale (default: 0.1)")
    serve.add_argument("--seed", type=int, default=2006)
    serve.add_argument("--wait-timeout-ms", type=float, default=5000.0,
                       help="lock-wait timeout, wall ms (default: 5000)")
    serve.add_argument("--admission", action="store_true",
                       help="shed BEGINs under restart pressure "
                            "(AdmissionController at the network edge)")
    serve.add_argument("--max-pressure", type=int, default=8,
                       help="admission pressure threshold (default: 8)")
    serve.add_argument("--wal", action="store_true",
                       help="enable write-ahead logging")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this uptime (CI smoke); "
                            "default: serve until Ctrl-C")

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop TaMix load generator (live TCP or deterministic "
             "simulation)",
    )
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="drive a live server (default: deterministic "
                              "in-process simulation)")
    loadgen.add_argument("--sim", action="store_true",
                         help="force the deterministic in-process mode "
                              "(the default when --connect is absent)")
    loadgen.add_argument("--clients", type=int, default=100,
                         help="concurrent simulated clients (default: 100)")
    loadgen.add_argument("--duration-ms", type=float, default=10_000.0,
                         help="arrival window, ms (default: 10000)")
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="total offered load, txn/s (default: 100)")
    loadgen.add_argument("--arrival", default="poisson",
                         choices=["poisson", "uniform"])
    loadgen.add_argument("--think-ms", type=float, default=5.0,
                         help="mean think time per visited node "
                              "(default: 5)")
    loadgen.add_argument("--think-dist", default="exponential",
                         choices=["fixed", "uniform", "exponential"])
    loadgen.add_argument("--zipf", type=float, default=1.1, metavar="S",
                         help="zipf exponent for document hotspots "
                              "(0 = uniform; default: 1.1)")
    loadgen.add_argument("--seed", type=int, default=2006)
    loadgen.add_argument("--pool-size", type=int, default=0,
                         help="live-mode socket cap (0 = min(clients, 64))")
    loadgen.add_argument("--no-retry", action="store_true",
                         help="give up on the first abort/shed instead of "
                              "retrying client-side")
    loadgen.add_argument("--protocol", default="taDOM3+",
                         choices=ALL_PROTOCOLS,
                         help="sim mode: lock protocol (default: taDOM3+)")
    loadgen.add_argument("--lock-depth", type=int, default=4,
                         help="sim mode: lock depth (default: 4)")
    loadgen.add_argument("--scale", type=float, default=0.1,
                         help="sim mode: bib document scale (default: 0.1)")
    loadgen.add_argument("--admission", action="store_true",
                         help="sim mode: shed under restart pressure")
    loadgen.add_argument("--output", default=None, metavar="FILE",
                         help="write the JSON report here (default: stdout)")

    telemetry = sub.add_parser(
        "telemetry",
        help="scrape a server's windowed telemetry series (or render one "
             "from a deterministic sim run)",
    )
    telemetry.add_argument("--connect", default=None, metavar="HOST:PORT",
                           help="scrape a live server (default: run the "
                                "seeded in-process simulation and render "
                                "its series -- byte-identical per seed)")
    telemetry.add_argument("--prom", action="store_true",
                           help="Prometheus text exposition of the "
                                "cumulative snapshot instead of JSON")
    telemetry.add_argument("--json", action="store_true",
                           help="force JSON output (the default)")
    telemetry.add_argument("--output", default=None, metavar="FILE",
                           help="write to a file instead of stdout")
    telemetry.add_argument("--seed", type=int, default=2006,
                           help="sim mode: loadgen seed (default: 2006)")
    telemetry.add_argument("--scale", type=float, default=0.05,
                           help="sim mode: bib document scale")
    telemetry.add_argument("--clients", type=int, default=20,
                           help="sim mode: simulated clients (default: 20)")
    telemetry.add_argument("--duration-ms", type=float, default=4_000.0,
                           help="sim mode: arrival window, simulated ms")
    telemetry.add_argument("--rate", type=float, default=200.0,
                           help="sim mode: offered load, txn/s")
    telemetry.add_argument("--window-ms", type=float, default=1_000.0,
                           help="sim mode: telemetry window, simulated ms")
    telemetry.add_argument("--protocol", default="taDOM3+",
                           choices=ALL_PROTOCOLS,
                           help="sim mode: lock protocol")
    telemetry.add_argument("--lock-depth", type=int, default=4,
                           help="sim mode: lock depth")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a server's telemetry stream "
             "(SUBSCRIBE)",
    )
    top.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="the server to watch")
    top.add_argument("--windows", type=int, default=0, metavar="N",
                     help="stop after N windows (default: until Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append each window instead of redrawing "
                          "(useful for logs/pipes)")

    return parser


def _add_cell_arguments(parser) -> None:
    """Shared knobs for commands that run one CLUSTER1 cell."""
    parser.add_argument("--protocol", default="taDOM3+", choices=ALL_PROTOCOLS)
    parser.add_argument("--lock-depth", type=int, default=4)
    parser.add_argument("--isolation", default="repeatable",
                        choices=_ISOLATIONS)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--wal", action="store_true",
                        help="enable write-ahead logging (adds wal.* "
                             "metrics)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "cluster1": _cmd_cluster1,
        "cluster2": _cmd_cluster2,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "modes": _cmd_modes,
        "xmark": _cmd_xmark,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "report": _cmd_report,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "telemetry": _cmd_telemetry,
        "top": _cmd_top,
    }[args.command]
    return handler(args)


# -- commands -----------------------------------------------------------------


def _cmd_info(_args) -> int:
    print(f"repro {__version__} -- Contest of XML Lock Protocols (VLDB 2006)")
    for group, members in GROUPS.items():
        print(f"  {group:<8} {', '.join(members)}")
    return 0


def _cmd_cluster1(args) -> int:
    result = run_cluster1(
        args.protocol,
        lock_depth=args.lock_depth,
        isolation=args.isolation,
        scale=args.scale,
        run_duration_ms=args.seconds * 1000.0,
        seed=args.seed,
    )
    print(result.summary())
    print(f"  deadlock kinds : {result.deadlocks_by_kind}")
    print(f"  lock stats     : {result.lock_stats}")
    for name, metrics in sorted(result.by_type.items()):
        if metrics.durations:
            print(
                f"  {name:<17} avg={metrics.avg_duration:8.1f} ms  "
                f"min={metrics.min_duration:8.1f}  max={metrics.max_duration:8.1f}"
            )
    return 0


def _cmd_cluster2(args) -> int:
    print("CLUSTER2: single TAdelBook execution time [simulated ms]")
    for name in ALL_PROTOCOLS:
        elapsed = run_cluster2(name, scale=args.scale, seed=args.seed)
        print(f"  {name:<9} ({group_of(name):<7}) {elapsed:9.2f}")
    return 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.core.registry import depth_aware_protocols
    from repro.errors import BenchmarkError
    from repro.tamix.sweep import SweepRunner, SweepSpec

    protocols = args.protocols or depth_aware_protocols()
    spec = SweepSpec(
        protocols=protocols,
        lock_depths=tuple(args.depths),
        isolations=tuple(args.isolation),
        runs_per_cell=args.runs,
        scale=args.scale,
        run_duration_ms=args.seconds * 1000.0,
        base_seed=args.seed,
        shards=tuple(args.shards),
        shard_transport=args.shard_transport,
        fault_schedule=args.fault_schedule,
        chaos_seed=args.chaos_seed,
    )
    try:
        total = len(list(spec.cells()))
    except BenchmarkError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    trace_dir = args.trace_dir
    scratch = None
    if args.verify and trace_dir is None:
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="repro-verify-")
        trace_dir = scratch.name
    runner = SweepRunner(spec, workers=args.workers,
                         trace_dir=trace_dir,
                         access_events=args.verify,
                         journal=args.journal,
                         resume=args.resume,
                         cell_timeout_s=args.cell_timeout,
                         cell_retries=args.cell_retries)
    progress = None
    if args.progress:
        state = {"done": 0}

        def progress(cell, outcome):
            state["done"] += 1
            shard_tag = f" s{cell.shards}" if cell.shards > 1 else ""
            print(
                f"[{state['done']}/{total}] {cell.protocol} "
                f"d{cell.lock_depth} {cell.isolation}{shard_tag} "
                f"r{cell.run}: "
                f"committed={outcome.committed} aborted={outcome.aborted}",
                file=sys.stderr, flush=True,
            )

    runner.run(progress=progress, stop_after=args.stop_after)
    if args.resume and runner.resumed_cells:
        print(f"resumed {runner.resumed_cells} cell(s) from {args.journal}",
              file=sys.stderr)
    depths = sorted(set(args.depths))  # series values come back depth-sorted
    for isolation in args.isolation:
        for count in args.shards:
            series = runner.series(metric="committed", isolation=isolation,
                                   shards=count)
            tags = []
            if len(args.isolation) > 1:
                tags.append(f"isolation={isolation}")
            if len(args.shards) > 1 or count > 1:
                tags.append(f"shards={count}")
            if tags:
                print("-- " + " ".join(tags))
            print("protocol   " + "".join(f"d{d:<7}" for d in depths))
            for name in protocols:
                cells = "".join(f"{value:<8g}"
                                for value in series.get(name, []))
                print(f"{name:<11}" + cells)
    if args.csv:
        Path(args.csv).write_text(runner.to_csv(include_histogram=True))
        print(f"wrote {args.csv}")
    if args.json:
        Path(args.json).write_text(runner.to_json())
        print(f"wrote {args.json}")
    if args.trace_dir:
        traces = sorted(Path(args.trace_dir).glob("*.jsonl"))
        print(f"wrote {len(traces)} traces to {args.trace_dir}")
    if args.verify:
        from repro.verify import verify_trace

        failed = False
        for trace in sorted(Path(trace_dir).glob("*.jsonl")):
            report = verify_trace(trace)
            print(f"verify {trace.name}: {report.summary()}")
            for violation in report.violations[:10]:
                print(f"  {violation}")
            failed = failed or not report.ok
        if scratch is not None:
            scratch.cleanup()
        if failed:
            return 1
    return 0


def _run_observed_cell(args, *, sink=None):
    """Run one CLUSTER1 cell with observability enabled."""
    from repro.obs import Observability
    from repro.tamix.cluster import run_cluster1 as run_cell

    obs = Observability.enabled(
        capacity=None, sink=sink,
        access_events=getattr(args, "access_events", False),
    )
    result = run_cell(
        args.protocol,
        lock_depth=args.lock_depth,
        isolation=args.isolation,
        scale=args.scale,
        run_duration_ms=args.seconds * 1000.0,
        seed=args.seed,
        observability=obs,
        enable_wal=getattr(args, "wal", False),
    )
    obs.close()
    return obs, result


def _cmd_trace(args) -> int:
    obs, result = _run_observed_cell(args, sink=args.output)
    print(result.summary())
    print(f"wrote {args.output} ({len(obs.tracer.events())} events)")
    for kind, count in sorted(obs.tracer.counts_by_kind().items()):
        print(f"  {kind:<20} {count}")
    if args.verify:
        from repro.obs import aggregate, load_jsonl

        totals = aggregate(load_jsonl(args.output))
        checks = [
            ("committed", totals.get("committed", 0), result.committed),
            ("aborted.deadlock", totals.get("aborted.deadlock", 0),
             result.aborted_by_kind["deadlock"]),
            ("aborted.timeout", totals.get("aborted.timeout", 0),
             result.aborted_by_kind["timeout"]),
            ("lock waits", totals.get("lock.block", 0),
             result.lock_stats["waits"]),
        ]
        failed = False
        for label, from_trace, from_metrics in checks:
            ok = from_trace == from_metrics
            failed = failed or not ok
            print(f"  verify {label:<18} trace={from_trace:<6} "
                  f"metrics={from_metrics:<6} {'ok' if ok else 'MISMATCH'}")
        if failed:
            return 1
    return 0


def _cmd_metrics(args) -> int:
    from pathlib import Path

    obs, result = _run_observed_cell(args)
    registry = obs.metrics
    if args.format == "json":
        body = registry.to_json() + "\n"
    elif args.format == "csv":
        body = registry.to_csv()
    else:
        lines = [result.summary()]
        for name, value in registry.as_dict().items():
            if isinstance(value, dict):  # histogram
                lines.append(f"  {name:<24} count={value['count']} "
                             f"mean={value['mean']:.2f} max={value['max']:.2f}")
                lines.append(f"    buckets: {value['buckets']}")
            else:
                lines.append(f"  {name:<24} {value}")
        body = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(body)
        print(f"wrote {args.output}")
    else:
        print(body, end="")
    return 0


def _cmd_modes(args) -> int:
    from repro.core import get_protocol

    protocol = get_protocol(args.protocol)
    for space, table in protocol.tables().items():
        if args.space is not None and space != args.space:
            continue
        print(f"=== lock space: {space} ===")
        print(table.format_compatibility())
        print()
        print(table.format_conversions())
        print()
    return 0


def _cmd_xmark(args) -> int:
    from repro.tamix.xmark import generate_auction, run_xmark

    print("read-only XMark-style mix (Section 4.1: cannot stress the "
          "lock manager)")
    for name in ("Node2PLa", "URIX", "taDOM3+"):
        info = generate_auction(scale=args.scale)
        result = run_xmark(name, info=info,
                           run_duration_ms=args.seconds * 1000.0)
        print(f"  {name:<9} queries={result.completed_queries:<6} "
              f"waits={result.lock_waits:<4} deadlocks={result.deadlocks}")
    return 0


def _cmd_query(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        document = parse_document(handle.read())
    result = evaluate_raw(document, args.path)
    for item in result:
        if isinstance(item, Splid):
            print(serialize_subtree(document, item))
        else:
            print(item)
    return 0 if result else 1


def _cmd_stats(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        document = parse_document(handle.read())
    for key, value in sorted(document.statistics().items()):
        print(f"{key:<22} {value:,.2f}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.tamix.sweep_report import render_html, render_markdown

    if not Path(args.sweep_json).is_file():
        print(f"no sweep result file at {args.sweep_json}", file=sys.stderr)
        return 1
    render = render_html if args.format == "html" else render_markdown
    body = render(args.sweep_json, title=args.title)
    if args.output:
        Path(args.output).write_text(body, encoding="utf-8")
        print(f"wrote {args.output} ({len(body)} bytes)")
    else:
        print(body, end="")
    return 0


def _cmd_verify(args) -> int:
    from pathlib import Path

    from repro.verify import run_crash_suite, verify_trace

    if args.target is None and not args.crash:
        print("nothing to do: pass a trace (or trace directory) and/or "
              "--crash", file=sys.stderr)
        return 2
    failed = False
    if args.target is not None:
        target = Path(args.target)
        traces = sorted(target.glob("*.jsonl")) if target.is_dir() else [target]
        if not traces:
            print(f"no .jsonl traces in {target}", file=sys.stderr)
            return 2
        for trace in traces:
            report = verify_trace(
                trace, protocol=args.protocol, lock_depth=args.lock_depth
            )
            print(f"{trace.name}: {report.summary()}")
            for violation in report.violations[:args.max_violations]:
                print(f"  {violation}")
            failed = failed or not report.ok
    if args.crash:
        crash = run_crash_suite(
            protocol=args.protocol or "taDOM3+",
            lock_depth=args.lock_depth if args.lock_depth is not None else 4,
        )
        print(f"crash suite: {crash.summary()}")
        for failure in crash.failures[:args.max_violations]:
            print(f"  {failure}")
        failed = failed or not crash.ok
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.chaos import load_schedule, run_chaos

    schedule = load_schedule(args.schedule)

    def one_run():
        if args.shards > 1:
            from repro.shard.chaosrun import run_shard_chaos

            return run_shard_chaos(
                schedule,
                seed=args.seed,
                protocol=args.protocol,
                lock_depth=args.lock_depth,
                isolation=args.isolation,
                shards=args.shards,
                scale=args.scale,
                run_duration_ms=args.seconds * 1000.0,
                transport=args.shard_transport,
                trace_path=args.trace,
                chaos_seed=args.chaos_seed,
            )
        return run_chaos(
            schedule,
            seed=args.seed,
            protocol=args.protocol,
            lock_depth=args.lock_depth,
            isolation=args.isolation,
            scale=args.scale,
            run_duration_ms=args.seconds * 1000.0,
            trace_path=args.trace,
        )

    report = one_run()
    print(report.summary())
    for site, rate in sorted(report.injection_rates.items()):
        ops = report.faults
        fired = sum(v for k, v in ops.items() if k.startswith(site + ":"))
        print(f"  {site:<14} rate={rate:7.4f}  faults={fired}")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    for violation in report.oracle_violations[:10]:
        print(f"    {violation}")
    if args.check_determinism:
        second = one_run()
        identical = second.fingerprint == report.fingerprint
        print(f"  determinism: {'ok' if identical else 'MISMATCH'} "
              f"({report.fingerprint[:16]} vs {second.fingerprint[:16]})")
        if not identical:
            return 1
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    from repro.obs import TraceAnalysis

    analysis = TraceAnalysis.from_jsonl(
        args.trace, prefix_depth=args.prefix_depth
    )
    print(analysis.render_text(top=args.top))
    return 0


def _cmd_serve(args) -> int:
    import json as json_module

    from repro.chaos.retry import AdmissionPolicy
    from repro.net.server import ServerConfig, run_server

    admission = None
    if args.admission:
        admission = AdmissionPolicy(max_pressure=args.max_pressure)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        protocol=args.protocol,
        lock_depth=args.lock_depth,
        isolation=args.isolation,
        scale=args.scale,
        seed=args.seed,
        wait_timeout_ms=args.wait_timeout_ms,
        enable_wal=args.wal,
        admission=admission,
    )

    def ready(server, host, port):
        info = server.server_info()
        print(f"serving {info['protocol']} depth={info['lock_depth']} "
              f"{info['isolation']} ({info['nodes']} nodes) "
              f"on {host}:{port}", flush=True)

    server = run_server(config, ready=ready, max_seconds=args.max_seconds)
    print(json_module.dumps(server.stats(), sort_keys=True, indent=2))
    return 0


def _cmd_loadgen(args) -> int:
    from pathlib import Path

    from repro.chaos.retry import AdmissionPolicy, RetryPolicy
    from repro.net.loadgen import LoadGenConfig, render_report, run

    if args.connect and args.sim:
        print("--connect and --sim are mutually exclusive", file=sys.stderr)
        return 2
    if args.connect:
        target = _parse_connect(args.connect)
        if target is None:
            print(f"bad --connect {args.connect!r} (want HOST:PORT)",
                  file=sys.stderr)
            return 2
        mode, (host, port) = "live", target
    else:
        mode, host, port = "sim", "127.0.0.1", 7420
    config = LoadGenConfig(
        mode=mode,
        clients=args.clients,
        duration_ms=args.duration_ms,
        rate_tps=args.rate,
        arrival=args.arrival,
        think_ms=args.think_ms,
        think_dist=args.think_dist,
        zipf_s=args.zipf,
        seed=args.seed,
        retry=None if args.no_retry else RetryPolicy(),
        host=host,
        port=port,
        pool_size=args.pool_size,
        protocol=args.protocol,
        lock_depth=args.lock_depth,
        scale=args.scale,
        admission=AdmissionPolicy() if args.admission else None,
    )
    rendered = render_report(run(config))
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def _parse_connect(value: str):
    """``HOST:PORT`` -> ``(host, port)`` or ``None`` on bad input."""
    host, _sep, port = value.rpartition(":")
    if not host or not port.isdigit():
        return None
    return host, int(port)


def _cmd_telemetry(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.obs import render_prometheus

    if args.connect:
        from repro.net.client import RemoteDatabase

        target = _parse_connect(args.connect)
        if target is None:
            print(f"bad --connect {args.connect!r} (want HOST:PORT)",
                  file=sys.stderr)
            return 2
        with RemoteDatabase(*target, client_name="repro-telemetry") as db:
            payload = db.telemetry()
    else:
        from repro.net.loadgen import LoadGenConfig, run_sim

        report = run_sim(LoadGenConfig(
            mode="sim",
            clients=args.clients,
            duration_ms=args.duration_ms,
            rate_tps=args.rate,
            seed=args.seed,
            scale=args.scale,
            protocol=args.protocol,
            lock_depth=args.lock_depth,
            telemetry_window_ms=args.window_ms,
        ))
        payload = report["telemetry"]
    if args.prom:
        body = render_prometheus(payload.get("snapshot") or {})
    else:
        body = json_module.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(body)
        print(f"wrote {args.output} ({len(body)} bytes)")
    else:
        print(body, end="")
    return 0


def _render_top_window(window, prev=None) -> str:
    """One dashboard frame from a closed telemetry window."""
    counters = window.get("counters") or {}
    gauges = window.get("gauges") or {}
    histograms = window.get("histograms") or {}
    slo = (window.get("slo") or {}).get("request_ms") or {}
    duration_ms = window["t_end_ms"] - window["t_start_ms"]
    duration_s = max(duration_ms / 1000.0, 1e-9)
    committed = counters.get("server.committed", 0)
    aborted = counters.get("server.aborted", 0)
    requests = counters.get("server.requests", 0)
    lines = [
        f"repro top -- window #{window['index']} "
        f"[{window['t_start_ms']:.0f}..{window['t_end_ms']:.0f} ms]",
        f"  throughput   {committed / duration_s:8.1f} commit/s   "
        f"{requests / duration_s:8.1f} req/s",
    ]
    if slo.get("count"):
        lines.append(
            f"  request SLO  p50={slo.get('p50_ms', 0.0):7.2f} ms  "
            f"p99={slo.get('p99_ms', 0.0):7.2f}  "
            f"p999={slo.get('p999_ms', 0.0):7.2f}  "
            f"(n={slo['count']})"
        )
    else:
        lines.append("  request SLO  (no requests this window)")
    reasons = ", ".join(
        f"{name.split('.', 2)[2]}={count}"
        for name, count in sorted(counters.items())
        if name.startswith("server.aborted.") and count
    ) or "none"
    lines.append(f"  aborts       {aborted:<6} [{reasons}]")
    hit_ratio = gauges.get("buffer.hit_ratio")
    if hit_ratio is not None:
        lines.append(f"  buffer       hit-rate {100.0 * hit_ratio:5.1f}%")
    # Lock counters are collector-mirrored gauges (cumulative totals), so
    # contention per window is the delta against the previous frame.
    prev_gauges = (prev or {}).get("gauges") or {}
    lock_reqs = gauges.get("lock.requests")
    if lock_reqs is not None:
        reqs = lock_reqs - prev_gauges.get("lock.requests", 0)
        waits = gauges.get("lock.waits", 0) - prev_gauges.get("lock.waits", 0)
        pct = 100.0 * waits / reqs if reqs > 0 else 0.0
        lines.append(
            f"  locks        {reqs:<8} requests  {waits:<6} waits "
            f"({pct:.1f}% contended)"
        )
    lag = histograms.get("server.loop_lag_ms") or {}
    if lag.get("count"):
        lines.append(
            f"  loop lag     mean {lag['total'] / lag['count']:6.2f} ms "
            f"over {lag['count']} probe(s)"
        )
    return "\n".join(lines)


def _cmd_top(args) -> int:
    from repro.net.client import RemoteDatabase

    target = _parse_connect(args.connect)
    if target is None:
        print(f"bad --connect {args.connect!r} (want HOST:PORT)",
              file=sys.stderr)
        return 2
    remaining = args.windows if args.windows > 0 else None
    prev = None
    try:
        with RemoteDatabase(*target, client_name="repro-top") as db:
            while remaining is None or remaining > 0:
                # SUBSCRIBE streams in bounded batches so an open-ended
                # watch never asks the server for an unbounded stream.
                batch = 1000 if remaining is None else min(remaining, 1000)
                streamed = 0
                for window in db.subscribe(batch):
                    streamed += 1
                    frame = _render_top_window(window, prev)
                    prev = window
                    if args.no_clear:
                        print(frame, flush=True)
                    else:
                        print(f"\x1b[2J\x1b[H{frame}", flush=True)
                if db.last_dropped_windows:
                    # The server skipped windows because this consumer
                    # fell behind -- say so instead of silently showing
                    # a gap-free picture.
                    print(
                        f"  (dropped {db.last_dropped_windows} window(s): "
                        f"consumer slower than the sampler)",
                        file=sys.stderr, flush=True,
                    )
                if remaining is not None:
                    remaining -= streamed
                if streamed == 0:
                    break  # server stopped streaming (shutdown)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
