"""Tests for the command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.tamix import run_cluster1
from tests.net.conftest import make_server

ROOT = Path(__file__).resolve().parents[1]


def row_of(out: str) -> dict:
    """The ``name value`` lines a one-cell sweep prints under its table
    (later lines win, so the row's ``protocol`` beats the table header)."""
    return dict(line.split() for line in out.splitlines()
                if len(line.split()) == 2)


class TestInfo:
    def test_lists_protocols(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("Node2PL", "URIX", "taDOM3+"):
            assert name in out


class TestBenchCommands:
    def test_cluster1_smoke(self, capsys):
        """One CLUSTER1 cell is a one-cell sweep, which prints its row."""
        code = main([
            "sweep", "--protocols", "taDOM3+", "--scale", "0.02",
            "--seconds", "8", "--depths", "6",
        ])
        assert code == 0
        row = row_of(capsys.readouterr().out)
        assert row["protocol"] == "taDOM3+"
        assert row["lock_depth"] == "6"
        for name in ("committed", "p99_ms", "deadlocks_conversion",
                     "wait_mean_ms", "TAlendAndReturn"):
            assert name in row

    @pytest.mark.parametrize("protocol,depth", [("URIX", 3), ("taDOM3+", 4)])
    def test_one_cell_sweep_matches_run_cluster1(self, capsys, protocol,
                                                 depth):
        assert main([
            "sweep", "--protocols", protocol, "--depths", str(depth),
            "--scale", "0.02", "--seconds", "8", "--seed", "42",
        ]) == 0
        row = row_of(capsys.readouterr().out)
        result = run_cluster1(protocol, lock_depth=depth, scale=0.02,
                              run_duration_ms=8_000.0, seed=42)
        assert float(row["committed"]) == result.committed
        assert float(row["aborted"]) == result.aborted
        assert float(row["deadlocks"]) == result.deadlocks

    def test_sweep_smoke(self, capsys):
        code = main([
            "sweep", "--protocols", "taDOM3+", "--depths", "0", "6",
            "--scale", "0.02", "--seconds", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "taDOM3+" in out
        assert "wait_mean_ms" not in out     # two cells: no row dump

    def test_sweep_over_several_isolations(self, capsys):
        code = main([
            "sweep", "--protocols", "taDOM3+", "--depths", "0", "6",
            "--isolation", "none", "repeatable",
            "--scale", "0.02", "--seconds", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- isolation=none" in out
        assert "-- isolation=repeatable" in out
        assert out.count("taDOM3+ ") == 2

    def test_sweep_refuses_serializable_before_running(self, capsys):
        code = main([
            "sweep", "--protocols", "taDOM3+", "URIX", "--depths", "4",
            "--isolation", "serializable", "--scale", "0.02",
            "--seconds", "8", "--progress",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "URIX" in captured.err and "serializable" in captured.err
        assert "[1/" not in captured.err     # no cell ran

    def test_sweep_isolation_choices(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--isolation", "bogus"])

    @pytest.mark.parametrize("knob,named", [
        (["--depths", "-1"], "lock depths"),
        (["--scale", "0"], "scale"),
        (["--shards", "0"], "shard counts"),
        (["--seconds", "-5"], "run duration"),
    ], ids=["depth", "scale", "shards", "seconds"])
    def test_sweep_refuses_out_of_range_knobs(self, capsys, knob, named):
        args = ["sweep", "--protocols", "taDOM3+", "--depths", "4",
                "--scale", "0.02", "--seconds", "8", "--progress"]
        assert main(args + knob) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro sweep: {named}")
        assert len(captured.err.splitlines()) == 1   # no traceback
        assert "[1/" not in captured.err             # no cell ran

    def test_cluster2_smoke(self, capsys):
        assert main(["cluster2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("Node2PL", "taDOM3+", "URIX"):
            assert name in out


class TestModes:
    """``info PROTOCOL`` prints the protocol's lock matrices."""

    def test_prints_figure_3a_and_4(self, capsys):
        assert main(["info", "taDOM2"]) == 0
        out = capsys.readouterr().out
        assert "taDOM2 compatibility" in out
        assert "CX[NR]" in out          # the subscripted Figure 4 cell

    def test_all_spaces_by_default(self, capsys):
        assert main(["info", "URIX"]) == 0
        out = capsys.readouterr().out
        assert "lock space: node" in out
        assert "lock space: edge" in out

    def test_twenty_modes_of_tadom3_plus(self, capsys):
        assert main(["info", "taDOM3+"]) == 0
        out = capsys.readouterr().out
        for mode in ("NX", "LRIX", "SRCX", "NUIX"):
            assert mode in out


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        spec_b = Path(__file__).resolve().parents[1] / "experiments" / \
            "isolation.json"
        target = tmp_path / "REPORT.md"
        assert main(["report", str(spec_b), "--output", str(target)]) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        text = target.read_text()
        sections = [
            text.index(f"Committed transactions -- isolation {level}")
            for level in ("none", "uncommitted", "committed", "repeatable",
                          "serializable")
        ]
        assert sections == sorted(sections)     # weakest level first

    def test_missing_sweep_json_is_one_line(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"no sweep result file at {tmp_path / 'missing.json'}"
        ]

    def test_sweep_json_is_required(self):
        with pytest.raises(SystemExit):
            main(["report"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--protocols", "nope"])


class TestSweepObservability:
    @pytest.fixture(scope="class")
    def sweep_run(self, tmp_path_factory):
        import json

        base = tmp_path_factory.mktemp("sweepcli")
        traces = base / "traces"
        sweep_json = base / "sweep.json"
        code = main([
            "sweep", "--protocols", "taDOM2", "taDOM3+",
            "--depths", "0", "4", "--scale", "0.02", "--seconds", "8",
            "--json", str(sweep_json), "--trace-dir", str(traces),
            "--progress",
        ])
        assert code == 0
        assert json.loads(sweep_json.read_text())
        return base, traces, sweep_json

    def test_progress_heartbeat_on_stderr(self, sweep_run, capsys):
        # The class fixture ran under the first test's capture; re-run a
        # tiny sweep here so this test owns its own streams.
        code = main([
            "sweep", "--protocols", "taDOM2", "--depths", "0",
            "--scale", "0.02", "--seconds", "4", "--progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/1] taDOM2 d0" in err
        assert "committed=" in err

    def test_trace_dir_gets_one_file_per_cell(self, sweep_run):
        _base, traces, _sweep_json = sweep_run
        names = sorted(p.name for p in traces.glob("*.jsonl"))
        assert names == [
            "taDOM2_d0_repeatable_r0.jsonl",
            "taDOM2_d4_repeatable_r0.jsonl",
            "taDOM3+_d0_repeatable_r0.jsonl",
            "taDOM3+_d4_repeatable_r0.jsonl",
        ]

    def test_report_markdown_is_deterministic(self, sweep_run, tmp_path):
        _base, _traces, sweep_json = sweep_run
        first = tmp_path / "a.md"
        second = tmp_path / "b.md"
        assert main(["report", str(sweep_json),
                     "--output", str(first)]) == 0
        assert main(["report", str(sweep_json),
                     "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "# TaMix sweep report" in first.read_text()

    def test_report_html(self, sweep_run, tmp_path):
        _base, _traces, sweep_json = sweep_run
        target = tmp_path / "report.html"
        assert main(["report", str(sweep_json), "--format", "html",
                     "--output", str(target)]) == 0
        page = target.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "taDOM3+" in page

    def test_report_to_stdout(self, sweep_run, capsys):
        _base, _traces, sweep_json = sweep_run
        assert main(["report", str(sweep_json)]) == 0
        assert "## Experiment matrix" in capsys.readouterr().out

    def test_analyze_trace(self, sweep_run, capsys):
        _base, traces, _sweep_json = sweep_run
        trace = traces / "taDOM3+_d4_repeatable_r0.jsonl"
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "transactions" in out
        assert "lock waits" in out


class TestVerifyCommand:
    def test_sweep_verify_passes(self, capsys):
        code = main([
            "sweep", "--protocols", "taDOM3+", "--depths", "4",
            "--scale", "0.02", "--seconds", "8", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verify taDOM3+_d4_repeatable_r0.jsonl: PASS" in out
        assert "conformance=ok" in out

    def test_verify_trace_with_access_events(self, tmp_path, capsys):
        assert main([
            "sweep", "--protocols", "taDOM2", "--depths", "4",
            "--scale", "0.02", "--seconds", "8", "--verify",
            "--trace-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        trace = tmp_path / "taDOM2_d4_repeatable_r0.jsonl"
        assert main(["verify", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "PASS protocol=taDOM2" in out
        assert "conformance=ok" in out

    def test_verify_crash_suite(self, capsys):
        assert main(["verify", "--crash"]) == 0
        out = capsys.readouterr().out
        assert "crash suite: PASS" in out

    def test_verify_wrong_protocol_fails(self, tmp_path, capsys):
        assert main([
            "sweep", "--protocols", "taDOM3+", "--depths", "4",
            "--scale", "0.02", "--seconds", "8", "--verify",
            "--trace-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        trace = tmp_path / "taDOM3+_d4_repeatable_r0.jsonl"
        assert main(["verify", str(trace), "--protocol", "Node2PL"]) == 1
        assert "conformance=violated" in capsys.readouterr().out

    def test_verify_without_target_or_crash(self, capsys):
        assert main(["verify"]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestTelemetryCommand:
    #: A seeded sim loadgen run; its report carries the telemetry payload.
    SIM_ARGS = [
        "loadgen", "--scale", "0.02", "--clients", "5",
        "--duration-ms", "2500", "--rate", "100",
    ]

    @pytest.fixture(scope="class")
    def server(self):
        handle = make_server(telemetry_window_ms=50.0)
        yield f"127.0.0.1:{handle.port}"
        handle.shutdown()

    def test_sim_json_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.SIM_ARGS + ["--output", str(first)]) == 0
        assert main(self.SIM_ARGS + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["telemetry"]["windows"]

    def test_sim_json_payload_shape(self, capsys):
        assert main(self.SIM_ARGS) == 0
        payload = json.loads(capsys.readouterr().out)["telemetry"]
        assert payload["version"] == 1
        assert payload["window_ms"] == 1000.0
        assert payload["windows"], "sim run should close windows"
        assert "txn.committed" in payload["snapshot"]["counters"]

    def test_prom_rendering(self, server, capsys):
        assert main(["telemetry", "--connect", server, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_requests_total counter" in out
        assert 'repro_server_request_ms_bucket{le="+Inf"}' in out

    def test_json_scrape(self, server, capsys):
        assert main(["telemetry", "--connect", server]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window_ms"] == 50.0

    def test_follow_streams_windows(self, server, capsys):
        assert main(["telemetry", "--connect", server, "--follow", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro telemetry -- window #") == 2
        assert "\x1b[" not in out          # no screen clearing in a pipe
        assert "throughput" in out

    @pytest.mark.parametrize("extra", [
        ["--follow", "1", "--prom"],
        ["--follow", "1", "--output", "frames.txt"],
        ["--follow", "-1"],
    ], ids=["prom", "output", "negative"])
    def test_follow_refuses_bad_combinations(self, server, capsys, extra):
        assert main(["telemetry", "--connect", server] + extra) == 2
        assert "--follow" in capsys.readouterr().err

    def test_connect_is_required(self):
        with pytest.raises(SystemExit):
            main(["telemetry"])

    @pytest.mark.parametrize("command", ["telemetry", "loadgen"])
    @pytest.mark.parametrize("value", [
        pytest.param("nonsense", id="no-port"),
        pytest.param("h:", id="empty-port"),
        pytest.param(":7420", id="no-host"),
        pytest.param("h:\u00b2", id="superscript-digit"),
        pytest.param("h:\u0967\u0968", id="devanagari-digits"),
        pytest.param("h:+80", id="signed-port"),
        pytest.param("h:0", id="port-0"),
        pytest.param("h:65536", id="port-65536"),
        pytest.param("h:99999", id="port-99999"),
    ])
    def test_bad_connect_rejected(self, capsys, command, value):
        assert main([command, "--connect", value]) == 2
        assert "bad --connect" in capsys.readouterr().err

    def test_top_bad_connect_rejected(self, capsys):
        """The dashboard path (``--follow``) checks the address too."""
        assert main(["telemetry", "--connect", "nonsense",
                     "--follow", "2"]) == 2
        assert "bad --connect" in capsys.readouterr().err


def refused(capsys, argv, command) -> str:
    """Run a command that must refuse its input: exit 2, one stderr line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro {command}: ")
    assert len(captured.err.splitlines()) == 1   # no traceback
    return captured.err


class TestRefusals:
    @pytest.mark.parametrize("knobs,named", [
        (["--scale", "0"], "scale"),
        (["--seconds", "-1"], "run duration"),
        (["--lock-depth", "-1"], "lock depths"),
        (["--shards", "0"], "shard counts"),
        (["--shards", "2", "--protocol", "Node2PL"], "protocol Node2PL"),
        (["--shards", "2", "--lock-depth", "1"], "sharded runs need"),
        (["--isolation", "serializable", "--protocol", "Node2PL"],
         "Node2PL does not offer"),
        (["--schedule", "no-such-schedule"], "unknown schedule"),
        (["--shards", "2", "--schedule", "ci-small"], "the shard plane"),
        (["--schedule", "shard-kill"], "one node fires only"),
        (["--shard-transport", "process"], "needs shards > 1"),
    ], ids=["scale", "seconds", "depth", "shards", "root-navigating",
            "shallow-shards", "isolation", "unknown-schedule",
            "node-sites-on-shards", "shard-sites-on-one-node",
            "process-transport-on-one-node"])
    def test_chaos_refuses_before_building_a_stack(
        self, capsys, monkeypatch, knobs, named
    ):
        from repro.chaos import runner

        def built(*args, **kwargs):
            raise AssertionError("a stack was built for a refused run")

        monkeypatch.setattr(runner, "make_database", built)
        monkeypatch.setattr(runner, "build_sharded_cluster", built)
        err = refused(capsys, ["chaos", "--seconds", "1", *knobs], "chaos")
        assert named in err

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_serve_refuses_ports_outside_the_tcp_range(self, capsys, port):
        err = refused(
            capsys, ["serve", "--port", port, "--max-seconds", "1"], "serve"
        )
        assert "port must be 0-65535" in err

    @pytest.mark.parametrize("knob,named", [
        (["--clients", "0"], "clients"),
        (["--duration-ms", "0"], "duration"),
        (["--rate", "-5"], "rate"),
    ], ids=["clients", "duration", "rate"])
    def test_loadgen_refuses_an_empty_run(self, capsys, knob, named):
        err = refused(capsys, ["loadgen", "--duration-ms", "100", *knob],
                      "loadgen")
        assert named in err


def subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestInventory:
    """The CLI's surface, pinned: a new option has to be written here."""

    INVENTORY = {
        "analyze": "--prefix-depth --top trace",
        "chaos": "--chaos-seed --check-determinism --isolation --json "
                 "--lock-depth --protocol --scale --schedule --seconds "
                 "--seed --shard-transport --shards --trace",
        "cluster2": "--scale --seed",
        "info": "protocol",
        "loadgen": "--admission --arrival --clients --connect --duration-ms "
                   "--lock-depth --no-retry --output --pool-size --protocol "
                   "--rate --scale --seed --think-dist --think-ms --zipf",
        "report": "--format --output --title sweep_json",
        "serve": "--admission --host --isolation --lock-depth "
                 "--max-pressure --max-seconds --port --protocol --scale "
                 "--seed --wait-timeout-ms --wal",
        "sweep": "--cell-retries --cell-timeout --csv --depths "
                 "--isolation --journal --json --progress "
                 "--protocols --resume --runs --scale --seconds --seed "
                 "--shard-transport --shards --stop-after --trace-dir "
                 "--verify --workers",
        "telemetry": "--connect --follow --output --prom",
        "verify": "--crash --lock-depth --max-violations --protocol target",
    }

    def test_pinned_inventory(self):
        found = sorted(
            f"{name} {(action.option_strings or [action.dest])[-1]}"
            for name, sub in subcommands(build_parser()).items()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        )
        expected = sorted(f"{name} {option}"
                          for name, options in self.INVENTORY.items()
                          for option in options.split())
        assert found == expected
        assert len(found) == 80


#: A ``repro <command>`` invocation at the start of a shell command,
#: after an optional prompt, environment assignments and ``python -m``;
#: the rest of the command runs up to a shell separator or comment.
COMMAND = re.compile(
    r"(?:^|&&|;|\|)\s*(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*"
    r"(?:python3?\s+-m\s+)?repro\s+([a-z][\w-]*)([^|;&#\n]*)",
    re.MULTILINE,
)
FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
FENCE = re.compile(r"^\s*```[^\n]*\n(.*?)^\s*```", re.MULTILINE | re.DOTALL)
SPAN = re.compile(r"(?<!`)`([^`]+)`(?!`)")
RUN_STEP = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")


def markdown_snippets(text: str):
    """Fenced blocks and code spans (a span may wrap across lines)."""
    yield from FENCE.findall(text)
    for span in SPAN.findall(FENCE.sub("", text)):
        yield span.replace("\n", " ")


def workflow_snippets(text: str):
    """The shell of every ``run:`` step; folded (``>``) blocks joined."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = RUN_STEP.match(line)
        if not match:
            continue
        indent, head = len(match.group(1)), match.group(2)
        if head[:1] not in ("|", ">"):
            yield head
            continue
        body = []
        for following in lines[index + 1:]:
            if following.strip() and (
                len(following) - len(following.lstrip()) <= indent
            ):
                break
            body.append(following.strip())
        yield (" " if head.startswith(">") else "\n").join(body)


def documented_commands():
    """``(source, command, flags)`` for every documented invocation."""
    sources = [ROOT / ".github" / "workflows" / "ci.yml"]
    # The other root-level documents are change logs and plans, which
    # quote retired command lines on purpose.
    root_docs = {"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"}
    for path in sorted(ROOT.rglob("*.md")):
        parts = path.relative_to(ROOT).parts
        hidden = any(part.startswith(".") and part not in (".claude",)
                     for part in parts[:-1])
        if not hidden and (len(parts) > 1 or parts[0] in root_docs):
            sources.append(path)
    for path in sources:
        text = path.read_text(encoding="utf-8")
        snippets = (workflow_snippets(text) if path.suffix == ".yml"
                    else markdown_snippets(text))
        for snippet in snippets:
            for match in COMMAND.finditer(snippet.replace("\\\n", " ")):
                yield (path.relative_to(ROOT).as_posix(), match.group(1),
                       FLAG.findall(match.group(2)))


class TestDocumentedCommandLines:
    def test_every_documented_command_line_parses(self):
        commands = subcommands(build_parser())
        stale = []
        seen = 0
        for source, name, flags in documented_commands():
            seen += 1
            if name not in commands:
                stale.append(f"{source}: repro {name}")
                continue
            known = set(commands[name]._option_string_actions)
            stale.extend(f"{source}: repro {name} {flag}"
                         for flag in flags if flag not in known)
        assert seen > 50            # the scan does find the docs' commands
        assert stale == []

    def test_scan_catches_a_stale_flag(self):
        text = "```console\n$ repro telemetry --connect h:1 \\\n    --json\n```"
        (match,) = COMMAND.finditer(
            next(markdown_snippets(text)).replace("\\\n", " ")
        )
        assert match.group(1) == "telemetry"
        assert FLAG.findall(match.group(2)) == ["--connect", "--json"]

    def test_folded_workflow_step_is_one_command(self):
        text = ("      - name: x\n        run: >\n"
                "          python -m repro sweep\n          --depths 4\n"
                "      - name: y\n")
        assert list(workflow_snippets(text)) == [
            "python -m repro sweep --depths 4"
        ]
