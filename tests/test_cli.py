"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main

XML = (
    '<bib><topic id="t1"><book id="b1" year="1993">'
    "<title>TP</title></book>"
    '<book id="b2" year="2002"><title>XML</title></book></topic></bib>'
)


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(XML)
    return str(path)


class TestInfo:
    def test_lists_protocols(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("Node2PL", "URIX", "taDOM3+"):
            assert name in out


class TestQuery:
    def test_node_result(self, xml_file, capsys):
        assert main([
            "query", xml_file, "//book[@year='1993']/title/text()",
        ]) == 0
        assert capsys.readouterr().out.strip() == "TP"

    def test_element_result_serialized(self, xml_file, capsys):
        assert main(["query", xml_file, "//book[@id='b2']"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<book")
        assert "XML" in out

    def test_empty_result_exit_code(self, xml_file):
        assert main(["query", xml_file, "//missing"]) == 1


class TestStats:
    def test_prints_statistics(self, xml_file, capsys):
        assert main(["stats", xml_file]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "document_occupancy" in out


class TestBenchCommands:
    def test_cluster1_smoke(self, capsys):
        code = main([
            "cluster1", "--protocol", "taDOM3+", "--scale", "0.02",
            "--seconds", "8", "--lock-depth", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "committed=" in out
        assert "lock stats" in out

    def test_sweep_smoke(self, capsys):
        code = main([
            "sweep", "--protocols", "taDOM3+", "--depths", "0", "6",
            "--scale", "0.02", "--seconds", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "taDOM3+" in out

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

    def test_cluster2_smoke(self, capsys):
        assert main(["cluster2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("Node2PL", "taDOM3+", "URIX"):
            assert name in out


class TestModes:
    def test_prints_figure_3a_and_4(self, capsys):
        assert main(["modes", "taDOM2", "--space", "node"]) == 0
        out = capsys.readouterr().out
        assert "taDOM2 compatibility" in out
        assert "CX[NR]" in out          # the subscripted Figure 4 cell

    def test_all_spaces_by_default(self, capsys):
        assert main(["modes", "URIX"]) == 0
        out = capsys.readouterr().out
        assert "lock space: node" in out
        assert "lock space: edge" in out

    def test_twenty_modes_of_tadom3_plus(self, capsys):
        assert main(["modes", "taDOM3+", "--space", "node"]) == 0
        out = capsys.readouterr().out
        for mode in ("NX", "LRIX", "SRCX", "NUIX"):
            assert mode in out


class TestXmark:
    def test_xmark_smoke(self, capsys):
        assert main(["xmark", "--scale", "0.02", "--seconds", "3"]) == 0
        out = capsys.readouterr().out
        assert "deadlocks=0" in out
        assert "taDOM3+" in out


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        spec_b = Path(__file__).resolve().parents[1] / "experiments" / \
            "isolation.json"
        target = tmp_path / "REPORT.md"
        assert main(["report", str(spec_b), "--output", str(target)]) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        text = target.read_text()
        for level in ("none", "uncommitted", "committed", "repeatable",
                      "serializable"):
            assert f"Committed transactions -- isolation {level}" in text

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
            main(["cluster1", "--protocol", "nope"])


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


class TestWalMetrics:
    def test_wal_gauges_appear_in_metrics_dump(self, capsys):
        code = main([
            "metrics", "--protocol", "taDOM2", "--scale", "0.02",
            "--seconds", "4", "--wal",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wal.appends" in out
        assert "wal.flushes" in out
        assert "buffer.pool_size" in out
        assert "buffer.hit_ratio" in out


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
        trace = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--protocol", "taDOM2", "--scale", "0.02",
            "--seconds", "8", "--access-events", "--output", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "PASS protocol=taDOM2" in out
        assert "conformance=ok" in out

    def test_verify_crash_suite(self, capsys):
        assert main(["verify", "--crash"]) == 0
        out = capsys.readouterr().out
        assert "crash suite: PASS" in out

    def test_verify_wrong_protocol_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--protocol", "taDOM3+", "--scale", "0.02",
            "--seconds", "8", "--access-events", "--output", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", str(trace), "--protocol", "Node2PL"]) == 1
        assert "conformance=violated" in capsys.readouterr().out

    def test_verify_without_target_or_crash(self, capsys):
        assert main(["verify"]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestTelemetryCommand:
    SIM_ARGS = [
        "telemetry", "--scale", "0.02", "--clients", "5",
        "--duration-ms", "1500", "--rate", "100", "--window-ms", "500",
    ]

    def test_sim_json_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.SIM_ARGS + ["--output", str(first)]) == 0
        assert main(self.SIM_ARGS + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_sim_json_payload_shape(self, capsys):
        assert main(self.SIM_ARGS) == 0
        out = capsys.readouterr().out
        import json

        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["window_ms"] == 500.0
        assert payload["windows"], "sim run should close windows"
        assert "txn.committed" in payload["snapshot"]["counters"]

    def test_prom_rendering(self, capsys):
        assert main(self.SIM_ARGS + ["--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_txn_committed_total counter" in out
        assert 'repro_lock_wait_ms_bucket{le="+Inf"}' in out

    def test_bad_connect_rejected(self, capsys):
        assert main(["telemetry", "--connect", "nonsense"]) == 2
        assert "bad --connect" in capsys.readouterr().err

    def test_top_bad_connect_rejected(self, capsys):
        assert main(["top", "--connect", "nonsense"]) == 2
        assert "bad --connect" in capsys.readouterr().err
