"""Load-generator tests: deterministic sim mode (byte-identical seeded
reports), zipfian sampling, and a small live run against a real server."""

import hashlib
import json
import random
import socket
import time
from pathlib import Path

import pytest

from repro.chaos import AdmissionPolicy, RetryPolicy
from repro.net.loadgen import (
    LoadGenConfig,
    LoadStats,
    ZipfSampler,
    _live_slot,
    _make_context,
    _MixPicker,
    client_slot,
    render_report,
    run,
    run_sim,
)

from tests.net.conftest import make_server

SIM_CFG = dict(
    mode="sim", clients=20, duration_ms=4_000.0, rate_tps=200.0,
    think_ms=1.0, seed=2006, scale=0.05, wait_timeout_ms=500.0,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_loadgen_sim.json")
    .read_text(encoding="utf-8")
)

#: The seeded sim runs the golden file pins: CI's sim ``repro loadgen``
#: arguments, and an overloaded run where admission QUEUE back-offs,
#: SHEDs and client-side restarts all occur.
GOLDEN_CONFIGS = {
    "ci": dict(clients=50, duration_ms=4_000.0, rate_tps=200.0, scale=0.05),
    "overload": dict(
        clients=40, duration_ms=4_000.0, rate_tps=2_000.0, think_ms=1.0,
        scale=0.05, wait_timeout_ms=100.0,
        admission=AdmissionPolicy(max_pressure=1, max_queue_waits=2,
                                  queue_backoff_ms=5.0),
        retry=RetryPolicy(max_restarts=2, base_backoff_ms=1.0,
                          max_backoff_ms=4.0),
    ),
}


class TestZipfSampler:
    def test_seeded_sampling_is_deterministic(self):
        import random
        a = [ZipfSampler(50, 1.1).pick(random.Random(7)) for _i in range(20)]
        b = [ZipfSampler(50, 1.1).pick(random.Random(7)) for _i in range(20)]
        assert a == b

    def test_skew_prefers_the_head(self):
        import random
        rng = random.Random(11)
        sampler = ZipfSampler(100, 1.5)
        picks = [sampler.pick(rng) for _i in range(2000)]
        head = sum(1 for p in picks if p < 10)
        assert head > len(picks) * 0.4  # far above the uniform 10%

    def test_zero_exponent_is_uniform(self):
        import random
        rng = random.Random(3)
        sampler = ZipfSampler(2, 0.0)
        picks = {sampler.pick(rng) for _i in range(50)}
        assert picks == {0, 1}


class TestSimDeterminism:
    def test_same_seed_renders_byte_identical_reports(self):
        first = render_report(run(LoadGenConfig(**SIM_CFG)))
        second = render_report(run(LoadGenConfig(**SIM_CFG)))
        assert first == second

    def test_different_seed_changes_the_traffic(self):
        first = render_report(run(LoadGenConfig(**SIM_CFG)))
        other = render_report(run(LoadGenConfig(**dict(SIM_CFG, seed=7))))
        assert first != other

    def test_report_shape(self):
        report = run_sim(LoadGenConfig(**SIM_CFG))
        assert report["config"]["mode"] == "sim"
        assert report["config"]["protocol"] == "taDOM3+"
        overall = report["overall"]
        assert overall["issued"] > 0
        assert overall["committed"] > 0
        assert overall["issued"] >= (
            overall["committed"] + overall["gave_up"]
        )
        for row in report["by_type"].values():
            for key in ("issued", "committed", "aborted", "retries",
                        "sheds", "gave_up", "latency"):
                assert key in row
        if overall["latency"]:
            for key in ("count", "p50_ms", "p99_ms", "p999_ms"):
                assert key in overall["latency"]
        assert report["protocol_errors"] == 0
        # canonical JSON round-trips
        assert json.loads(render_report(report)) == report

    def test_admission_control_sheds_under_pressure(self):
        cfg = LoadGenConfig(**dict(
            SIM_CFG, clients=40, rate_tps=2_000.0, wait_timeout_ms=100.0,
            admission=AdmissionPolicy(max_pressure=1, max_queue_waits=0),
            retry=RetryPolicy(max_restarts=2, base_backoff_ms=1.0,
                              max_backoff_ms=4.0),
        ))
        report = run(cfg)
        # overload must be *reported*, not silently absorbed
        assert "sheds" in report["overall"]
        assert report["config"]["retry"]["max_restarts"] == 2

    @pytest.mark.parametrize("key", sorted(GOLDEN_CONFIGS))
    def test_seeded_report_matches_golden_digest(self, key):
        report = run_sim(LoadGenConfig(mode="sim", **GOLDEN_CONFIGS[key]))
        if key == "overload":
            overall = report["overall"]
            assert overall["sheds"] and overall["retries"] \
                and overall["aborted"]
        digest = hashlib.sha256(
            render_report(report).encode("utf-8")
        ).hexdigest()
        assert digest == GOLDEN[key]


class TestLiveMode:
    def test_small_live_run_is_clean(self):
        handle = make_server()
        try:
            report = run(LoadGenConfig(
                mode="live", host="127.0.0.1", port=handle.port,
                clients=8, duration_ms=600.0, rate_tps=100.0, think_ms=0.5,
                seed=2006, pool_size=4,
                retry=RetryPolicy(max_restarts=2, base_backoff_ms=1.0,
                                  max_backoff_ms=4.0),
            ))
        finally:
            handle.shutdown()
        assert report["config"]["mode"] == "live"
        assert report["overall"]["issued"] > 0
        assert report["overall"]["committed"] > 0
        assert report["protocol_errors"] == 0
        assert "_overall" in report["server"]["slo"]
        # Every slot thread counts into its own stats; a lost update in
        # the merge would show as a mismatch with the server's count.
        assert report["overall"]["committed"] == report["server"]["committed"]

    def test_live_run_ends_at_its_deadline(self, live_server):
        """Clients whose first arrival falls past the deadline (one
        transaction per 10 s each, a 0.5 s run) issue nothing and do not
        sleep on: the run ends near ``duration_ms``."""
        started = time.monotonic()
        report = run(LoadGenConfig(
            mode="live", host="127.0.0.1", port=live_server.port,
            clients=40, duration_ms=500.0, rate_tps=4.0, think_ms=0.5,
            seed=2006, pool_size=4,
        ))
        wall_s = time.monotonic() - started
        assert wall_s < 2.5, f"run overran its deadline: {wall_s:.2f}s"
        assert report["duration_ms"] < 2_500.0
        assert report["protocol_errors"] == 0

    def test_untyped_socket_error_is_a_counted_protocol_error(self):
        """A socket error the client does not type (here the socket
        timeout at BEGIN) is counted per transaction; the slot's thread
        lives on to its deadline instead of dying silently."""
        class TimingOut:
            def session(self, *_args):
                raise socket.timeout("timed out")

        cfg = LoadGenConfig(mode="live", clients=1, duration_ms=50.0,
                            rate_tps=500.0)
        stats = LoadStats()
        slot = client_slot(cfg, _make_context(cfg, ["b1"], ["t1"], []),
                           _MixPicker(cfg.mix), stats, random.Random(7),
                           cfg.duration_ms)
        _live_slot(slot, TimingOut(), time.monotonic(), None)
        issued = sum(st.issued for st in stats.by_type.values())
        assert issued > 1
        assert stats.protocol_errors == issued

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run(LoadGenConfig(mode="warp"))


class TestReport:
    def test_render_is_sorted_and_stable(self):
        cfg = LoadGenConfig(**SIM_CFG)
        report = run(cfg)
        text = render_report(report)
        assert text == render_report(json.loads(text))


class TestConfigRefusals:
    @pytest.mark.parametrize("knob", [
        dict(clients=0), dict(duration_ms=0.0), dict(rate_tps=0.0),
    ], ids=["clients", "duration", "rate"])
    def test_an_empty_run_is_refused_when_built(self, knob):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            LoadGenConfig(**dict(SIM_CFG, **knob))
