"""Live-server tests for the telemetry plane (PR 8).

TELEMETRY/SUBSCRIBE opcodes, trace-context propagation, slow-request
attribution, uptime/per-opcode STATS enrichment, and the disabled-plane
error path.
"""

import time

import pytest

from repro.errors import ProtocolError, RemoteError
from repro.net import wire
from repro.net.client import RemoteDatabase, WireConnection
from repro.net.server import SlowRequestLog, TelemetryPlane
from repro.obs import Observability

from .conftest import make_server


@pytest.fixture(scope="module")
def fast_server():
    """A server ticking telemetry windows every 50 ms."""
    handle = make_server(telemetry_window_ms=50.0)
    yield handle
    handle.shutdown()


def do_some_work(db: RemoteDatabase, *, trace=None) -> None:
    book_id = db.info()["book_ids"][0]
    with db.session("TAqueryBook") as session:
        book = session.run(
            session.nodes.get_element_by_id(book_id), trace=trace
        )
        if book is not None:
            session.run(session.nodes.read_subtree(book), trace=trace)


class TestTelemetryFrame:
    def test_payload_shape(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            do_some_work(db)
            time.sleep(0.15)  # let a few windows close
            payload = db.telemetry()
        assert payload["version"] == 1
        assert payload["window_ms"] == 50.0
        assert payload["total_windows"] >= 1
        assert payload["windows"]
        assert payload["uptime_ms"] > 0
        window = payload["windows"][-1]
        assert set(window) >= {
            "index", "t_start_ms", "t_end_ms",
            "counters", "gauges", "histograms", "slo",
        }
        snapshot = payload["snapshot"]
        assert "server.requests" in snapshot["counters"]
        assert "server.request_ms" in snapshot["histograms"]
        assert snapshot["counters"]["server.committed"] >= 1

    def test_windows_count_requests(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            do_some_work(db)
            time.sleep(0.15)
            payload = db.telemetry()
        total = sum(
            w["counters"].get("server.requests", 0)
            for w in payload["windows"]
        )
        assert total >= 3  # BEGIN + CALLs + COMMIT landed in windows

    def test_loop_lag_histogram_populated(self, fast_server):
        time.sleep(0.15)
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            payload = db.telemetry()
        lag = payload["snapshot"]["histograms"]["server.loop_lag_ms"]
        assert lag["count"] >= 1  # one probe per closed window

    def test_slow_request_log_attributes(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            do_some_work(db, trace="req-slow-1")
            payload = db.telemetry()
        slow = payload["slow_requests"]
        assert slow
        record = slow[0]
        assert set(record) >= {
            "op", "service_ms", "lock_wait_ms", "sim_cost_ms", "t_ms", "txn",
        }
        # Slowest first.
        services = [r["service_ms"] for r in slow]
        assert services == sorted(services, reverse=True)
        assert any(r.get("trace") == "req-slow-1" for r in slow)


class TestSubscribe:
    def test_streams_requested_windows(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            windows = list(db.subscribe(3))
        assert len(windows) == 3
        indexes = [w["index"] for w in windows]
        assert indexes == sorted(indexes)
        assert all("counters" in w for w in windows)

    def test_connection_reusable_after_stream(self, fast_server):
        conn = WireConnection("127.0.0.1", fast_server.port)
        try:
            got = sum(1 for _ in conn.stream(wire.OP_SUBSCRIBE, 2))
            assert got == 2
            assert conn.ping()  # DONE terminated the stream cleanly
        finally:
            conn.close()

    def test_bad_max_windows_is_protocol_error(self, fast_server):
        for bad in (0, -1, 100_000):
            conn = WireConnection("127.0.0.1", fast_server.port)
            try:
                with pytest.raises(ProtocolError):
                    list(conn.stream(wire.OP_SUBSCRIBE, bad))
            finally:
                conn.close()

    def test_abandoned_stream_closes_connection(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            stream = db.subscribe(50)
            next(stream)
            stream.close()  # abandon mid-stream
            # The pool must not hand back the tainted connection.
            assert db.ping()


class TestTraceContext:
    def test_trace_propagates_into_spans(self):
        handle = make_server(
            telemetry_window_ms=50.0,
            observability=Observability.enabled(capacity=4096),
        )
        try:
            with RemoteDatabase("127.0.0.1", handle.port) as db:
                do_some_work(db, trace="req-42")
            events = [
                e for e in handle.server.database.tracer.events()
                if e.kind.startswith("span.") and e.data.get("cat") == "rpc"
            ]
            traced = [e for e in events if e.data.get("trace") == "req-42"]
            assert traced  # both span.begin and span.end carry it
            kinds = {e.kind for e in traced}
            assert kinds == {"span.begin", "span.end"}
        finally:
            handle.shutdown()

    def test_untraced_requests_omit_the_field(self):
        handle = make_server(
            telemetry_window_ms=50.0,
            observability=Observability.enabled(capacity=4096),
        )
        try:
            with RemoteDatabase("127.0.0.1", handle.port) as db:
                do_some_work(db)  # no trace kwarg
            events = [
                e for e in handle.server.database.tracer.events()
                if e.kind.startswith("span.") and e.data.get("cat") == "rpc"
            ]
            assert events
            assert all("trace" not in e.data for e in events)
        finally:
            handle.shutdown()

    def test_non_string_trace_rejected(self, fast_server):
        conn = WireConnection("127.0.0.1", fast_server.port)
        try:
            _op, body = conn.request(wire.OP_BEGIN, "t", None)
            txn_id = int(body[0])
            with pytest.raises(ProtocolError):
                conn.request(wire.OP_QUERY, txn_id, "/bib", 123)
        finally:
            conn.close()


class TestStatsEnrichment:
    def test_uptime_and_per_opcode_counts(self, fast_server):
        with RemoteDatabase("127.0.0.1", fast_server.port) as db:
            do_some_work(db)
            stats = db.stats()
        assert stats["uptime_ms"] > 0
        by_opcode = stats["requests_by_opcode"]
        assert by_opcode["BEGIN"] >= 1
        assert by_opcode["CALL"] >= 1
        assert by_opcode["COMMIT"] >= 1
        assert sum(by_opcode.values()) == stats["requests"]


class TestDisabledTelemetry:
    def test_telemetry_frame_errors(self):
        handle = make_server(telemetry=False)
        try:
            with RemoteDatabase("127.0.0.1", handle.port) as db:
                with pytest.raises(RemoteError):
                    db.telemetry()
                assert db.ping()  # the error did not drop the link
            assert handle.server._plane is None
        finally:
            handle.shutdown()

    def test_request_path_never_notes(self, monkeypatch):
        """Disabled, the request path pays an ``is None`` check and
        nothing else: CALL and QUERY frames are served without the
        plane's one per-request hook ever running."""
        def forbidden(*_args, **_kwargs):
            raise AssertionError("note_request ran with telemetry off")

        monkeypatch.setattr(TelemetryPlane, "note_request", forbidden)
        handle = make_server(telemetry=False)
        try:
            with RemoteDatabase("127.0.0.1", handle.port) as db:
                do_some_work(db)
                topic_id = db.info()["topic_ids"][0]
                with db.session("xpath") as session:
                    assert session.run(session.query(f"id('{topic_id}')"))
            assert handle.server.slo.committed == 2
        finally:
            handle.shutdown()

    def test_subscribe_errors_without_closing(self):
        handle = make_server(telemetry=False)
        try:
            conn = WireConnection("127.0.0.1", handle.port)
            try:
                with pytest.raises(RemoteError):
                    list(conn.stream(wire.OP_SUBSCRIBE, 1))
                assert conn.ping()
            finally:
                conn.close()
        finally:
            handle.shutdown()


class TestSlowRequestLog:
    def test_keeps_top_k_by_service_time(self):
        log = SlowRequestLog(3)
        for ms in (5.0, 1.0, 9.0, 3.0, 7.0):
            log.note({"op": "x", "service_ms": ms})
        assert [r["service_ms"] for r in log.as_list()] == [9.0, 7.0, 5.0]

    def test_zero_size_log_is_inert(self):
        log = SlowRequestLog(0)
        log.note({"op": "x", "service_ms": 1.0})
        assert log.as_list() == []
