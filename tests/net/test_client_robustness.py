"""Client-side robustness: linear frame reassembly, no leaked sockets
on a failed handshake (the pool and the live load generator on top of
it), typed connection loss, and surfaced (never silent) dropped
windows."""

import asyncio
import socket
import threading

import pytest

from repro.chaos import RetryPolicy
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    TransientError,
    UnsupportedWireVersion,
)
from repro.net import wire
from repro.net.client import ClientPool, RemoteDatabase, WireConnection
from repro.net.loadgen import LoadGenConfig, run_live
from repro.net.server import TelemetryPlane, _Subscriber

from tests.net.conftest import make_server


def _bare_connection(sock) -> WireConnection:
    """A WireConnection wrapped around an existing socket, skipping the
    constructor's handshake (the framing layer under test is below it)."""
    conn = WireConnection.__new__(WireConnection)
    conn.host, conn.port = "test", 0
    conn._sock = sock
    conn._recv_buffer = bytearray()
    conn._recv_offset = 0
    conn.closed = False
    return conn


class TestReadExactly:
    def test_large_frame_reassembles_from_many_segments(self):
        """A multi-megabyte frame delivered in small TCP segments must
        come back intact (regression: the old ``bytes`` buffer re-sliced
        itself per segment, quadratic in segment count)."""
        ours, theirs = socket.socketpair()
        try:
            payload = bytes(range(256)) * (4 * 1024 * 16)  # 4 MiB
            def feed():
                for start in range(0, len(payload), 8192):
                    theirs.sendall(payload[start:start + 8192])
            sender = threading.Thread(target=feed)
            sender.start()
            conn = _bare_connection(ours)
            data = conn._read_exactly(len(payload))
            sender.join(30)
            assert data == payload
            # Fully drained: the buffer resets instead of accumulating.
            assert len(conn._recv_buffer) == 0
            assert conn._recv_offset == 0
        finally:
            ours.close()
            theirs.close()

    def test_cursor_spans_frame_boundaries(self):
        """Reads that straddle what one recv delivered must honor the
        offset cursor (consumed bytes stay in the buffer until trimmed)."""
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(b"aaaa" + b"bbbbbb" + b"cc")
            conn = _bare_connection(ours)
            assert conn._read_exactly(4) == b"aaaa"
            assert conn._read_exactly(6) == b"bbbbbb"
            assert conn._read_exactly(2) == b"cc"
            assert conn._recv_offset == 0  # drained -> reset
        finally:
            ours.close()
            theirs.close()

    def test_eof_mid_frame_is_protocol_error(self):
        ours, theirs = socket.socketpair()
        try:
            theirs.sendall(b"abc")
            theirs.close()
            conn = _bare_connection(ours)
            with pytest.raises(ProtocolError, match="3/8"):
                conn._read_exactly(8)
        finally:
            ours.close()


def _recv_frame(sock):
    """The next ``(opcode, body)`` a peer sent, or None at EOF."""
    buffer = b""
    while True:
        _length, total = wire.split_frame(buffer)
        if total > 0 and len(buffer) >= total:
            return wire.decode_frame(buffer[:total])
        chunk = sock.recv(65536)
        if not chunk:
            return None
        buffer += chunk


class _OneShotServer:
    """Accepts one client, replies to its first frame with a canned
    frame, then reports whether the client closed its end."""

    def __init__(self, reply: bytes):
        self._reply = reply
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self.client_closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        client, _addr = self._sock.accept()
        with client:
            client.settimeout(10)
            _recv_frame(client)
            client.sendall(self._reply)
            # A closed peer reads as EOF; a leaked socket blocks.
            try:
                if client.recv(1) == b"":
                    self.client_closed.set()
            except OSError:
                self.client_closed.set()

    def join(self):
        self._thread.join(10)
        self._sock.close()


def _blocking_pool(port):
    """``(acquire, live)`` for a two-slot :class:`ClientPool`."""
    pool = ClientPool("127.0.0.1", port, size=2)
    return pool.acquire, lambda: pool.live


def _loadgen(port):
    """``(acquire, None)`` for a live load-generator run, whose first
    dial goes through its own pool (gone once ``run_live`` raises)."""
    cfg = LoadGenConfig(mode="live", port=port, clients=2, pool_size=2)
    return (lambda: run_live(cfg)), None


class TestHandshakeLeak:
    """Each failed-handshake case runs against the blocking
    ``ClientPool`` and against the live load generator built on it."""

    def test_refused_dial_leaves_no_live_slot(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        refused_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        pool = ClientPool("127.0.0.1", refused_port, size=2)
        with pytest.raises(OSError):
            pool.acquire()
        assert pool.live == 0

    @staticmethod
    def _error_reply_to_hello(make_pool):
        """A server that rejects the HELLO (version mismatch) must leave
        the pool empty *and* the dialed socket closed."""
        server = _OneShotServer(
            wire.encode_error(UnsupportedWireVersion("speak version 1"))
        )
        acquire, live = make_pool(server.port)
        with pytest.raises(UnsupportedWireVersion) as raised:
            acquire()
        assert live is None or live() == 0
        # ``raised`` keeps the traceback, and with it the dialed
        # connection, alive: only an explicit close lets the peer see EOF.
        assert server.client_closed.wait(10), "handshake failure leaked fd"
        assert raised.value is not None
        server.join()

    @staticmethod
    def _non_welcome_reply(make_pool):
        server = _OneShotServer(wire.encode_frame(wire.OP_PONG))
        acquire, live = make_pool(server.port)
        with pytest.raises(ProtocolError, match="expected WELCOME") as raised:
            acquire()
        assert live is None or live() == 0
        assert server.client_closed.wait(10), "handshake failure leaked fd"
        assert raised.value is not None
        server.join()

    def test_error_reply_to_hello_closes_socket_and_slot(self):
        self._error_reply_to_hello(_blocking_pool)

    def test_loadgen_error_reply_to_hello_closes_socket(self):
        self._error_reply_to_hello(_loadgen)

    def test_non_welcome_reply_closes_socket_and_slot(self):
        self._non_welcome_reply(_blocking_pool)

    def test_loadgen_non_welcome_reply_closes_socket(self):
        self._non_welcome_reply(_loadgen)


#: The workload handles a bib server advertises, as few as will do.
_BIB_INFO = {"book_ids": ["b1"], "topic_ids": ["t1"], "person_ids": []}


class _HangupServer:
    """Completes every handshake and answers INFO, then hangs up -- no
    reply, a clean close -- on any other request."""

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                client, _addr = self._sock.accept()
            except OSError:
                return  # closed
            threading.Thread(
                target=self._serve, args=(client,), daemon=True
            ).start()

    def _serve(self, client):
        with client:
            client.settimeout(10)
            while True:
                request = _recv_frame(client)
                if request is None:
                    return
                opcode, _body = request
                if opcode == wire.OP_HELLO:
                    reply = wire.encode_frame(
                        wire.OP_WELCOME, wire.WIRE_VERSION, _BIB_INFO
                    )
                elif opcode == wire.OP_INFO:
                    reply = wire.encode_frame(wire.OP_RESULT, _BIB_INFO, 0.0)
                else:
                    return
                client.sendall(reply)

    def close(self):
        self._sock.close()


class TestConnectionLost:
    """A peer hangup mid-call is *transient* (the server restarted, the
    link dropped) -- unlike a protocol violation, the caller may retry
    on a fresh connection.  The broken one must close itself so the
    pool evicts it instead of handing it out again."""

    def _lost_peer_connection(self) -> WireConnection:
        ours, theirs = socket.socketpair()
        theirs.close()  # writes now raise BrokenPipeError
        return _bare_connection(ours)

    def test_hangup_mid_request_is_typed_transient(self):
        conn = self._lost_peer_connection()
        with pytest.raises(ConnectionLostError, match="lost mid-call"):
            conn.request(wire.OP_PING)
        assert isinstance(ConnectionLostError("x"), TransientError)
        assert conn.closed, "broken connection must mark itself dead"

    def test_hangup_mid_stream_is_typed_transient(self):
        conn = self._lost_peer_connection()
        with pytest.raises(ConnectionLostError, match="lost mid-stream"):
            next(conn.stream(wire.OP_SUBSCRIBE, 1))
        assert conn.closed

    def test_pool_evicts_broken_connection_on_release(self):
        pool = ClientPool("127.0.0.1", 1, size=2)
        conn = self._lost_peer_connection()
        with pool._lock:
            pool._live = 1  # stand in for a dialed lease
        with pytest.raises(ConnectionLostError):
            conn.request(wire.OP_PING)
        pool.release(conn)
        assert pool.live == 0, "dead connection held its pool slot"
        assert not pool._idle, "dead connection re-entered the idle list"

    def test_clean_close_before_reply_is_typed_transient(self):
        """The peer reads the request and closes without a byte of
        reply (a server restarting between frames): transient, like a
        reset -- only EOF *inside* a frame is a protocol error."""
        ours, theirs = socket.socketpair()

        def read_then_close():
            with theirs:
                _recv_frame(theirs)

        peer = threading.Thread(target=read_then_close)
        peer.start()
        conn = _bare_connection(ours)
        try:
            with pytest.raises(ConnectionLostError, match="lost mid-call"):
                conn.request(wire.OP_PING)
            assert conn.closed, "broken connection must mark itself dead"
        finally:
            peer.join(10)
            ours.close()

    def test_loadgen_hangup_is_retried_as_transient(self):
        """A live load-generator slot whose server hangs up on BEGIN
        retries the transaction on a fresh dial instead of counting a
        protocol error."""
        server = _HangupServer()
        try:
            report = run_live(LoadGenConfig(
                mode="live", port=server.port, clients=2,
                duration_ms=400.0, rate_tps=50.0, think_ms=0.0,
                retry=RetryPolicy(max_restarts=2, base_backoff_ms=1.0,
                                  max_backoff_ms=4.0),
            ))
        finally:
            server.close()
        overall = report["overall"]
        assert report["protocol_errors"] == 0
        assert overall["issued"] > 0
        assert overall["committed"] == 0
        assert overall["retries"] == 2 * overall["issued"]
        assert overall["gave_up"] == overall["issued"]
        assert "server" not in report  # the closing STATS hung up too


class TestDroppedWindows:
    def test_publish_counts_overflow_instead_of_swallowing(self):
        """Queue-full skips increment the subscriber's drop counter (the
        value the DONE trailer reports) and the plane-wide total."""
        class PlaneStub:
            subscribers = [_Subscriber(asyncio.Queue(maxsize=1))]
            dropped_windows = 0

        plane = PlaneStub()
        for index in range(3):
            TelemetryPlane.publish(plane, {"index": index})
        subscriber = plane.subscribers[0]
        assert subscriber.queue.qsize() == 1
        assert subscriber.dropped == 2
        assert plane.dropped_windows == 2

    def test_done_trailer_reports_drop_count_over_the_wire(self):
        handle = make_server(telemetry_window_ms=25.0)
        try:
            conn = WireConnection("127.0.0.1", handle.port)
            try:
                stream = conn.stream(wire.OP_SUBSCRIBE, 2)
                windows = []
                while True:
                    try:
                        windows.append(next(stream))
                    except StopIteration as stop:
                        done = stop.value
                        break
                assert len(windows) == 2
                assert len(done) == 2  # (elapsed_ms, dropped_windows)
                assert done[1] == 0  # this consumer kept up
            finally:
                conn.close()
            with RemoteDatabase("127.0.0.1", handle.port) as db:
                assert len(list(db.subscribe(1))) == 1
                assert db.last_dropped_windows == 0
        finally:
            handle.shutdown()
