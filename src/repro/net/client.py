"""The client library: the embedded ``Session`` surface over a socket.

The design contract is *one constructor change*::

    db = repro.Database(...)                 # embedded
    db = repro.RemoteDatabase("host", 7420)  # remote

    with db.session("reader") as session:
        book = session.run(session.nodes.get_element_by_id("b42"))
        subtree = session.run(session.nodes.read_subtree(book))

Embedded ``session.nodes.X(...)`` returns an operation *generator* that
``session.run`` drives; remote ``session.nodes.X(...)`` returns a
:class:`PendingCall` that ``session.run`` ships as a CALL frame.  Either
way, ``run`` returns the value (and with ``with_cost=True``, the
``(value, cost_ms)`` pair -- the server reports its measured service
time in every RESULT frame).

Error fidelity: ERROR frames carry the server-side exception class name
and its transient/permanent taxonomy, and :func:`repro.net.wire
.decode_error` rebuilds the local class when it exists
(:class:`~repro.errors.DeadlockAbort` raised remotely *is* a
``DeadlockAbort`` here, and ``is_transient`` answers the same), so a
client-side :class:`~repro.chaos.retry.RetryPolicy` treats embedded and
remote failures identically.

Transactions are per-connection server-side, so a :class:`RemoteSession`
leases one pooled connection for its whole lifetime and returns it on
commit/abort.  :class:`ClientPool` caps live sockets; sessions beyond
the cap block until one frees up (which is also what keeps a
thousand-client load generator inside the file-descriptor budget).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple, Union

import random

from repro.chaos.retry import RetryPolicy
from repro.errors import (
    AdmissionRejected,
    ConnectionLostError,
    ProtocolError,
    ReproError,
    TransactionError,
)
from repro.net import wire
from repro.net.server import NODE_OPS


class PendingCall:
    """A node-manager operation (or query) waiting to be shipped.

    The remote analogue of the operation generator: building one does no
    work; :meth:`RemoteSession.run` serializes it into a CALL or QUERY
    frame.
    """

    __slots__ = ("opcode", "name", "args")

    def __init__(self, opcode: int, name: str, args: Tuple[Any, ...]):
        self.opcode = opcode
        self.name = name
        self.args = args

    def __repr__(self) -> str:
        return f"<PendingCall {self.name}{self.args!r}>"


class WireConnection:
    """One blocking socket speaking the wire protocol (handshake done).

    Not thread-safe on its own; :class:`ClientPool` hands each
    connection to one lease-holder at a time.
    """

    def __init__(self, host: str, port: int, *,
                 client_name: str = "repro-client",
                 timeout_s: Optional[float] = 30.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._recv_buffer = bytearray()
        self._recv_offset = 0
        self.closed = False
        # Any handshake failure -- a typed ERROR reply (version mismatch),
        # an unexpected opcode, a torn frame -- must not leak the dialed
        # socket: this connection is never handed to a caller who could
        # close it.
        try:
            opcode, body = self.request(
                wire.OP_HELLO, wire.WIRE_VERSION, client_name
            )
            if opcode != wire.OP_WELCOME or len(body) != 2:
                raise ProtocolError(f"expected WELCOME, got {hex(opcode)}")
        except BaseException:
            self.close()
            raise
        self.server_version, self.server_info = int(body[0]), body[1]

    # -- framing -------------------------------------------------------------

    def _read_exactly(self, n: int) -> bytes:
        """The next ``n`` received bytes.

        The receive buffer is a bytearray consumed through an offset
        cursor: appends are amortized O(chunk) and consuming a frame
        just advances the cursor, so assembling a large frame from many
        TCP segments stays linear (the old ``bytes`` re-slicing was
        quadratic in segment count).  The consumed prefix is trimmed
        once it dominates the buffer, keeping memory bounded.
        """
        buffer = self._recv_buffer
        while len(buffer) - self._recv_offset < n:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError(
                    "connection closed mid-frame "
                    f"({len(buffer) - self._recv_offset}/{n} bytes)"
                )
            buffer += chunk
        start = self._recv_offset
        end = start + n
        data = bytes(buffer[start:end])
        if end == len(buffer):
            del buffer[:]
            self._recv_offset = 0
        elif end >= 65536 and end * 2 >= len(buffer):
            del buffer[:end]
            self._recv_offset = 0
        else:
            self._recv_offset = end
        return data

    def _read_frame(self) -> bytes:
        """The next whole frame.

        EOF before its first byte is the peer hanging up between frames
        (a ``ConnectionError``, typed transient by the callers); EOF
        inside it is a torn frame (:class:`ProtocolError`).
        """
        if self._recv_offset == len(self._recv_buffer):
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._recv_buffer += chunk
        header = self._read_exactly(4)
        length, _total = wire.split_frame(header)
        return header + self._read_exactly(length)

    def request(self, opcode: int, *fields: Any) -> Tuple[int, Tuple]:
        """One request frame -> the reply frame; raises decoded errors.

        An ERROR reply is raised as the rebuilt typed exception.  Any
        :class:`ProtocolError` (torn frame, closed socket) marks the
        connection unusable -- the pool will discard it.
        """
        if self.closed:
            raise ProtocolError("connection is closed")
        try:
            self._sock.sendall(wire.encode_frame(opcode, *fields))
            frame = self._read_frame()
        except ConnectionError as exc:
            # The peer hung up mid-call (server restart, dropped link):
            # transient, unlike a protocol violation.  Closing here makes
            # the pool evict the connection on release, so the next
            # acquire dials a fresh one.
            self.close()
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} lost mid-call: {exc}"
            ) from exc
        except (OSError, ProtocolError):
            self.close()
            raise
        try:
            reply_op, body = wire.decode_frame(frame)
        except ProtocolError:
            self.close()
            raise
        if reply_op == wire.OP_ERROR:
            raise wire.decode_error(body)
        return reply_op, body

    def ping(self) -> bool:
        opcode, _body = self.request(wire.OP_PING)
        return opcode == wire.OP_PONG

    def stream(self, opcode: int, *fields: Any):
        """One request frame -> a *stream* of reply bodies (SUBSCRIBE).

        Yields each frame body until the server sends DONE; the DONE
        body becomes the generator's *return value* (reachable as
        ``StopIteration.value`` or via ``yield from``), carrying the
        stream trailer -- elapsed ms and, from servers that report it,
        the dropped-window count.  An ERROR frame is raised typed, and
        framing failures close the connection just like
        :meth:`request`.  Abandoning the generator mid-stream leaves
        server frames in flight, so the caller must close (not reuse)
        the connection in that case.
        """
        if self.closed:
            raise ProtocolError("connection is closed")
        try:
            self._sock.sendall(wire.encode_frame(opcode, *fields))
            while True:
                reply_op, body = wire.decode_frame(self._read_frame())
                if reply_op == wire.OP_ERROR:
                    raise wire.decode_error(body)
                if reply_op == wire.OP_DONE:
                    return body
                yield body[0]
        except ConnectionError as exc:
            self.close()
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} lost mid-stream: "
                f"{exc}"
            ) from exc
        except (OSError, ProtocolError):
            self.close()
            raise

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<WireConnection {self.host}:{self.port} {state}>"


class ClientPool:
    """A bounded pool of :class:`WireConnection`.

    ``acquire`` hands out an idle connection, dials a new one below
    ``size``, and otherwise blocks until a lease returns.  Connections
    that died (protocol error, closed socket) are discarded on release,
    so the pool self-heals across server restarts.
    """

    def __init__(self, host: str, port: int, *, size: int = 8,
                 client_name: str = "repro-client",
                 timeout_s: Optional[float] = 30.0):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.host = host
        self.port = port
        self.size = size
        self.client_name = client_name
        self.timeout_s = timeout_s
        self._idle: list = []
        self._live = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self.closed = False

    @property
    def live(self) -> int:
        """Connections currently counted against the pool cap (leased or
        idle).  A dial that fails mid-handshake must leave this at its
        prior value, or the pool permanently loses a slot."""
        with self._lock:
            return self._live

    def acquire(self) -> WireConnection:
        with self._available:
            while True:
                if self.closed:
                    raise ProtocolError("pool is closed")
                while self._idle:
                    conn = self._idle.pop()
                    if not conn.closed:
                        return conn
                    self._live -= 1
                if self._live < self.size:
                    self._live += 1
                    break
                self._available.wait()
        try:
            conn = WireConnection(
                self.host, self.port,
                client_name=self.client_name, timeout_s=self.timeout_s,
            )
        except BaseException:
            with self._available:
                self._live -= 1
                self._available.notify()
            raise
        return conn

    def release(self, conn: WireConnection) -> None:
        with self._available:
            if conn.closed or self.closed:
                conn.close()
                self._live -= 1
            else:
                self._idle.append(conn)
            self._available.notify()

    def close(self) -> None:
        with self._available:
            self.closed = True
            for conn in self._idle:
                conn.close()
            self._live -= len(self._idle)
            self._idle.clear()
            self._available.notify_all()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False


class RemoteNodes:
    """Remote analogue of :class:`~repro.session.SessionNodes`.

    Attribute access returns a builder for the named node-manager
    operation; calling it yields a :class:`PendingCall` for
    :meth:`RemoteSession.run`.  Builders are cached per session, and
    ``__dir__`` lists the operations for introspection -- the same
    contract as the embedded view.
    """

    def __init__(self, session: "RemoteSession"):
        self._session = session

    def __getattr__(self, name: str):
        if name.startswith("_") or name not in NODE_OPS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )

        def build(*args: Any) -> PendingCall:
            return PendingCall(wire.OP_CALL, name, _wire_args(name, args))

        build.__name__ = name
        # Cache on the instance so repeated access returns the same
        # callable (mirrors SessionNodes' bound-method cache).
        object.__setattr__(self, name, build)
        return build

    def __dir__(self):
        return sorted(set(super().__dir__()) | NODE_OPS)


def _wire_args(name: str, args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Lower call arguments to wire-encodable values.

    ``delete_subtree``'s :class:`~repro.core.protocol.Access` enum
    crosses as its string value; everything else the codec handles
    natively (Splids, specs, strings).
    """
    lowered = []
    for arg in args:
        value = getattr(arg, "value", None)
        if value is not None and type(arg).__name__ == "Access":
            lowered.append(value)
        else:
            lowered.append(arg)
    return tuple(lowered)


class RemoteSession:
    """One server-side transaction under context-manager lifecycle.

    Mirrors :class:`repro.session.Session`: ``nodes`` builds operations,
    ``run`` executes them, clean ``with`` exit commits, an exception
    rolls back and re-raises.  ``elapsed_ms`` accumulates the *server's*
    measured service time per call (the remote analogue of the embedded
    session's simulated cost).
    """

    def __init__(self, database: "RemoteDatabase", name: str = "session",
                 isolation: Optional[str] = None):
        self.database = database
        self.name = name
        self._conn: Optional[WireConnection] = database._lease()
        self.nodes = RemoteNodes(self)
        self.elapsed_ms = 0.0
        self._finished = False
        self.txn_id: Optional[int] = None
        try:
            self.txn_id = database._begin(self._conn, name, isolation)
        except BaseException:
            self._surrender()
            raise

    # -- lifecycle ----------------------------------------------------------

    def _surrender(self) -> None:
        """Return (or discard) the leased connection exactly once."""
        conn, self._conn = self._conn, None
        if conn is not None:
            self.database._pool.release(conn)

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if not self._finished:
            if exc_type is None:
                self.commit()
            else:
                reason = str(getattr(exc, "reason", "") or "rollback")
                self.abort(reason=reason)
        else:
            self._surrender()
        return False  # never swallow the exception

    def commit(self) -> None:
        """Commit on the server; the context-manager exit is a no-op."""
        self._require_active()
        self._finished = True
        try:
            _op, body = self._conn.request(wire.OP_COMMIT, self.txn_id)
            self.elapsed_ms = float(body[0])
        finally:
            self._surrender()

    def abort(self, *, reason: str = "rollback") -> None:
        """Roll back on the server; the context-manager exit is a no-op."""
        self._require_active()
        self._finished = True
        try:
            self._conn.request(wire.OP_ABORT, self.txn_id, reason)
        finally:
            self._surrender()

    def _require_active(self) -> None:
        if self._finished or self._conn is None:
            raise TransactionError(
                f"remote session {self.name!r} (txn {self.txn_id}) "
                "is finished"
            )

    # -- driving ------------------------------------------------------------

    def run(self, call: PendingCall, *, with_cost: bool = False,
            trace: Optional[str] = None) -> Any:
        """Ship one pending operation; returns its value.

        With ``with_cost=True`` returns ``(value, cost_ms)`` where
        ``cost_ms`` is the server-measured service time from the RESULT
        frame (the same contract as ``Database.run``).  ``trace``
        attaches a client request id to the frame; the server propagates
        it into its ``rpc`` span and slow-request log, linking client
        and server observability.  A typed abort from the server
        (deadlock victim, lock timeout) finishes this session -- the
        server has already rolled the transaction back.
        """
        self._require_active()
        if not isinstance(call, PendingCall):
            raise TypeError(
                f"RemoteSession.run expects a PendingCall from "
                f"session.nodes or session.query, not {type(call).__name__}"
            )
        if call.opcode == wire.OP_QUERY:
            frame = (wire.OP_QUERY, self.txn_id, call.args[0])
        else:
            frame = (wire.OP_CALL, self.txn_id, call.name, call.args)
        if trace is not None:
            frame = frame + (str(trace),)
        try:
            _op, body = self._conn.request(*frame)
        except ReproError:
            # The server aborts the transaction on *any* failed
            # operation (see RequestHandler._work_failed), and a lost
            # link ends it too.
            self._finished = True
            self._surrender()
            raise
        value, cost_ms = body[0], float(body[1])
        self.elapsed_ms += cost_ms
        if with_cost:
            return value, cost_ms
        return value

    def query(self, path: str) -> PendingCall:
        """A pending XPath evaluation: ``run(session.query("/bib/.."))``."""
        return PendingCall(wire.OP_QUERY, "query", (str(path),))

    def __repr__(self) -> str:
        state = "finished" if self._finished else "active"
        return f"<RemoteSession {self.name} txn={self.txn_id} {state}>"


class RemoteDatabase:
    """Client-side handle on a served database.

    The remote counterpart of :class:`repro.database.Database`:
    ``session(name, isolation)`` opens a server-side transaction.  With
    a :class:`~repro.chaos.retry.RetryPolicy`, BEGIN frames shed by the
    server's admission controller (:class:`~repro.errors
    .AdmissionRejected` -- transient by definition) are retried with the
    policy's deterministic backoff; ``rejected_begins`` counts the
    sheds absorbed this way.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7420, *,
                 pool_size: int = 8, client_name: str = "repro-client",
                 retry: Optional[RetryPolicy] = None, retry_seed: int = 2006,
                 timeout_s: Optional[float] = 30.0):
        self._pool = ClientPool(
            host, port, size=pool_size,
            client_name=client_name, timeout_s=timeout_s,
        )
        self.retry = retry
        self._retry_rng = random.Random(retry_seed)
        self.rejected_begins = 0
        #: Windows the server dropped (full subscriber queue) during the
        #: most recent completed :meth:`subscribe` stream.
        self.last_dropped_windows = 0

    # -- internal plumbing for RemoteSession ---------------------------------

    def _lease(self) -> WireConnection:
        return self._pool.acquire()

    def _begin(self, conn: WireConnection, name: str,
               isolation: Optional[str]) -> int:
        attempt = 0
        while True:
            try:
                _op, body = conn.request(wire.OP_BEGIN, name, isolation)
                return int(body[0])
            except AdmissionRejected:
                # Sessions on many threads share this counter.
                with self._pool._lock:
                    self.rejected_begins += 1
                if self.retry is None or not self.retry.allows_restart(
                    attempt
                ):
                    raise
                attempt += 1
                backoff = self.retry.backoff_ms(attempt, self._retry_rng)
                time.sleep(backoff / 1000.0)

    # -- the public surface --------------------------------------------------

    def session(self, name: str = "session",
                isolation: Optional[str] = None) -> RemoteSession:
        """Open a server-side transaction (context manager)."""
        return RemoteSession(self, name, isolation)

    def info(self) -> Dict[str, Any]:
        """The server's identity/workload payload (fresh INFO request)."""
        conn = self._pool.acquire()
        try:
            _op, body = conn.request(wire.OP_INFO)
            return body[0]
        finally:
            self._pool.release(conn)

    def stats(self) -> Dict[str, Any]:
        """The server's live SLO/overload counters (STATS request)."""
        conn = self._pool.acquire()
        try:
            _op, body = conn.request(wire.OP_STATS)
            return body[0]
        finally:
            self._pool.release(conn)

    def telemetry(self) -> Dict[str, Any]:
        """The server's windowed telemetry series (TELEMETRY request).

        Raises the decoded server error when telemetry is disabled.
        """
        conn = self._pool.acquire()
        try:
            _op, body = conn.request(wire.OP_TELEMETRY)
            return body[0]
        finally:
            self._pool.release(conn)

    def subscribe(self, max_windows: int):
        """Stream ``max_windows`` closed telemetry windows, one dict each.

        Dedicates a pooled connection to the stream for its duration.
        Abandoning the generator early closes that connection (frames
        may still be in flight on it), so the pool redials later.  When
        the stream completes, :attr:`last_dropped_windows` holds the
        server-reported count of windows this stream lost to a full
        subscriber queue (0 for servers predating the trailer field).
        """
        conn = self._pool.acquire()
        complete = False
        try:
            done = yield from conn.stream(wire.OP_SUBSCRIBE, int(max_windows))
            complete = True
            self.last_dropped_windows = (
                int(done[1]) if done is not None and len(done) > 1 else 0
            )
        finally:
            if not complete:
                conn.close()
            self._pool.release(conn)

    def ping(self) -> bool:
        conn = self._pool.acquire()
        try:
            return conn.ping()
        finally:
            self._pool.release(conn)

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"<RemoteDatabase {self._pool.host}:{self._pool.port} "
            f"pool={self._pool.size}>"
        )
