"""Embedded-vs-remote equivalence: the same scripted session against an
in-process :class:`Database` and a live server over the wire must see
identical values (SPLIDs, subtree entries, query results, serialized
XML), since the remote path round-trips everything through the codec."""

import socket
import time

import pytest

from repro import Database
from repro.chaos import AdmissionPolicy
from repro.net import wire
from repro.net.client import RemoteDatabase
from repro.net.server import RequestHandler, ServerConfig
from repro.sched.simulator import Simulator
from repro.tamix.bibgen import generate_bib, load_bib
from repro.verify.faults import canonical_image

from tests.net.conftest import make_server


@pytest.fixture(scope="module")
def embedded():
    # the very document the live_server fixture builds (same scale/seed)
    info = generate_bib(scale=0.05, seed=2006)
    database = Database(
        protocol="taDOM3+", lock_depth=4, document=info.document,
        wait_timeout_ms=1_000.0,
    )
    return database, info


@pytest.fixture
def remote(live_server):
    handle = RemoteDatabase("127.0.0.1", live_server.port, pool_size=2)
    yield handle
    handle.close()


def scripted_session(db, book_id, topic_id):
    """One read-only tour, identical for Session and RemoteSession."""
    out = {}
    with db.session("tour") as session:
        book = session.run(session.nodes.get_element_by_id(book_id))
        out["book"] = book
        out["subtree"] = session.run(session.nodes.read_subtree(book))
        out["first_child"] = session.run(session.nodes.get_first_child(book))
        out["content"] = session.run(session.nodes.read_content(book))
        out["query"] = session.run(
            session.query(f"id('{topic_id}')")
        )
    return out


class TestEquivalence:
    def test_scripted_session_sees_identical_values(self, embedded, remote):
        database, info = embedded
        book_id, topic_id = info.book_ids[0], info.topic_ids[0]
        local = scripted_session(database, book_id, topic_id)
        served = scripted_session(remote, book_id, topic_id)
        assert local["book"] == served["book"]
        assert local["subtree"] == served["subtree"]
        assert local["first_child"] == served["first_child"]
        assert local["content"] == served["content"]
        assert local["query"] == served["query"]

    def test_session_surfaces_match(self, embedded, remote):
        database, info = embedded
        book_id = info.book_ids[0]
        with database.session("a") as local, remote.session("b") as served:
            # the one-constructor-change contract: same node operations,
            # same run keyword, same lifecycle methods
            for name in ("read_subtree", "get_element_by_id", "read_content"):
                assert name in dir(local.nodes)
                assert name in dir(served.nodes)
            lv, lc = local.run(
                local.nodes.get_element_by_id(book_id), with_cost=True
            )
            rv, rc = served.run(
                served.nodes.get_element_by_id(book_id), with_cost=True
            )
            assert lv == rv
            assert lc >= 0.0 and rc >= 0.0
            local.abort()
            served.abort()


# -- one request handler for live and simulated traffic ------------------------
#
# The same scripted request frames go once through RequestHandler driven
# by the discrete-event Simulator (the load generator's sim path) and
# once through a live LockServer over TCP.  Replies must match frame for
# frame, and both databases must end up with the same document.

SCRIPT_ADMISSION = AdmissionPolicy(
    max_pressure=1, max_queue_waits=1, queue_backoff_ms=5.0
)
SCRIPT_WAIT_TIMEOUT_MS = 50.0


def scripted_frames(book_id):
    """Yields ``(connection, opcode, fields)``; is sent ``(opcode, body)``.

    A writer updates a chapter summary; a reader times out behind its
    lock (and so enters restart: pressure 1); a bystander's BEGIN is
    queued once, then shed; the writer commits; the reader restarts
    past admission and commits; the bystander is admitted.
    """
    _op, (writer,) = yield "A", wire.OP_BEGIN, ("writer", None)
    _op, (book, _c) = yield "A", wire.OP_CALL, (
        writer, "get_element_by_id", (book_id,))
    yield "A", wire.OP_CALL, (writer, "read_subtree", (book,))
    _op, (summaries, _c) = yield "A", wire.OP_QUERY, (
        writer, f"id('{book_id}')/chapters/chapter/summary")
    _op, (text, _c) = yield "A", wire.OP_CALL, (
        writer, "get_first_child", (summaries[0],))
    yield "A", wire.OP_CALL, (writer, "update_content", (text, "revised"))
    _op, (reader,) = yield "B", wire.OP_BEGIN, ("reader", None)
    opcode, _body = yield "B", wire.OP_CALL, (reader, "read_subtree", (book,))
    assert opcode == wire.OP_ERROR  # LockTimeout behind the writer
    opcode, _body = yield "C", wire.OP_BEGIN, ("bystander", None)
    assert opcode == wire.OP_ERROR  # AdmissionRejected
    yield "A", wire.OP_COMMIT, (writer,)
    _op, (reader,) = yield "B", wire.OP_BEGIN, ("reader", None)
    yield "B", wire.OP_CALL, (reader, "read_subtree", (book,))
    yield "B", wire.OP_COMMIT, (reader,)
    _op, (bystander,) = yield "C", wire.OP_BEGIN, ("bystander", None)
    yield "C", wire.OP_ABORT, (bystander, "rollback")
    yield "C", wire.OP_PING, ()


def comparable(opcode, body):
    """A reply minus what legitimately differs between two servers."""
    if opcode == wire.OP_BEGUN:
        return opcode, ()  # transaction ids are process-global
    if opcode in (wire.OP_RESULT, wire.OP_DONE):
        return opcode, body[:-1]  # cost_ms: simulated vs wall
    if opcode == wire.OP_ERROR and body[0] == "LockTimeout":
        return opcode, body[:3]  # the message is written by the driver
    return opcode, body


def next_request(steps, transcript, reply_frame):
    """Record the reply to the previous request and encode the next one:
    ``(connection, frame)``, or ``None`` when the script is over."""
    reply = None
    if reply_frame is not None:
        reply = wire.decode_frame(reply_frame)
        transcript.append(comparable(*reply))
    try:
        name, opcode, fields = steps.send(reply)
    except StopIteration:
        return None
    return name, wire.encode_frame(opcode, *fields)


COUNTERS = ("committed", "aborted", "aborted_by_reason", "sheds",
            "protocol_errors", "requests", "requests_by_opcode",
            "connections", "active_txns")


def simulated_run():
    info = load_bib(0.05, seed=2006)
    database = Database(
        protocol="taDOM3+", lock_depth=4, document=info.document,
        wait_timeout_ms=SCRIPT_WAIT_TIMEOUT_MS,
    )
    sim = Simulator()
    handler = RequestHandler(
        database, clock=lambda: sim.now, info=info,
        config=ServerConfig(admission=SCRIPT_ADMISSION, telemetry=False),
    )
    transcript = []

    def process():
        conns = {}
        steps = scripted_frames(info.book_ids[0])
        reply = None
        while True:
            request = next_request(steps, transcript, reply)
            if request is None:
                return
            name, frame = request
            if name not in conns:
                conns[name] = handler.connect()
            reply = handler.dispatch(conns[name], *wire.decode_frame(frame))
            if not isinstance(reply, bytes):
                reply = yield from reply

    sim.spawn(process(), name="script")
    sim.run()
    # queue back-off and lock-wait timeout passed on the simulated clock
    assert sim.now >= (
        SCRIPT_WAIT_TIMEOUT_MS + SCRIPT_ADMISSION.queue_backoff_ms
    )
    stats = handler.stats()
    return (transcript, {key: stats[key] for key in COUNTERS},
            canonical_image(database.document))


class _RawConnection:
    """A socket that has shaken hands and trades whole frames."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        opcode, _body = wire.decode_frame(self.roundtrip(
            wire.encode_frame(wire.OP_HELLO, wire.WIRE_VERSION, "script")
        ))
        assert opcode == wire.OP_WELCOME

    def roundtrip(self, frame):
        self.sock.sendall(frame)
        buffer = b""
        while True:
            _length, total = wire.split_frame(buffer)
            if total > 0 and len(buffer) >= total:
                return buffer
            chunk = self.sock.recv(65536)
            assert chunk, "server closed mid-reply"
            buffer += chunk


def live_run():
    handle = make_server(
        admission=SCRIPT_ADMISSION, wait_timeout_ms=SCRIPT_WAIT_TIMEOUT_MS,
        telemetry=False,
    )
    conns = {}
    transcript, wall_ms = [], []
    try:
        steps = scripted_frames(handle.server.info.book_ids[0])
        reply = None
        while True:
            request = next_request(steps, transcript, reply)
            if request is None:
                break
            name, frame = request
            if name not in conns:
                conns[name] = _RawConnection(handle.port)
            t0 = time.monotonic()
            reply = conns[name].roundtrip(frame)
            wall_ms.append((time.monotonic() - t0) * 1000.0)
        stats = handle.server.stats()
    finally:
        for conn in conns.values():
            conn.sock.close()
        handle.shutdown()
    # on a live server both waits pass in wall time
    assert wall_ms[7] >= SCRIPT_WAIT_TIMEOUT_MS
    assert wall_ms[8] >= SCRIPT_ADMISSION.queue_backoff_ms
    return (transcript, {key: stats[key] for key in COUNTERS},
            canonical_image(handle.server.database.document))


class TestOneRequestHandler:
    def test_simulated_and_live_replies_match_frame_for_frame(self):
        sim_transcript, sim_counters, sim_image = simulated_run()
        live_transcript, live_counters, live_image = live_run()
        assert len(sim_transcript) == 16
        timeout, shed = sim_transcript[7], sim_transcript[8]
        assert timeout == (wire.OP_ERROR, ("LockTimeout", "transient", "timeout"))
        assert shed[1][0] == "AdmissionRejected"
        assert sim_transcript == live_transcript
        assert sim_counters == live_counters
        assert sim_counters["sheds"] == 1 and sim_counters["committed"] == 2
        assert sim_image == live_image
        assert b"revised" in sim_image

    def test_loadgen_keeps_no_server_of_its_own(self):
        from repro.net import loadgen

        assert not hasattr(loadgen, "SimTransport")
        assert not hasattr(loadgen, "SimConnection")
