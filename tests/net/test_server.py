"""Live server tests: handshake, typed errors over the wire, admission
shed (counted exactly across client threads), SLO stats, survival of
malformed requests, and exact counts under concurrent client threads."""

import socket
import sys
import threading

import pytest

import repro
from repro.chaos import AdmissionPolicy, RetryPolicy
from repro.errors import (
    AdmissionRejected,
    LockTimeout,
    ProtocolError,
    RemoteError,
    RollbackError,
    TransactionAborted,
    UnsupportedWireVersion,
)
from repro.net import wire
from repro.net.client import RemoteDatabase, RemoteSession, WireConnection
from repro.splid import Splid

from tests.net.conftest import make_server
from tests.net.test_wire import MALFORMED_BODIES, raw_frame


@pytest.fixture
def db(live_server):
    handle = RemoteDatabase("127.0.0.1", live_server.port, pool_size=2)
    yield handle
    handle.close()


class TestHandshake:
    def test_info_carries_identity_and_workload(self, db):
        info = db.info()
        assert info["protocol"] == "taDOM3+"
        assert info["lock_depth"] == 4
        assert info["root"] == "bib"
        assert info["nodes"] > 0
        assert info["book_ids"], "bib generator should publish book ids"

    def test_connect_url_reaches_the_server(self, live_server):
        handle = repro.connect(f"tcp://127.0.0.1:{live_server.port}")
        try:
            assert isinstance(handle, RemoteDatabase)
            assert handle.info()["root"] == "bib"
        finally:
            handle.close()

    @staticmethod
    def hello_reply(live_server, version):
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=5
        ) as sock:
            sock.sendall(wire.encode_frame(wire.OP_HELLO, version, "time-traveller"))
            return read_frame(sock)

    def test_version_mismatch_is_typed_and_permanent(self, live_server):
        opcode, fields = self.hello_reply(live_server, 99)
        assert opcode == wire.OP_ERROR
        error = wire.decode_error(fields)
        assert isinstance(error, UnsupportedWireVersion)
        assert repro.is_permanent(error)

    def test_version_1_hello_is_refused(self, live_server):
        """Version 2 added the packed pair tag a version-1 peer cannot read."""
        assert wire.WIRE_VERSION == 2
        opcode, fields = self.hello_reply(live_server, 1)
        assert opcode == wire.OP_ERROR
        assert isinstance(wire.decode_error(fields), UnsupportedWireVersion)


def read_frame(sock):
    """Read exactly one frame from a blocking socket and decode it."""
    buffer = b""
    while True:
        _payload, total = wire.split_frame(buffer)
        if total > 0 and len(buffer) >= total:
            return wire.decode_frame(buffer[:total])
        chunk = sock.recv(65536)
        assert chunk, "server closed without sending a frame"
        buffer += chunk


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
    def test_server_answers_error_frame_and_counts_it(self, live_server, name):
        errors_before = live_server.server.protocol_errors
        with socket.create_connection(
            ("127.0.0.1", live_server.port), timeout=5
        ) as sock:
            sock.sendall(wire.encode_frame(wire.OP_HELLO, wire.WIRE_VERSION, "fuzz"))
            assert read_frame(sock)[0] == wire.OP_WELCOME
            sock.sendall(raw_frame(wire.OP_CALL, MALFORMED_BODIES[name]))
            opcode, fields = read_frame(sock)
        assert opcode == wire.OP_ERROR
        assert type(wire.decode_error(fields)) is ProtocolError
        assert live_server.server.protocol_errors == errors_before + 1


class TestSessions:
    def test_commit_path_mirrors_embedded_session(self, db, live_server):
        committed_before = live_server.server.slo.committed
        with db.session("reader") as session:
            assert isinstance(session, RemoteSession)
            book_id = db.info()["book_ids"][0]
            book = session.run(session.nodes.get_element_by_id(book_id))
            assert isinstance(book, Splid)
            entries = session.run(session.nodes.read_subtree(book))
            assert len(entries) > 1
            assert session.elapsed_ms >= 0.0
        assert live_server.server.slo.committed == committed_before + 1

    def test_with_cost_returns_server_measured_pair(self, db):
        with db.session("costed") as session:
            book_id = db.info()["book_ids"][0]
            value, cost = session.run(
                session.nodes.get_element_by_id(book_id), with_cost=True
            )
            assert isinstance(value, Splid)
            assert cost >= 0.0

    def test_query_over_the_wire(self, db):
        with db.session("xpath") as session:
            topic_id = db.info()["topic_ids"][0]
            result = session.run(session.query(f"id('{topic_id}')"))
            assert result  # the topic node resolves

    def test_lock_timeout_arrives_typed(self, db):
        book_id = db.info()["book_ids"][0]
        with db.session("writer") as writer:
            book = writer.run(writer.nodes.get_element_by_id(book_id))
            writer.run(writer.nodes.rename_element(book, "tome"))
            with pytest.raises(LockTimeout) as excinfo:
                with db.session("blocked-reader") as reader:
                    reader.run(reader.nodes.read_subtree(book))
            assert repro.is_transient(excinfo.value)
            writer.abort()  # roll the rename back for the other tests

    def test_missing_id_resolves_to_none_like_embedded(self, db):
        with db.session("missing-id") as session:
            assert session.run(
                session.nodes.get_element_by_id("b404-nope")
            ) is None

    def test_abort_rolls_back_on_the_server(self, db, live_server):
        aborted_before = live_server.server.slo.aborted
        with pytest.raises(RuntimeError, match="boom"):
            with db.session("doomed") as session:
                book_id = db.info()["book_ids"][0]
                session.run(session.nodes.get_element_by_id(book_id))
                raise RuntimeError("boom")
        assert live_server.server.slo.aborted == aborted_before + 1

    def test_bad_arguments_fail_the_txn_not_the_server(self, db):
        with pytest.raises(RemoteError):
            with db.session("fumbling") as session:
                # a string where a SPLID belongs: server answers with an
                # ERROR frame instead of dropping the connection
                session.run(session.nodes.read_subtree("9.9.9"))
        # the connection pool is still serviceable afterwards
        assert db.info()["root"] == "bib"

    def test_unknown_operation_rejected_client_side(self, db):
        with db.session("typo") as session:
            with pytest.raises(AttributeError):
                session.nodes.raed_subtree  # noqa: B018 -- the typo is the test
            session.abort()

    def test_remote_nodes_caches_and_lists_operations(self, db):
        with db.session("introspect") as session:
            assert session.nodes.read_subtree is session.nodes.read_subtree
            assert "read_subtree" in dir(session.nodes)
            session.abort()


class TestFailedRollback:
    def test_txn_whose_rollback_failed_stays_abortable(self):
        """A failed operation whose server-side rollback raises leaves
        the transaction ACTIVE with its locks held; the connection must
        keep it so a later ABORT (or disconnect) can still end it."""
        handle = make_server()
        database = handle.server.database
        real_abort, reasons = database.abort, []

        def abort_failing_once(txn, *, reason="rollback"):
            reasons.append(reason)
            if len(reasons) == 1:
                raise RollbackError("undo entry could not be applied")
            real_abort(txn, reason=reason)

        database.abort = abort_failing_once
        try:
            conn = WireConnection("127.0.0.1", handle.port)
            try:
                book_id = conn.server_info["book_ids"][0]
                _op, (txn_id,) = conn.request(wire.OP_BEGIN, "stuck", None)
                conn.request(
                    wire.OP_CALL, txn_id, "get_element_by_id", (book_id,)
                )
                assert database.locks.table.lock_count() > 0
                # the original failure is reported, not the RollbackError
                with pytest.raises(RemoteError):
                    conn.request(
                        wire.OP_CALL, txn_id, "read_subtree", ("9.9.9",)
                    )
                assert database.locks.table.lock_count() > 0
                opcode, _body = conn.request(
                    wire.OP_ABORT, txn_id, "rollback"
                )
                assert opcode == wire.OP_DONE
            finally:
                conn.close()
            assert len(reasons) == 2
            assert database.locks.table.lock_count() == 0
            assert handle.server.slo.aborted == 1
        finally:
            handle.shutdown()


class TestStats:
    def test_stats_report_slo_percentiles(self, db, live_server):
        errors_before = live_server.server.protocol_errors
        book_id = db.info()["book_ids"][0]
        for _i in range(3):
            with db.session("warm") as session:
                session.run(session.nodes.get_element_by_id(book_id))
        stats = db.stats()
        overall = stats["slo"]["_overall"]
        for key in ("count", "p50_ms", "p99_ms", "p999_ms"):
            assert key in overall
        assert overall["count"] >= 3
        assert stats["slo"]["warm"]["count"] >= 3
        # well-formed traffic never trips the protocol-error counter
        assert stats["protocol_errors"] == errors_before


class TestAdmission:
    def test_shed_is_typed_and_retryable(self):
        handle = make_server(
            admission=AdmissionPolicy(max_pressure=1, max_queue_waits=0)
        )
        try:
            # force overload: pressure beyond max_pressure sheds BEGINs
            handle.server.admission.pressure = 5
            plain = RemoteDatabase("127.0.0.1", handle.port, pool_size=1)
            try:
                with pytest.raises(AdmissionRejected) as excinfo:
                    plain.session("shed-me")
                assert repro.is_transient(excinfo.value)
            finally:
                plain.close()
            assert handle.server.sheds > 0

            # a retrying client absorbs the shed once pressure drops
            retrying = RemoteDatabase(
                "127.0.0.1", handle.port, pool_size=1,
                retry=RetryPolicy(max_restarts=4, base_backoff_ms=1.0,
                                  max_backoff_ms=2.0),
            )
            try:
                handle.server.admission.pressure = 0
                with retrying.session("admitted") as session:
                    session.abort()
            finally:
                retrying.close()
        finally:
            handle.shutdown()

    def test_rejected_begins_counts_every_shed_across_threads(self):
        """Sessions on many threads share one ``RemoteDatabase``, as the
        live load generator's slots do: no shed may go uncounted."""
        clients, attempts = 8, 25
        handle = make_server(
            admission=AdmissionPolicy(max_pressure=1, max_queue_waits=0)
        )
        handle.server.admission.pressure = 5  # every BEGIN sheds
        db = RemoteDatabase("127.0.0.1", handle.port, pool_size=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def client():
                for _attempt in range(attempts):
                    with pytest.raises(AdmissionRejected):
                        db.session("shed-me")

            threads = [threading.Thread(target=client)
                       for _index in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert db.rejected_begins == clients * attempts
            assert handle.server.sheds == clients * attempts
        finally:
            sys.setswitchinterval(interval)
            db.close()
            handle.shutdown()


class TestConcurrentClients:
    def test_concurrent_appends_count_exactly(self):
        """Eight client threads append lends to one history in whatever
        order the OS delivers their requests; every transaction either
        commits its one child or leaves no trace."""
        clients, per_client = 8, 5
        handle = make_server()  # a private document
        db = RemoteDatabase("127.0.0.1", handle.port, pool_size=clients)
        try:
            book_id = db.info()["book_ids"][0]
            with db.session("locate") as session:
                book = session.run(session.nodes.get_element_by_id(book_id))
                history = session.run(session.nodes.get_last_child(book))
                lends_before = len(
                    session.run(session.nodes.get_child_nodes(history))
                )
            committed_before = handle.server.slo.committed
            outcomes = {"committed": 0, "aborted": 0}
            errors = []
            tally = threading.Lock()

            def client(index):
                for k in range(per_client):
                    outcome = "committed"
                    try:
                        with db.session(f"append-{index}-{k}") as session:
                            book = session.run(
                                session.nodes.get_element_by_id(book_id)
                            )
                            target = session.run(
                                session.nodes.get_last_child(book)
                            )
                            session.run(session.nodes.insert_tree(
                                target, ("lend", {"person": f"p{index}"}, [])
                            ))
                    except TransactionAborted:
                        outcome = "aborted"
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)
                        return
                    with tally:
                        outcomes[outcome] += 1

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors

            committed = outcomes["committed"]
            assert committed + outcomes["aborted"] == clients * per_client
            assert handle.server.slo.committed - committed_before == committed
            with db.session("count") as session:
                lends_after = len(
                    session.run(session.nodes.get_child_nodes(history))
                )
            assert lends_after - lends_before == committed
            assert db.stats()["active_txns"] == 0
        finally:
            db.close()
            handle.shutdown()
