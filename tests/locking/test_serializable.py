"""Tests for isolation level serializable (footnote 1: taDOM* only)."""

import pytest

from repro import Database, IsolationLevel
from repro.errors import LockError, TransactionAborted
from repro.sched import Delay, Simulator

LIBRARY = (
    "topics",
    [("topic", {"id": "t0"}, [
        ("book", {"id": "b0"}, [("title", ["TP"]), ("history", [])]),
    ])],
)


def make_db(protocol="taDOM3+"):
    db = Database(protocol=protocol, lock_depth=7, root_element="bib",
                  isolation="serializable")
    db.load(LIBRARY)
    return db


class TestAvailability:
    def test_tadom_group_offers_it(self):
        for name in ("taDOM2", "taDOM2+", "taDOM3", "taDOM3+"):
            db = Database(protocol=name, isolation="serializable")
            txn = db.begin()
            assert txn.isolation is IsolationLevel.SERIALIZABLE

    @pytest.mark.parametrize("name", [
        "Node2PL", "NO2PL", "OO2PL", "Node2PLa", "IRX", "IRIX", "URIX",
    ])
    def test_other_groups_reject_it(self, name):
        db = Database(protocol=name)
        with pytest.raises(LockError):
            db.begin(isolation="serializable")

    def test_parse(self):
        assert IsolationLevel.parse("serializable") is (
            IsolationLevel.SERIALIZABLE
        )

    @pytest.mark.parametrize("value", ["snapshot", 3, None, b"committed"])
    def test_parse_rejects_unknown_values_with_a_lock_error(self, value):
        with pytest.raises(LockError, match="unknown isolation level"):
            IsolationLevel.parse(value)

    def test_public_entry_points_reject_a_non_string_level(self):
        with pytest.raises(LockError, match="unknown isolation level 3"):
            Database(isolation=3)
        db = Database()
        with pytest.raises(LockError, match="unknown isolation level 3"):
            db.begin(isolation=3)
        with pytest.raises(LockError, match="unknown isolation level 3"):
            db.transactions.begin(isolation=3)


class TestPhantomProtection:
    def test_lookup_miss_blocks_insert_of_that_id(self):
        """The classic phantom: a repeated id() lookup must stay empty."""
        db = make_db()
        sim = Simulator()
        db.set_clock(lambda: sim.now)
        history = db.document.elements_by_name("history")[0]
        observations = []

        def reader():
            txn = db.begin("reader", "serializable")
            first = yield from db.nodes.get_element_by_id(txn, "lend-42")
            yield Delay(100.0)
            second = yield from db.nodes.get_element_by_id(txn, "lend-42")
            observations.append((first, second))
            db.commit(txn)

        def inserter():
            txn = db.begin("inserter", "serializable")
            yield Delay(10.0)
            yield from db.nodes.insert_tree(
                txn, history, ("lend", {"id": "lend-42"}, [])
            )
            db.commit(txn)
            observations.append("inserted")

        sim.spawn(reader())
        sim.spawn(inserter())
        sim.run()
        # The reader saw 'absent' twice; the insert happened afterwards.
        assert observations == [(None, None), "inserted"]

    def test_repeatable_read_allows_the_phantom(self):
        db = Database(protocol="taDOM3+", lock_depth=7, root_element="bib",
                      isolation="repeatable")
        db.load(LIBRARY)
        sim = Simulator()
        db.set_clock(lambda: sim.now)
        history = db.document.elements_by_name("history")[0]
        observations = []

        def reader():
            txn = db.begin("reader", "repeatable")
            first = yield from db.nodes.get_element_by_id(txn, "lend-42")
            yield Delay(100.0)
            second = yield from db.nodes.get_element_by_id(txn, "lend-42")
            observations.append((first is None, second is None))
            db.commit(txn)

        def inserter():
            txn = db.begin("inserter", "repeatable")
            yield Delay(10.0)
            yield from db.nodes.insert_tree(
                txn, history, ("lend", {"id": "lend-42"}, [])
            )
            db.commit(txn)

        sim.spawn(reader())
        sim.spawn(inserter())
        sim.run()
        # Under repeatable read the second lookup FINDS the phantom.
        assert observations == [(True, False)]

    def test_delete_blocks_behind_id_readers(self):
        db = make_db()
        sim = Simulator()
        db.set_clock(lambda: sim.now)
        order = []

        def reader():
            txn = db.begin("reader", "serializable")
            node = yield from db.nodes.get_element_by_id(txn, "b0")
            assert node is not None
            yield Delay(100.0)
            order.append("reader-done")
            db.commit(txn)

        def deleter():
            txn = db.begin("deleter", "serializable")
            yield Delay(10.0)
            book = db.document.element_by_id("b0")
            try:
                yield from db.nodes.delete_subtree(txn, book)
            except TransactionAborted:
                db.abort(txn)
                order.append("deleter-aborted")
                return
            db.commit(txn)
            order.append("deleter-done")

        sim.spawn(reader())
        sim.spawn(deleter())
        sim.run()
        assert order[0] == "reader-done"

    def test_single_user_overhead_only(self):
        """Serializable works single-user; it just takes extra key locks."""
        db = make_db()
        txn = db.begin("t", "serializable")
        node, _ = db.run(db.nodes.get_element_by_id(txn, "b0"))
        assert node is not None
        held = db.locks.table.held_resources(txn)
        assert ("idkey", "b0") in held
        db.commit(txn)
