"""Unit tests for the deadlock detector (wait-for graph analysis)."""

import gc
import weakref

import pytest

from repro.core import NODE_SPACE
from repro.core.tables import TADOM2_TABLE
from repro.locking import DeadlockDetector, LockTable
from repro.locking.deadlock import _EVENT_CAPACITY
from repro.splid import Splid


def S(text):
    return Splid.parse(text)


@pytest.fixture
def table():
    return LockTable({NODE_SPACE: TADOM2_TABLE})


@pytest.fixture
def detector(table):
    return DeadlockDetector(table)


NODE_A = S("1.3")
NODE_B = S("1.5")


class TestCycleDetection:
    def test_no_cycle_on_simple_wait(self, table, detector):
        table.request("t1", NODE_SPACE, NODE_A, "SX")
        blocked = table.request("t2", NODE_SPACE, NODE_A, "NR")
        assert detector.check(blocked.ticket) is None
        assert detector.count() == 0

    def test_two_party_cycle(self, table, detector):
        table.request("t1", NODE_SPACE, NODE_A, "SX")
        table.request("t2", NODE_SPACE, NODE_B, "SX")
        w1 = table.request("t1", NODE_SPACE, NODE_B, "NR")
        assert detector.check(w1.ticket) is None
        w2 = table.request("t2", NODE_SPACE, NODE_A, "NR")
        event = detector.check(w2.ticket, active_transactions=2)
        assert event is not None
        assert event.victim == "t2"
        assert set(event.cycle) == {"t1", "t2"}
        assert event.active_transactions == 2

    def test_three_party_cycle(self, table, detector):
        node_c = S("1.7")
        table.request("t1", NODE_SPACE, NODE_A, "SX")
        table.request("t2", NODE_SPACE, NODE_B, "SX")
        table.request("t3", NODE_SPACE, node_c, "SX")
        assert detector.check(
            table.request("t1", NODE_SPACE, NODE_B, "NR").ticket) is None
        assert detector.check(
            table.request("t2", NODE_SPACE, node_c, "NR").ticket) is None
        event = detector.check(
            table.request("t3", NODE_SPACE, NODE_A, "NR").ticket)
        assert event is not None
        assert set(event.cycle) == {"t1", "t2", "t3"}

    def test_waiting_on_non_waiting_holder_is_no_cycle(self, table, detector):
        table.request("t1", NODE_SPACE, NODE_A, "SR")
        table.request("t2", NODE_SPACE, NODE_A, "SR")
        conversion = table.request("t1", NODE_SPACE, NODE_A, "SX")
        assert detector.check(conversion.ticket) is None


class TestClassification:
    def test_conversion_deadlock(self, table, detector):
        table.request("t1", NODE_SPACE, NODE_A, "SR")
        table.request("t2", NODE_SPACE, NODE_A, "SR")
        c1 = table.request("t1", NODE_SPACE, NODE_A, "SX")
        assert detector.check(c1.ticket) is None
        c2 = table.request("t2", NODE_SPACE, NODE_A, "SX")
        event = detector.check(c2.ticket)
        assert event is not None
        assert event.conversion
        assert event.kind == "conversion"

    def test_distinct_subtree_deadlock(self, table, detector):
        table.request("t1", NODE_SPACE, NODE_A, "SX")
        table.request("t2", NODE_SPACE, NODE_B, "SX")
        detector.check(table.request("t1", NODE_SPACE, NODE_B, "NR").ticket)
        event = detector.check(
            table.request("t2", NODE_SPACE, NODE_A, "NR").ticket)
        assert event is not None
        assert not event.conversion
        assert event.kind == "distinct-subtree"

    def test_counts_by_kind(self, table, detector):
        self.test_distinct_subtree_deadlock(table, detector)
        counts = detector.counts_by_kind()
        assert counts == {"conversion": 0, "distinct-subtree": 1}
        assert detector.count() == 1


class TestEventLog:
    """Counts cover every deadlock; the event log keeps only recent ones."""

    def test_bounded_log_exact_counts_and_victims_collected(self, table,
                                                            detector):
        class Txn:
            def __init__(self, label):
                self.label = label

        rounds = _EVENT_CAPACITY + 44
        first_victim = None
        for i in range(rounds):
            t1, t2 = Txn(f"a{i:04d}"), Txn(f"b{i:04d}")
            table.request(t1, NODE_SPACE, NODE_A, "SX")
            table.request(t2, NODE_SPACE, NODE_B, "SX")
            assert detector.check(
                table.request(t1, NODE_SPACE, NODE_B, "NR").ticket) is None
            event = detector.check(
                table.request(t2, NODE_SPACE, NODE_A, "NR").ticket)
            assert event is not None and event.victim is t2
            if first_victim is None:
                first_victim = weakref.ref(t2)
            table.cancel_wait(t2)
            table.release_all(t2)
            table.release_all(t1)
        assert detector.count() == rounds
        assert detector.counts_by_kind() == {
            "conversion": 0, "distinct-subtree": rounds}
        assert len(detector.events) == _EVENT_CAPACITY
        assert detector.events[-1].victim.label == f"b{rounds - 1:04d}"
        gc.collect()
        assert first_victim() is None


class TestDeterminism:
    """The detector must not depend on object addresses or insertion order."""

    def _build(self, table, t1, t2, zz, mm):
        """A 2-cycle (t1 <-> t2) plus extra waiters zz/mm on NODE_A."""
        table.request(t1, NODE_SPACE, NODE_A, "SX")
        table.request(t2, NODE_SPACE, NODE_B, "SX")
        table.request(zz, NODE_SPACE, NODE_A, "NR")
        table.request(mm, NODE_SPACE, NODE_A, "NR")
        table.request(t1, NODE_SPACE, NODE_B, "NR")
        return table.request(t2, NODE_SPACE, NODE_A, "NR")

    def test_wait_edges_sorted_by_label(self, table, detector):
        blocked = self._build(table, "t1", "t2", "zz", "mm")
        event = detector.check(blocked.ticket)
        assert event is not None
        assert event.wait_edges == (
            ("mm", "t1"), ("mm", "zz"),
            ("t1", "t2"),
            ("t2", "mm"), ("t2", "t1"), ("t2", "zz"),
            ("zz", "t1"),
        )

    def test_wait_edges_independent_of_object_creation_order(self):
        """Sorting by object address made the snapshot depend on which
        transaction happened to be allocated first; sorting by label must
        not (same requests, opposite allocation order, identical event)."""

        class Txn:
            def __init__(self, label):
                self.label = label

        events = []
        for creation_order in (("t1", "t2", "zz", "mm"),
                               ("mm", "zz", "t2", "t1")):
            txns = {label: Txn(label) for label in creation_order}
            table = LockTable({NODE_SPACE: TADOM2_TABLE})
            detector = DeadlockDetector(table)
            blocked = self._build(
                table, txns["t1"], txns["t2"], txns["zz"], txns["mm"]
            )
            events.append(detector.check(blocked.ticket))

        def labelled(event):
            return (
                event.victim.label,
                tuple(t.label for t in event.cycle),
                tuple((w.label, b.label) for w, b in event.wait_edges),
                event.waiting_modes,
            )

        assert events[0] is not None and events[1] is not None
        assert labelled(events[0]) == labelled(events[1])

    def test_deep_wait_chain_has_no_recursion_error(self, table, detector):
        """A wait chain far past the default recursion limit must still
        resolve to a deadlock victim (iterative DFS regression)."""
        count = 2000
        nodes = [S(f"1.{2 * i + 3}") for i in range(count)]
        table.request("t0000", NODE_SPACE, nodes[0], "SX")
        for i in range(1, count):
            txn = f"t{i:04d}"
            table.request(txn, NODE_SPACE, nodes[i], "SX")
            blocked = table.request(txn, NODE_SPACE, nodes[i - 1], "NR")
            assert detector.check(blocked.ticket) is None
        closing = table.request("t0000", NODE_SPACE, nodes[-1], "NR")
        event = detector.check(closing.ticket, active_transactions=count)
        assert event is not None
        assert event.victim == "t0000"
        assert len(event.cycle) == count
