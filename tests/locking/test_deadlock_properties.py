"""Property tests for the deadlock detector's "is anyone waiting on the
requester?" pre-check.

Random request/release/cancel schedules (conversions included) over two
mode tables must keep two things true at every step:

* ``LockTable.is_waited_on(txn)`` equals "``txn`` is in ``blockers_of``
  of some other waiting ticket", for every transaction;
* the detector yields the same event stream as a reference detector that
  always runs the labelled DFS, and it runs the DFS exactly when the
  pre-check says someone waits on the requester.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import STRUCT2PL_TABLE, TADOM2_TABLE
from repro.locking import DeadlockDetector, LockTable
from repro.splid import Splid

SPACE = "node"
RESOURCES = [Splid.parse(t) for t in ("1.3", "1.5", "1.7")]


class _AlwaysWaitedOn:
    """Lock-table view whose pre-check never rules a cycle out, so a
    detector over it runs the DFS on every check."""

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        return getattr(self._table, name)

    def is_waited_on(self, txn):
        return True


def expected_waited_on(table, txn):
    return any(
        txn in blockers
        for waiter, blockers in table.wait_edges().items()
        if waiter != txn
    )


def summary(event):
    if event is None:
        return None
    return (event.victim, event.cycle, event.kind, event.resource,
            event.locks_held, event.wait_edges, event.waiting_modes)


def test_conversion_does_not_wait_on_a_conversion_queued_ahead():
    """Conversions skip the queue-ahead clause.  Random schedules rarely
    build this: two conversions on one resource, the later one blocked
    only by a third holder, not by the transaction queued ahead of it."""
    table = LockTable({SPACE: TADOM2_TABLE})
    table.request("a", SPACE, RESOURCES[0], "IR")
    table.request("b", SPACE, RESOURCES[0], "IR")
    table.request("c", SPACE, RESOURCES[0], "IX")
    first = table.request("a", SPACE, RESOURCES[0], "SR")
    second = table.request("b", SPACE, RESOURCES[0], "SR")
    assert first.ticket.is_conversion and second.ticket.is_conversion
    assert table.blockers_of(second.ticket) == {"c"}
    assert not table.is_waited_on("a")
    assert table.is_waited_on("c")


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    mode_table=st.sampled_from([TADOM2_TABLE, STRUCT2PL_TABLE]),
    txn_count=st.integers(min_value=2, max_value=6),
    steps=st.integers(min_value=5, max_value=60),
)
def test_precheck_matches_blockers_and_reference_detector(
        data, mode_table, txn_count, steps):
    txns = [f"t{i}" for i in range(txn_count)]
    table = LockTable({SPACE: mode_table})
    detector = DeadlockDetector(table)
    reference = DeadlockDetector(_AlwaysWaitedOn(table))
    searches = []
    find_cycle = detector._find_cycle

    def counted_find_cycle(start):
        searches.append(start)
        return find_cycle(start)

    detector._find_cycle = counted_find_cycle

    for _step in range(steps):
        # Requests dominate so that waits pile up into cycles.
        action = data.draw(st.sampled_from(
            ["request"] * 6 + ["release", "release_all", "cancel"]))
        txn = data.draw(st.sampled_from(txns))
        if action == "request" and table.waiting_ticket(txn) is None:
            resource = data.draw(st.sampled_from(RESOURCES))
            mode = data.draw(st.sampled_from(mode_table.modes))
            result = table.request(txn, SPACE, resource, mode)
            if not result.granted:
                may_cycle = expected_waited_on(table, txn)
                searched_before = len(searches)
                event = detector.check(result.ticket, txn_count)
                assert len(searches) - searched_before == int(may_cycle)
                assert event is None or may_cycle
                ref_event = reference.check(result.ticket, txn_count)
                assert summary(event) == summary(ref_event)
                if event is not None:
                    table.cancel_wait(txn)
        elif action == "release":
            table.release(txn, (SPACE, data.draw(st.sampled_from(RESOURCES))))
        elif action == "release_all":
            table.release_all(txn)
        elif action == "cancel":
            table.cancel_wait(txn)
        for candidate in txns:
            assert table.is_waited_on(candidate) == expected_waited_on(
                table, candidate), candidate

    assert [summary(e) for e in detector.events] == [
        summary(e) for e in reference.events]
    assert detector.counts_by_kind() == reference.counts_by_kind()
