"""Property tests for the deadlock detector's "is anyone waiting on the
requester?" pre-check.

Random request/release/cancel schedules (conversions included) over two
mode tables must keep two things true at every step:

* ``LockTable.is_waited_on(txn)`` equals "``txn`` is in ``blockers_of``
  of some other waiting ticket", for every transaction;
* the detector yields the same event stream as a reference detector that
  always runs the labelled DFS, and it runs the DFS exactly when the
  pre-check says someone waits on the requester.

A state machine over the same harness runs those four operations on every
distinct mode table of the 11 protocols against the naive
:class:`~tests.locking.reference_lock_table.ReferenceLockTable`: the grant
decision, queueing, conversions, child modes, wake order and the four
counters must agree with it at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import get_protocol, protocol_names
from repro.core.tables import STRUCT2PL_TABLE, TADOM2_TABLE
from repro.locking import DeadlockDetector, LockTable
from repro.splid import Splid
from tests.locking.reference_lock_table import ReferenceLockTable

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


def test_conversion_granted_after_its_holder_released_is_released_later():
    """Random schedules rarely build this: a transaction releases the
    resource its own queued conversion waits on, and the conversion is
    granted afterwards.  release_all must still release that lock."""
    table = LockTable({SPACE: TADOM2_TABLE})
    resource = (SPACE, RESOURCES[0])
    table.request("a", SPACE, RESOURCES[0], "NR")
    table.request("b", SPACE, RESOURCES[0], "NR")
    assert not table.request("a", SPACE, RESOURCES[0], "SX").granted
    table.release("a", resource)
    table.release_all("b")
    assert table.holders(resource) == {"a": "SX"}
    assert table.held_resources("a") == {resource}
    table.release_all("a")
    assert table.holders(resource) == {}
    assert table.entry_count() == 0


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


#: Every distinct mode table the contestants use (13 for 11 protocols).
MODE_TABLES = list({
    id(table): table
    for name in protocol_names()
    for table in get_protocol(name).tables().values()
}.values())
#: Few transactions and resources, so that requests collide: queue
#: orders such as a conversion overtaking a queued fresh request need
#: three transactions on one resource.  Half the runs use one resource.
TXNS = ["t0", "t1", "t2"]
COUNTERS = ("requests", "instant_grants", "waits", "conversions")


class ReferenceTableMachine(RuleBasedStateMachine):
    """``LockTable`` against the naive reference, operation by operation."""

    @initialize(mode_table=st.sampled_from(MODE_TABLES),
                resources=st.integers(min_value=1, max_value=2),
                data=st.data())
    def setup(self, mode_table, resources, data):
        self.mode_table = mode_table
        self.keys = RESOURCES[:resources]
        self.table = LockTable({SPACE: mode_table})
        self.reference = ReferenceLockTable(mode_table)
        self.wakes = []
        # Every run starts with each transaction asking for the first
        # resource, so that queues exist from the first step.
        for txn in TXNS:
            self._request(txn, self.keys[0],
                          data.draw(st.sampled_from(mode_table.modes)))

    def _wake(self, ticket):
        self.wakes.append((ticket.txn, ticket.resource, ticket.mode,
                           ticket.child_mode))

    def _idle(self):
        return [t for t in TXNS if self.table.waiting_ticket(t) is None]

    @rule(data=st.data())
    def request(self, data):
        idle = self._idle()
        if idle:
            self._request(data.draw(st.sampled_from(idle)),
                          data.draw(st.sampled_from(self.keys)),
                          data.draw(st.sampled_from(self.mode_table.modes)))

    @rule(data=st.data())
    def convert(self, data):
        """A holder asks for more than it holds: conversions that change
        the held mode are where queue orders differ."""
        wants = [(txn, resource[1], mode) for txn in self._idle()
                 for resource in sorted(self.table.held_resources(txn))
                 for mode in self.mode_table.modes
                 if not self.mode_table.subsumes(
                     self.table.mode_held(txn, resource), mode)]
        if wants:
            self._request(*data.draw(st.sampled_from(wants)))

    def _request(self, txn, key, mode):
        result = self.table.request(txn, SPACE, key, mode)
        if result.granted:
            got = ("granted", result.mode, result.child_mode, result.noop)
        else:
            ticket = result.ticket
            ticket.on_grant = self._wake
            got = ("blocked", ticket.mode, ticket.is_conversion,
                   ticket.child_mode)
        assert got == self.reference.request(txn, (SPACE, key), mode)

    @rule(action=st.sampled_from(
        ["release", "release", "release_all", "cancel_wait"]), data=st.data())
    def finish(self, action, data):
        """release, release_all or cancel_wait.  One rule for the three,
        so that requests make two thirds of the steps and queues build."""
        if action == "release":
            held = [(txn, resource) for txn in TXNS
                    for resource in sorted(self.table.held_resources(txn))]
            if held:
                txn, resource = data.draw(st.sampled_from(held))
                self.table.release(txn, resource)
                self.reference.release(txn, resource)
            return
        txn = data.draw(st.sampled_from(TXNS))
        getattr(self.table, action)(txn)
        getattr(self.reference, action)(txn)

    @invariant()
    def tables_agree(self):
        if not hasattr(self, "table"):
            return
        reference = self.reference
        assert self.wakes == reference.wakes
        for counter in COUNTERS:
            assert getattr(self.table, counter) == getattr(reference, counter), counter
        for key in self.keys:
            resource = (SPACE, key)
            assert self.table.holders(resource) == reference.holders(resource)
        for txn in TXNS:
            assert self.table.held_resources(txn) == reference.held_resources(txn)
            ticket = self.table.waiting_ticket(txn)
            waiting = reference.waiting.get(txn)
            assert (ticket is None) == (waiting is None), txn
            if ticket is not None:
                assert (ticket.resource, ticket.mode) == (waiting[0], waiting[1].mode)
            assert self.table.is_waited_on(txn) == expected_waited_on(
                self.table, txn), txn


ReferenceTableMachine.TestCase.settings = settings(
    max_examples=400, stateful_step_count=40, deadline=None)
TestReferenceTable = ReferenceTableMachine.TestCase
