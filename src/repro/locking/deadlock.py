"""Deadlock detection: wait-for graph cycles, victim choice, classification.

XTC's deadlock detector collects, per event, "the number of active
transactions, the locks held, the state of the wait-for graph, etc.", so
that TaMix can tell *conversion* deadlocks (the frequent case) from
deadlocks between lock requests in separate subtrees (rare).  We do the
same: detection runs whenever a request blocks, the requester is chosen as
the victim (it always lies on the detected cycle, so aborting it resolves
the deadlock deterministically), and every event is recorded with its
classification.

Detection first asks the lock table whether anyone waits on the
requester (:meth:`LockTable.is_waited_on`, one pass over the waiting
tickets).  A cycle through the requester needs an edge into it, so the
labelled DFS, the classification and the ``wait_edges`` snapshot run
only when a cycle is possible.  The DFS itself is unchanged, so event
logs stay byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.locking.lock_table import LockTable, WaitTicket
from repro.obs import DEADLOCK_DETECTED, NULL_TRACER, txn_label

#: Recent deadlock events kept for post-mortem analysis.  Older events
#: are dropped (their counts stay in :meth:`DeadlockDetector.count`), so
#: a long-lived server does not pin every victim's undo log.
_EVENT_CAPACITY = 256


def _txn_order(txn: object) -> str:
    """Stable ordering key for transactions.

    Sorting by ``id`` (CPython object addresses) made cycle discovery
    order, victim cycles, and ``wait_edges`` snapshots vary across
    processes, breaking the byte-identical seeded-run guarantee.  The
    trace label (``T<n>:<name>``, or ``str`` for bare tokens) is stable
    within a run and identical across repeated seeded runs.
    """
    return txn_label(txn)


@dataclass(frozen=True)
class DeadlockEvent:
    """One detected deadlock, as recorded by the detector.

    Mirrors the data the paper's XTCdeadlockDetector collects: "the number
    of active transactions, the locks held, the state of the wait-for
    graph, etc.", enabling precise post-mortem analysis of each event.
    """

    victim: object
    cycle: Tuple[object, ...]
    #: True when at least one request on the cycle was a lock conversion.
    conversion: bool
    #: Resource the victim was waiting for.
    resource: Tuple[str, object]
    active_transactions: int
    #: Total locks held system-wide at detection time.
    locks_held: int = 0
    #: Snapshot of the wait-for graph: (waiter, blocker) edges.
    wait_edges: Tuple[Tuple[object, object], ...] = ()
    #: The modes the cycle members were waiting to acquire.
    waiting_modes: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "conversion" if self.conversion else "distinct-subtree"

    def describe(self) -> str:
        """One-line analysis string (for TaMix deadlock reports)."""
        chain = " -> ".join(str(t) for t in self.cycle)
        return (
            f"{self.kind} deadlock, victim={self.victim}, cycle=[{chain}], "
            f"waiting for {self.resource[1]} "
            f"({self.active_transactions} active txns, "
            f"{self.locks_held} locks held)"
        )


@dataclass
class DeadlockDetector:
    """Cycle search over the lock table's wait-for graph."""

    table: LockTable
    #: The most recent events, oldest first (at most ``_EVENT_CAPACITY``).
    events: Deque[DeadlockEvent] = field(
        default_factory=lambda: deque(maxlen=_EVENT_CAPACITY)
    )
    #: Observability tracer (no-op by default; set by the lock manager).
    tracer: object = NULL_TRACER
    #: Running totals per kind, over every event ever detected.
    _counts: Dict[str, int] = field(
        init=False, repr=False,
        default_factory=lambda: {"conversion": 0, "distinct-subtree": 0},
    )

    def check(self, ticket: WaitTicket, active_transactions: int = 0) -> Optional[DeadlockEvent]:
        """Run detection for a freshly blocked request.

        Returns the deadlock event (victim = the requester) if the request
        closed a cycle, else ``None``.
        """
        if not self.table.is_waited_on(ticket.txn):
            return None
        cycle = self._find_cycle(ticket.txn)
        if cycle is None:
            return None
        conversion = self._cycle_has_conversion(cycle)
        wait_edges = tuple(
            (waiter, blocker)
            for waiter, blockers in sorted(
                self.table.wait_edges().items(),
                key=lambda item: _txn_order(item[0]),
            )
            for blocker in sorted(blockers, key=_txn_order)
        )
        waiting_modes = []
        for txn in cycle:  # cycle[0] is the requester; its ticket is live
            waiting = self.table.waiting_ticket(txn)
            if waiting is not None:
                waiting_modes.append(waiting.mode)
        event = DeadlockEvent(
            victim=ticket.txn,
            cycle=tuple(cycle),
            conversion=conversion,
            resource=ticket.resource,
            active_transactions=active_transactions,
            locks_held=self.table.lock_count(),
            wait_edges=wait_edges,
            waiting_modes=tuple(waiting_modes),
        )
        self.events.append(event)
        self._counts[event.kind] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                DEADLOCK_DETECTED,
                txn=txn_label(ticket.txn),
                deadlock_kind=event.kind,
                cycle=[txn_label(member) for member in event.cycle],
                resource=str(event.resource[1]),
                space=event.resource[0],
                active_transactions=event.active_transactions,
                locks_held=event.locks_held,
            )
        return event

    # -- statistics -------------------------------------------------------------

    def count(self) -> int:
        return sum(self._counts.values())

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(self._counts)

    # -- internals -----------------------------------------------------------------

    def _find_cycle(self, start: object) -> Optional[Sequence[object]]:
        """DFS from ``start`` through the wait-for graph, looking for a
        path back to ``start``.

        Iterative: long wait chains at high MPL would blow Python's
        recursion limit mid-detection, aborting the wrong transaction
        with a ``RecursionError`` instead of choosing a deadlock victim.
        """
        path: List[object] = [start]
        on_path: Set[object] = {start}
        visited: Set[object] = set()
        stack: List = [self._blockers_of(start)]

        while stack:
            frame = stack[-1]
            if not frame:
                visited.add(path[-1])
                stack.pop()
                on_path.discard(path.pop())
                continue
            blocker = frame.pop(0)
            if blocker == start:
                return list(path)
            if blocker in on_path or blocker in visited:
                continue
            path.append(blocker)
            on_path.add(blocker)
            stack.append(self._blockers_of(blocker))
        return None

    def _blockers_of(self, txn: object) -> List[object]:
        """The transactions ``txn`` waits on, in stable label order."""
        ticket = self.table.waiting_ticket(txn)
        if ticket is None:
            return []
        return sorted(self.table.blockers_of(ticket), key=_txn_order)

    def _cycle_has_conversion(self, cycle: Sequence[object]) -> bool:
        for txn in cycle:
            ticket = self.table.waiting_ticket(txn)
            if ticket is not None and ticket.is_conversion:
                return True
        return False
