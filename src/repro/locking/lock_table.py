"""The lock table: granted modes, wait queues, conversions.

A pure state machine, deliberately free of threads and clocks so that the
same table runs under the discrete-event simulator and under the live
server's event loop.  The drivers observe blocking through
:class:`WaitTicket` objects and are notified of grants via callbacks.
:meth:`LockTable.grant_fast` is the one grant decision; a request it
refuses is queued by :meth:`LockTable.enqueue`.

Semantics (Section 2.3 / [9]):

* one lock per transaction and resource -- a second request by the same
  holder is resolved through the protocol's conversion matrix, possibly
  yielding a *child action* (the CX_NR-style fan-out);
* conversions wait at the head of the queue (before fresh requests);
* fresh requests are granted FIFO: a request waits if it is incompatible
  with any current holder *or* any request is already queued (no
  starvation);
* releasing locks drains the queue in order, stopping at the first
  request that still cannot be granted.

Hot-path representation
-----------------------
Granted modes are stored as dense integer indices into the space's
:class:`~repro.core.modes.ModeTable` (see ``ModeTable.mode_index`` and the
flat ``compat_mask``/``conv_result``/``conv_child`` tables), so a grant
decision is a couple of index-and-mask operations.  Entries come from a
bounded free list (:data:`_POOL_CAPACITY`): once warmed up, the steady
state allocates no per-resource objects at all.  Strings appear only at
the API boundary -- :class:`GrantResult`, :class:`WaitTicket`,
:meth:`LockTable.mode_held` and :meth:`LockTable.holders` speak mode
names exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.modes import ModeTable
from repro.errors import LockError

ResourceKey = Tuple[str, object]  # (lock space, key)

#: Upper bound on the entry free list.  Large enough that a TaMix run
#: recycles entries instead of allocating, small enough that a burst of
#: unique resources cannot pin unbounded memory afterwards.
_POOL_CAPACITY = 4_096


def _release_order(resource: ResourceKey):
    """Deterministic release order without stringifying every key.

    Releases drain wait queues, so the order must be stable for
    reproducible runs; sorting by ``repr`` was a measurable cost at
    commit time.  Keys are ordered structurally instead: SPLIDs by
    division tuple, edge keys by (divisions, role), anything else by its
    string form.  The integer tag keeps mixed key shapes comparable.
    """
    space, key = resource
    divisions = getattr(key, "divisions", None)
    if divisions is not None:
        return (space, 0, divisions, "")
    if isinstance(key, tuple) and len(key) == 2:
        node_divisions = getattr(key[0], "divisions", None)
        if node_divisions is not None:
            role = key[1]
            return (space, 1, node_divisions, getattr(role, "value", str(role)))
    return (space, 2, (), str(key))


@dataclass
class WaitTicket:
    """Handle for a blocked lock request.

    The driver parks the transaction on this ticket; ``on_grant`` fires
    when the table grants the request (the lock is then already held).
    """

    txn: object
    resource: ResourceKey
    mode: str
    is_conversion: bool
    child_mode: Optional[str] = None
    granted: bool = False
    cancelled: bool = False
    on_grant: Optional[Callable[["WaitTicket"], None]] = None
    #: Lock-wait timeout (simulated ms); None waits forever.
    timeout_ms: Optional[float] = None
    #: Withdraws the request from the lock table (set by the lock manager,
    #: called by the driver when the timeout fires).
    cancel: Optional[Callable[[], None]] = None
    #: Dense index of :attr:`mode` in the space's mode table (internal).
    mode_idx: int = -1

    def _fire(self) -> None:
        self.granted = True
        if self.on_grant is not None:
            self.on_grant(self)


@dataclass(slots=True)
class GrantResult:
    """Outcome of a lock request."""

    granted: bool
    #: Mode now held (after conversion) when granted immediately.
    mode: Optional[str] = None
    #: Child fan-out demanded by the conversion (e.g. CX_NR).
    child_mode: Optional[str] = None
    #: Ticket to wait on when not granted.
    ticket: Optional[WaitTicket] = None
    #: True when the request was a no-op (mode already covered).
    noop: bool = False


class _Entry:
    """Per-resource lock state: holder -> mode index, plus the queue.

    Plain ``__slots__`` class (not a dataclass) so the free list can
    recycle instances without re-running generated ``__init__`` field
    machinery.
    """

    __slots__ = ("granted", "queue")

    def __init__(self):
        self.granted: Dict[object, int] = {}
        self.queue: List[WaitTicket] = []


class LockTable:
    """All lock spaces of one database instance."""

    def __init__(self, tables: Dict[str, ModeTable]):
        self._tables = dict(tables)
        self._entries: Dict[ResourceKey, _Entry] = {}
        self._held: Dict[object, Set[ResourceKey]] = {}
        self._waiting: Dict[object, WaitTicket] = {}
        #: Free list of recycled entries (slab allocator, bounded).
        self._pool: List[_Entry] = []
        # statistics
        self.requests = 0
        self.instant_grants = 0
        self.waits = 0
        self.conversions = 0

    # -- introspection ---------------------------------------------------------

    def has_space(self, space: str) -> bool:
        return space in self._tables

    def table_for(self, space: str) -> ModeTable:
        try:
            return self._tables[space]
        except KeyError:
            raise LockError(f"no mode table for lock space {space!r}") from None

    def mode_held(self, txn: object, resource: ResourceKey) -> Optional[str]:
        entry = self._entries.get(resource)
        if entry is None:
            return None
        idx = entry.granted.get(txn)
        if idx is None:
            return None
        return self._tables[resource[0]].modes[idx]

    def holders(self, resource: ResourceKey) -> Dict[object, str]:
        entry = self._entries.get(resource)
        if entry is None:
            return {}
        modes = self._tables[resource[0]].modes
        return {txn: modes[idx] for txn, idx in entry.granted.items()}

    def held_resources(self, txn: object) -> Set[ResourceKey]:
        return set(self._held.get(txn, ()))

    def waiting_ticket(self, txn: object) -> Optional[WaitTicket]:
        return self._waiting.get(txn)

    def lock_count(self) -> int:
        return sum(len(e.granted) for e in self._entries.values())

    def entry_count(self) -> int:
        """Live (granted or queued) resource entries in the table."""
        return len(self._entries)

    def free_entries(self) -> int:
        """Recycled entries currently parked on the free list."""
        return len(self._pool)

    # -- wait-for graph (for the deadlock detector) ------------------------------

    def blockers_of(self, ticket: WaitTicket) -> Set[object]:
        """Transactions this ticket is waiting on."""
        entry = self._entries.get(ticket.resource)
        if entry is None:
            return set()
        table = self.table_for(ticket.resource[0])
        mask = table.compat_mask[ticket.mode_idx]
        blockers: Set[object] = set()
        for holder, held_idx in entry.granted.items():
            if holder == ticket.txn:
                continue
            if not (mask >> held_idx) & 1:
                blockers.add(holder)
        if not ticket.is_conversion:
            for ahead in entry.queue:
                if ahead is ticket:
                    break
                if ahead.txn != ticket.txn:
                    blockers.add(ahead.txn)
        return blockers

    def is_waited_on(self, txn: object) -> bool:
        """True iff ``txn`` is in :meth:`blockers_of` of some other waiter.

        The same two clauses without building sets: ``txn`` holds a mode
        the waiter's mode is incompatible with, or (fresh requests only)
        ``txn`` queues ahead of the waiter.  A transaction has at most one
        queued ticket, its ``_waiting`` entry, so only that ticket's queue
        is scanned.  The deadlock detector asks this first, since a cycle
        through ``txn`` needs an edge into it.
        """
        entries = self._entries
        mine = self._waiting.get(txn)
        mine_entry = None if mine is None else entries.get(mine.resource)
        for ticket in self._waiting.values():
            if ticket is mine:
                continue
            entry = entries.get(ticket.resource)
            if entry is None:
                continue
            held_idx = entry.granted.get(txn)
            if held_idx is not None:
                mask = self._tables[ticket.resource[0]].compat_mask[ticket.mode_idx]
                if not (mask >> held_idx) & 1:
                    return True
            if entry is mine_entry and not ticket.is_conversion:
                for ahead in entry.queue:
                    if ahead is ticket:
                        break
                    if ahead is mine:
                        return True
        return False

    def wait_edges(self) -> Dict[object, Set[object]]:
        """Current wait-for graph: waiter -> blocking transactions."""
        return {
            txn: self.blockers_of(ticket)
            for txn, ticket in self._waiting.items()
        }

    # -- requests ---------------------------------------------------------------

    def request(self, txn: object, space: str, key: object, mode: str) -> GrantResult:
        """Request ``mode`` on ``(space, key)`` for ``txn``.

        The public convenience over the two primitives the lock manager
        drives itself: :meth:`grant_fast` decides, and a refused request
        is queued by :meth:`enqueue`.
        """
        table = self.table_for(space)
        midx = table.mode_index.get(mode)
        if midx is None:
            raise LockError(f"mode {mode} not in table {table.name}")
        resource: ResourceKey = (space, key)
        entry = self._entries.get(resource)
        held_idx = -1 if entry is None else entry.granted.get(txn, -1)
        code = self.grant_fast(txn, resource, midx, table, entry)
        if code < 0:
            return GrantResult(granted=False,
                               ticket=self.enqueue(txn, resource, midx, table))
        child_idx = (code >> 8) - 1
        return GrantResult(
            granted=True, mode=table.modes[code & 0xFF],
            child_mode=table.modes[child_idx] if child_idx >= 0 else None,
            # Held mode unchanged and no child: the code is the held index.
            noop=code == held_idx,
        )

    def grant_fast(self, txn: object, resource: ResourceKey, midx: int,
                   table: ModeTable, entry: Optional[_Entry]) -> int:
        """Grant instantly or refuse.

        The table's one grant decision.  Returns -1 when the request
        cannot be granted on the spot (the caller queues it with
        :meth:`enqueue`).  On success returns the grant encoded as
        ``result_idx | (child_idx + 1) << 8``.  A grant counts the request
        and the instant grant (and a mode change the conversion); a
        refusal counts nothing, :meth:`enqueue` does.

        ``entry`` is the resource's entry, or ``None`` when it has none:
        the caller has looked it up already (the batched coverage check
        needs it too).
        """
        if txn in self._waiting:
            raise LockError(f"{txn} already waiting; cannot issue new request")
        if entry is None:
            pool = self._pool
            entry = pool.pop() if pool else _Entry()
            self._entries[resource] = entry
            entry.granted[txn] = midx
            self._note_held(txn, resource)
            self.requests += 1
            self.instant_grants += 1
            return midx
        granted = entry.granted
        held_idx = granted.get(txn)
        if held_idx is not None:
            flat = held_idx * table.mode_count + midx
            result_idx = table.conv_result[flat]
            child_idx = table.conv_child[flat]
            if result_idx == held_idx:
                # Mode unchanged: no compatibility check needed.  A child
                # action may still apply (e.g. held CX + requested LR
                # demands NR on every child even though CX stays).
                self.requests += 1
                self.instant_grants += 1
                return held_idx | (child_idx + 1) << 8
            mask = table.compat_mask[result_idx]
            for holder, holder_idx in granted.items():
                if holder != txn and not (mask >> holder_idx) & 1:
                    return -1
            granted[txn] = result_idx
            self.requests += 1
            self.conversions += 1
            self.instant_grants += 1
            return result_idx | (child_idx + 1) << 8
        if entry.queue:
            return -1
        mask = table.compat_mask[midx]
        for holder_idx in granted.values():
            if not (mask >> holder_idx) & 1:
                return -1
        granted[txn] = midx
        held = self._held.get(txn)
        if held is None:
            held = self._held[txn] = set()
        held.add(resource)
        self.requests += 1
        self.instant_grants += 1
        return midx

    def enqueue(self, txn: object, resource: ResourceKey, midx: int,
                table: ModeTable) -> WaitTicket:
        """Queue a request that :meth:`grant_fast` refused.

        Makes no second grant decision.  A holder's request waits for its
        conversion result (and child fan-out) behind the queued
        conversions; any other request waits at the tail.  Counts the
        request, the wait and, for a conversion, the conversion.
        """
        entry = self._entries[resource]
        held_idx = entry.granted.get(txn)
        modes = table.modes
        if held_idx is None:
            ticket = WaitTicket(txn, resource, modes[midx], is_conversion=False,
                                mode_idx=midx)
            entry.queue.append(ticket)
        else:
            flat = held_idx * table.mode_count + midx
            result_idx = table.conv_result[flat]
            child_idx = table.conv_child[flat]
            ticket = WaitTicket(
                txn, resource, modes[result_idx], is_conversion=True,
                child_mode=modes[child_idx] if child_idx >= 0 else None,
                mode_idx=result_idx,
            )
            self._enqueue_conversion(entry, ticket)
            self.conversions += 1
        self._waiting[txn] = ticket
        self.requests += 1
        self.waits += 1
        return ticket

    def cancel_wait(self, txn: object) -> None:
        """Withdraw a waiting request (deadlock victim about to abort)."""
        ticket = self._waiting.pop(txn, None)
        if ticket is None:
            return
        ticket.cancelled = True
        entry = self._entries.get(ticket.resource)
        if entry is not None and ticket in entry.queue:
            entry.queue.remove(ticket)
            self._drain(ticket.resource)

    # -- releases ----------------------------------------------------------------

    def release(self, txn: object, resource: ResourceKey) -> None:
        entry = self._entries.get(resource)
        if entry is None or txn not in entry.granted:
            return
        del entry.granted[txn]
        held = self._held.get(txn)
        if held is not None:
            held.discard(resource)
        self._drain(resource)

    def release_all(self, txn: object) -> None:
        self.cancel_wait(txn)
        entries = self._entries
        pool = self._pool
        held = self._held.pop(txn, ())
        if self._waiting:
            # Waiters exist somewhere: release in deterministic order so
            # the cascade of drains (and thus grant order) is seeded-run
            # stable.  With no waiters every drain is a no-op and the
            # release order is unobservable, so the sort is skipped.
            held = sorted(held, key=_release_order)
        for resource in held:
            entry = entries.get(resource)
            if entry is None or txn not in entry.granted:
                continue
            del entry.granted[txn]
            if not entry.granted and not entry.queue:
                # Nothing left to drain: recycle the entry directly.
                del entries[resource]
                if len(pool) < _POOL_CAPACITY:
                    pool.append(entry)
            else:
                self._drain(resource)

    # -- internals -----------------------------------------------------------------

    def _note_held(self, txn: object, resource: ResourceKey) -> None:
        held = self._held.get(txn)
        if held is None:
            held = self._held[txn] = set()
        held.add(resource)

    @staticmethod
    def _enqueue_conversion(entry: _Entry, ticket: WaitTicket) -> None:
        position = 0
        while position < len(entry.queue) and entry.queue[position].is_conversion:
            position += 1
        entry.queue.insert(position, ticket)

    def _drain(self, resource: ResourceKey) -> None:
        """Grant queued requests that have become compatible (FIFO)."""
        entry = self._entries.get(resource)
        if entry is None:
            return
        table = self._tables[resource[0]]
        granted = entry.granted
        queue = entry.queue
        while queue:
            ticket = queue[0]
            mask = table.compat_mask[ticket.mode_idx]
            blocked = False
            for holder, holder_idx in granted.items():
                if holder != ticket.txn and not (mask >> holder_idx) & 1:
                    blocked = True
                    break
            if blocked:
                break
            queue.pop(0)
            granted[ticket.txn] = ticket.mode_idx
            # Also for a conversion: its holder may have released the
            # resource while it waited.
            self._note_held(ticket.txn, resource)
            self._waiting.pop(ticket.txn, None)
            ticket._fire()
        if not granted and not queue:
            # Empty entry: back onto the free list instead of the GC.
            del self._entries[resource]
            if len(self._pool) < _POOL_CAPACITY:
                self._pool.append(entry)
