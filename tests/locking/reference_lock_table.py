"""A naive reference lock table for differential tests.

It states the grant rules of :class:`repro.locking.LockTable` as plainly
as possible and shares no code with it.  Compatibility and conversion come
from the :class:`~repro.core.modes.ModeTable`'s named-mode algebra
(``compatible`` and ``convert``), never from its bitmasks.  The state is
plain dicts and lists: ``granted[resource][txn] = mode``, one FIFO list
of waiting requests per resource, and the waiter of each transaction.

The rules:

* one lock per transaction and resource; a holder's new request is
  converted, and a conversion that leaves the held mode unchanged is
  granted at once (possibly demanding a child fan-out);
* any other request is granted iff its mode is compatible with every
  *other* holder's mode and -- for a fresh request -- nobody is queued;
* a blocked conversion queues behind the queued conversions, a blocked
  fresh request at the tail;
* releasing or withdrawing grants queued requests from the head, in
  order, until one still does not fit.
"""


class Waiting:
    """One queued request: the mode it waits for and its child fan-out."""

    def __init__(self, txn, mode, conversion, child):
        self.txn = txn
        self.mode = mode
        self.conversion = conversion
        self.child = child


class ReferenceLockTable:
    def __init__(self, table):
        self.table = table
        self.granted = {}    # resource -> {txn: mode}
        self.queues = {}     # resource -> [Waiting], head first
        self.waiting = {}    # txn -> (resource, Waiting)
        #: (txn, resource, mode, child) of every queued grant, in order.
        self.wakes = []
        self.requests = 0
        self.instant_grants = 0
        self.waits = 0
        self.conversions = 0

    def fits(self, txn, resource, mode):
        return all(self.table.compatible(held, mode)
                   for other, held in self.granted.get(resource, {}).items()
                   if other != txn)

    def request(self, txn, resource, mode):
        """("granted", mode, child, noop) or ("blocked", mode, conversion,
        child)."""
        assert txn not in self.waiting
        self.requests += 1
        holders = self.granted.setdefault(resource, {})
        queue = self.queues.setdefault(resource, [])
        held = holders.get(txn)
        if held is None:
            if not queue and self.fits(txn, resource, mode):
                holders[txn] = mode
                self.instant_grants += 1
                return ("granted", mode, None, False)
            wait = Waiting(txn, mode, False, None)
            queue.append(wait)
        else:
            conversion = self.table.convert(held, mode)
            child = conversion.child_mode
            if conversion.result == held:
                self.instant_grants += 1
                return ("granted", held, child, child is None)
            self.conversions += 1
            if self.fits(txn, resource, conversion.result):
                holders[txn] = conversion.result
                self.instant_grants += 1
                return ("granted", conversion.result, child, False)
            wait = Waiting(txn, conversion.result, True, child)
            queue.insert(sum(1 for w in queue if w.conversion), wait)
        self.waits += 1
        self.waiting[txn] = (resource, wait)
        return ("blocked", wait.mode, wait.conversion, wait.child)

    def drain(self, resource):
        queue = self.queues.get(resource, [])
        while queue and self.fits(queue[0].txn, resource, queue[0].mode):
            wait = queue.pop(0)
            self.granted.setdefault(resource, {})[wait.txn] = wait.mode
            del self.waiting[wait.txn]
            self.wakes.append((wait.txn, resource, wait.mode, wait.child))

    def release(self, txn, resource):
        if self.granted.get(resource, {}).pop(txn, None) is not None:
            self.drain(resource)

    def release_all(self, txn):
        self.cancel_wait(txn)
        for resource in sorted(self.held_resources(txn),
                               key=lambda r: (r[0], r[1].divisions)):
            self.release(txn, resource)

    def cancel_wait(self, txn):
        resource, wait = self.waiting.pop(txn, (None, None))
        if wait is not None:
            self.queues[resource].remove(wait)
            self.drain(resource)

    def held_resources(self, txn):
        return {resource for resource, holders in self.granted.items()
                if txn in holders}

    def holders(self, resource):
        return dict(self.granted.get(resource, {}))
