"""The lock manager: meta-synchronization front end (Section 3.3).

The node manager hands abstract :class:`~repro.core.protocol.MetaRequest`
objects to :meth:`LockManager.acquire`; the configured protocol maps them
to concrete lock steps, which are executed against the lock table.
``acquire`` is a generator: it *yields* :class:`WaitTicket` objects
whenever a step blocks (the driver -- simulator or live server -- parks
the transaction until the grant fires) and finally *returns* an
:class:`AcquireReport`.

Isolation levels (footnote 5 of the paper) are enforced here:

* ``NONE`` acquires no locks at all;
* ``UNCOMMITTED`` skips read locks, write locks are long;
* ``COMMITTED`` takes short read locks (released at end of operation via
  :meth:`LockManager.end_operation`) and long write locks;
* ``REPEATABLE`` takes long read and write locks.

The manager also keeps a per-transaction *coverage cache*: once a
transaction holds a subtree or level lock, requests already covered by it
are answered without touching the lock table -- this is the SPLID-powered
cheapness of subtree locks that the protocols with lock depth exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.modes import WRITE_PRIVILEGES
from repro.core.protocol import (
    EDGE_SPACE,
    LockProtocol,
    LockStep,
    MetaRequest,
    NODE_SPACE,
)
from repro.errors import DeadlockAbort, LockError, LockTimeout
from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import LockTable, _Entry
from repro.obs import (
    LOCK_BLOCK,
    LOCK_CONVERT,
    LOCK_ESCALATE,
    LOCK_GRANT,
    LOCK_RELEASE,
    LOCK_REQUEST,
    LOCK_TIMEOUT,
    Observability,
    SPAN_BEGIN,
    SPAN_END,
    txn_label,
)
from repro.splid import Splid

__all__ = [
    "AcquireReport",
    "IsolationLevel",
    "LockManager",
    "WRITE_PRIVILEGES",
]


class IsolationLevel(Enum):
    """The paper's four experimental isolation levels plus SERIALIZABLE.

    Footnote 1 of the paper: serializable "is offered by the taDOM*
    group" (and only there); it behaves like repeatable read plus
    key-range locks on the ID index to prevent phantoms from direct
    jumps (``getElementById``).
    """

    NONE = "none"
    UNCOMMITTED = "uncommitted"
    COMMITTED = "committed"
    REPEATABLE = "repeatable"
    SERIALIZABLE = "serializable"

    @classmethod
    def parse(cls, value: "IsolationLevel | str") -> "IsolationLevel":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise LockError(f"unknown isolation level {value!r}")


@dataclass(slots=True)
class AcquireReport:
    """What one meta request cost and demanded."""

    lock_requests: int = 0
    skipped_covered: int = 0
    blocked: int = 0
    #: Pending conversion fan-outs: (node, child mode) pairs for which the
    #: caller must enumerate the children and lock each one.
    fanouts: List[Tuple[Splid, str]] = field(default_factory=list)
    #: From the plan: subtree must be visited node-by-node (*-2PL).
    traverse_individually: bool = False
    #: From the plan: subtree ID scan required before delete (*-2PL).
    scan_ids: Optional[Splid] = None


@dataclass
class _TxnLockState:
    subtree_read_anchors: Set[Splid] = field(default_factory=set)
    subtree_write_anchors: Set[Splid] = field(default_factory=set)
    level_read_anchors: Set[Splid] = field(default_factory=set)
    #: Ancestor-chain prefixes verified held-and-covering this
    #: generation (cleared whenever the transaction releases anything);
    #: see LockManager._batch_fast.
    prefix_done: Set[tuple] = field(default_factory=set)
    #: (resource, mode index) pairs proven anchor-covered.  Valid while
    #: anchors only grow; any anchor *discard* (mode conversion losing
    #: coverage, selective release) clears the memo wholesale.
    covered_memo: Set[tuple] = field(default_factory=set)


class _PreparedPlan:
    """A lock plan resolved for the batched acquire loop.

    ``steps`` holds per-step (resource key, mode table, mode index)
    tuples; the step's space and key are the resource's two halves and
    its mode is ``table.modes[index]``.  ``prefix_key``/``prefix_len``
    describe the plan's leading root-down ancestor chain when it is
    eligible for the per-transaction prefix memo (all NODE_SPACE, strict
    parent-child chain, every requested mode monotone under the table's
    conversion lattice -- :attr:`ModeTable.chain_mono_mask`).  Sibling
    requests share the same ancestor chain, so the key is derived from
    the deepest chain resource plus the chain's mode indices.
    """

    __slots__ = ("steps", "prefix_len", "prefix_key")

    def __init__(self, steps: list, prefix_len: int, prefix_key):
        self.steps = steps
        self.prefix_len = prefix_len
        self.prefix_key = prefix_key


@dataclass(frozen=True, slots=True)
class _PlanTemplate:
    """The lock plan of one request shape (see LockManager._plan_for).

    ``steps`` holds per-step (space, slot, edge role, mode table, mode
    index); the key is the slot's entry in LockManager._slot_values,
    paired with the role for an edge lock.  A template holds no SPLID,
    so it pins nothing in the intern table.
    """

    steps: List[tuple]
    prefix_len: int
    prefix_midx: Optional[Tuple[int, ...]]
    traverse_individually: bool
    #: The plan scans the target's subtree for IDs (*-2PL deletes).
    scan_ids: bool
    uses_string_node: bool


class LockManager:
    """Meta-lock requests -> protocol plan -> lock table execution."""

    def __init__(
        self,
        protocol: LockProtocol,
        *,
        lock_depth: int = 4,
        wait_timeout_ms: Optional[float] = 10_000.0,
        active_transactions: Optional[Callable[[], int]] = None,
        obs: Optional[Observability] = None,
    ):
        if lock_depth < 0:
            raise LockError(f"lock depth must be >= 0, got {lock_depth}")
        self.protocol = protocol
        self.lock_depth = lock_depth
        self.wait_timeout_ms = wait_timeout_ms
        self.timeouts = 0
        self.obs = obs if obs is not None else Observability.disabled()
        self.tracer = self.obs.tracer
        #: Tracer state never changes after construction, so the hot path
        #: reads this cached flag instead of chasing tracer.enabled.
        self._tracing = self.tracer.enabled
        self.table = LockTable(protocol.tables())
        #: space -> ModeTable, resolved once for the batched grant loop.
        self._space_tables = dict(protocol.tables())
        #: Fault-injection hook (repro.chaos): bound per-call method, or
        #: None -- the zero-cost-when-disabled dispatch (see the chaos
        #: property below).
        self._chaos = None
        self._chaos_lock = None
        self.detector = DeadlockDetector(self.table, tracer=self.tracer)
        #: Blocking-wait durations (simulated ms) in fixed buckets -- the
        #: per-cell wait histogram of the sweep reports.  Observing is a
        #: bisect + increment and happens only for *completed* waits
        #: (blocked, then granted); victims and still-parked waiters at
        #: the run horizon never resume, so they are not observed.
        self.wait_histogram = self.obs.metrics.histogram("lock.wait_ms")
        self.obs.metrics.register_collector(self._collect_metrics)
        self._states: Dict[object, _TxnLockState] = {}
        #: Request shape -> compiled plan template (see _plan_for).  The
        #: shapes are few (tens per protocol), so this never needs bounding.
        self._templates: Dict[tuple, _PlanTemplate] = {}
        self._active_transactions = active_transactions or (lambda: 0)
        #: Clock for wait-time accounting (bound by Database.set_clock).
        self.clock: Callable[[], float] = lambda: 0.0
        #: Grants per (space, mode) -- the protocol's lock-mode profile.
        self.mode_usage: Dict[Tuple[str, str], int] = {}
        #: Aggregate lock-wait time statistics (simulated ms).
        self.wait_count = 0
        self.wait_time_total = 0.0
        self.wait_time_max = 0.0
        #: Stable hot-path bindings for _batch_fast, bound once: these
        #: objects are created here and never reassigned afterwards.
        self._hot = (
            self.table._entries,
            self.table._entries.get,
            self.table._pool,
            self.table._held,
            self.table.grant_fast,
            self._states.get,
            self._anchor_covered,
            self._note_grant,
            self.mode_usage,
        )

    # -- chaos hook dispatch ----------------------------------------------------

    @property
    def chaos(self):
        """Fault-injection engine (repro.chaos), or None.

        Assigning an engine binds its ``lock_request`` hook only when the
        engine actually has rules for the ``lock.acquire`` site
        (:meth:`~repro.chaos.engine.ChaosEngine.wants`), so an installed
        but idle engine costs the grant path nothing.
        """
        return self._chaos

    @chaos.setter
    def chaos(self, engine) -> None:
        self._chaos = engine
        if engine is None:
            self._chaos_lock = None
            return
        wants = getattr(engine, "wants", None)
        if wants is None or wants("lock.acquire"):
            self._chaos_lock = engine.lock_request
        else:
            self._chaos_lock = None

    # -- the meta-synchronization entry point ----------------------------------

    def acquire(self, txn: object, request: MetaRequest):
        """Generator: acquire all locks for ``request``.

        Yields :class:`WaitTicket` objects for blocking steps; raises
        :class:`DeadlockAbort` when the transaction becomes a deadlock
        victim; returns an :class:`AcquireReport`.
        """
        report = AcquireReport()
        isolation = getattr(txn, "isolation", IsolationLevel.REPEATABLE)
        template, prepared = self._plan_for(request)
        if template.traverse_individually:
            report.traverse_individually = True
        if template.scan_ids:
            report.scan_ids = request.target
        if isolation is IsolationLevel.NONE:
            return report
        if isolation is IsolationLevel.UNCOMMITTED and request.is_read:
            return report
        yield from self._execute(txn, prepared, report)
        return report

    def acquire_children(
        self, txn: object, children: Iterable[Splid], child_mode: str
    ):
        """Generator: execute a conversion fan-out (CX_NR-style)."""
        report = AcquireReport()
        steps = [LockStep(NODE_SPACE, child, child_mode) for child in children]
        yield from self._execute(txn, self._prepare_steps(steps), report)
        return report

    def acquire_steps(self, txn: object, steps: Iterable[LockStep]):
        """Generator: execute explicit lock steps (e.g. the *-2PL group's
        IDX locks collected by a pre-delete subtree scan)."""
        report = AcquireReport()
        yield from self._execute(txn, self._prepare_steps(steps), report)
        return report

    def _execute(self, txn: object, pp: _PreparedPlan, report: AcquireReport):
        """Generator: run prepared steps in batched lock-table passes; a
        step the table refuses waits for its grant, then the next pass
        resumes after it."""
        pos = self._batch_fast(txn, pp, report, 0)
        while pos >= 0:
            yield from self._request_and_wait(txn, pp.steps[pos], report)
            pos = self._batch_fast(txn, pp, report, pos + 1)

    def _batch_fast(self, txn: object, pp: _PreparedPlan,
                    report: AcquireReport, start: int) -> int:
        """One lock-table pass over a plan's steps: the only acquire loop.

        A flat, yield-free loop over the lock table's integer-mode
        primitives: covered steps are skipped, instantly grantable steps
        go through :meth:`LockTable.grant_fast` (index-and-mask only, no
        :class:`GrantResult` allocation).  Only a step the table refuses
        stops the loop: its index is returned -- already counted,
        chaos-hooked and traced as requested -- and the caller queues it
        and waits (:meth:`_request_and_wait`), then resumes the loop at
        the next step.  Returns -1 once every step is processed.  Per
        uncovered step the order is: chaos hook, ``lock.request``, table
        decision, then ``lock.grant``, ``lock.convert`` (the held mode
        changed) and ``lock.escalate`` (a child fan-out) when tracing.
        Covered steps emit nothing.

        The *prefix memo*: once this transaction has walked a plan's
        ancestor chain with every step granted or held-subsume-covered,
        the chain's key goes into ``state.prefix_done``.  Sibling plans
        share the chain, and mode monotonicity (the chain eligibility
        condition, :attr:`ModeTable.chain_mono_mask`) guarantees a
        re-check could only find the steps covered again until the
        transaction releases something (which clears the memo) -- so a
        memo hit skips the per-level probes outright with behaviour
        identical to checking.  Anchor-based coverage is *not* monotone
        (conversions can drop anchors), so a chain verified that way is
        not memoized.
        """
        prepared = pp.steps
        lock_table = self.table
        # Hot path: the loop works on the table's internals directly --
        # one entry probe serves the coverage check, the inlined fresh
        # grant, and the grant_fast fallback alike.  The stable locals
        # are unpacked from one prebuilt tuple (see __init__) instead of
        # a dozen attribute loads and bound-method allocations per call.
        (entries, entries_get, pool, held_map, grant_fast,
         states_get, anchor_covered, note_grant, mode_usage) = self._hot
        fanouts = report.fanouts
        hook = self._chaos_lock
        trace = self._tracing
        if trace:
            emit = self.tracer.emit
            label = txn_label(txn)
        prefix_len = pp.prefix_len
        memo_store = False
        if start == 0 and prefix_len:
            state = states_get(txn)
            if state is not None and pp.prefix_key in state.prefix_done:
                report.skipped_covered += prefix_len
                start = prefix_len
            else:
                memo_store = True
        held_set = None
        fresh = 0
        try:
            for pos in range(start, len(prepared)):
                resource, table, midx = prepared[pos]
                # Transaction-local lock cache + coverage-cache anchors.
                entry = entries_get(resource)
                held_idx = -1
                if entry is not None:
                    held_idx = entry.granted.get(txn, -1)
                    if (held_idx >= 0
                            and (table.subsume_mask[held_idx] >> midx) & 1):
                        report.skipped_covered += 1
                        continue
                state = states_get(txn)
                if (state is not None
                        and (state.subtree_read_anchors
                             or state.subtree_write_anchors
                             or state.level_read_anchors)):
                    memo_key = (resource, midx)
                    if memo_key in state.covered_memo:
                        report.skipped_covered += 1
                        if pos < prefix_len:
                            memo_store = False
                        continue
                    if anchor_covered(state, resource, table, midx):
                        state.covered_memo.add(memo_key)
                        report.skipped_covered += 1
                        if pos < prefix_len:
                            memo_store = False  # anchor coverage is not monotone
                        continue
                report.lock_requests += 1
                if hook is not None:
                    # May raise LockTimeout/DeadlockAbort; before the request
                    # event so aborted steps leave no dangling lock.request.
                    hook(txn, resource)
                if trace:
                    emit(LOCK_REQUEST, txn=label, space=resource[0],
                         key=str(resource[1]), mode=table.modes[midx])
                if entry is None:
                    # Inlined grant_fast entry-miss path: an uncontended
                    # fresh grant of exactly the requested mode.  Stats
                    # are accumulated locally and flushed on every exit.
                    entry = pool.pop() if pool else _Entry()
                    entries[resource] = entry
                    entry.granted[txn] = midx
                    if held_set is None:
                        held_set = held_map.get(txn)
                        if held_set is None:
                            held_set = held_map[txn] = set()
                    held_set.add(resource)
                    fresh += 1
                    granted_mode = table.modes[midx]
                    usage_key = (resource[0], granted_mode)
                    mode_usage[usage_key] = mode_usage.get(usage_key, 0) + 1
                    if trace:
                        emit(LOCK_GRANT, txn=label, space=resource[0],
                             key=str(resource[1]), mode=granted_mode,
                             waited_ms=0.0)
                    # A fresh grant of an anchor-less mode (intention and
                    # plain node locks) has no coverage-cache effect: the
                    # key cannot appear in any anchor set, so the
                    # add/discard bookkeeping is a no-op and is skipped.
                    if table.anchor_any_idx[midx]:
                        note_grant(txn, resource[0], resource[1], granted_mode)
                    continue
                code = grant_fast(txn, resource, midx, table, entry=entry)
                if code < 0:
                    # Would block (or queue behind a waiter): hand the step
                    # back for the full ticket/wait path.
                    return pos
                gidx = code & 0xFF
                granted_mode = table.modes[gidx]
                if trace:
                    emit(LOCK_GRANT, txn=label, space=resource[0],
                         key=str(resource[1]), mode=granted_mode,
                         waited_ms=0.0)
                    if held_idx >= 0 and gidx != held_idx:
                        emit(LOCK_CONVERT, txn=label, space=resource[0],
                             key=str(resource[1]),
                             from_mode=table.modes[held_idx],
                             to_mode=granted_mode)
                usage_key = (resource[0], granted_mode)
                mode_usage[usage_key] = mode_usage.get(usage_key, 0) + 1
                child_idx = (code >> 8) - 1
                if child_idx >= 0:
                    key = resource[1]
                    node = key if isinstance(key, Splid) else key[0]
                    fanouts.append((node, table.modes[child_idx]))
                    if trace:
                        emit(LOCK_ESCALATE, txn=label, node=str(node),
                             child_mode=table.modes[child_idx])
                # Conversions (held_idx >= 0) may drop anchors of the old
                # mode, so they always refresh the coverage cache.
                if held_idx >= 0 or table.anchor_any_idx[gidx]:
                    note_grant(txn, resource[0], resource[1], granted_mode)
        finally:
            if fresh:
                lock_table.requests += fresh
                lock_table.instant_grants += fresh
        if memo_store:
            state = states_get(txn)
            if state is None:
                state = self._states[txn] = _TxnLockState()
            state.prefix_done.add(pp.prefix_key)
        return -1

    # -- lifecycle ----------------------------------------------------------------

    def end_operation(self, txn: object) -> int:
        """Release short read locks (isolation level COMMITTED).

        Returns the number of locks released.
        """
        if self._isolation_of(txn) is not IsolationLevel.COMMITTED:
            return 0
        released = 0
        for resource in list(self.table.held_resources(txn)):
            space, _key = resource
            mode = self.table.mode_held(txn, resource)
            if mode is None:
                continue
            table = self.table.table_for(space)
            if mode not in table.write_modes:
                self.table.release(txn, resource)
                released += 1
        if released:
            state = self._states.get(txn)
            if state is not None:
                self._refresh_state(txn, state)
            if self.tracer.enabled:
                self.tracer.emit(
                    LOCK_RELEASE, txn=txn_label(txn), count=released,
                    scope="operation",
                )
        return released

    def release_transaction(self, txn: object) -> None:
        """Release everything at commit/abort."""
        if self.tracer.enabled:
            held = len(self.table.held_resources(txn))
            if held:
                self.tracer.emit(
                    LOCK_RELEASE, txn=txn_label(txn), count=held,
                    scope="transaction",
                )
        self.table.release_all(txn)
        self._states.pop(txn, None)

    # -- statistics ------------------------------------------------------------------

    def lock_statistics(self) -> Dict[str, int]:
        return {
            "requests": self.table.requests,
            "instant_grants": self.table.instant_grants,
            "waits": self.table.waits,
            "conversions": self.table.conversions,
            "deadlocks": self.detector.count(),
            "timeouts": self.timeouts,
        }

    def wait_statistics(self) -> Dict[str, float]:
        """Aggregate lock-wait durations (simulated ms)."""
        mean = self.wait_time_total / self.wait_count if self.wait_count else 0.0
        return {
            "count": float(self.wait_count),
            "total_ms": self.wait_time_total,
            "mean_ms": mean,
            "max_ms": self.wait_time_max,
        }

    def mode_profile(self, space: Optional[str] = None) -> Dict[str, int]:
        """Grants per mode (the protocol's lock-mode usage profile).

        With ``space`` the keys are bare mode names; without, they are
        ``space:mode`` (mode names may repeat across spaces).
        """
        if space is not None:
            return {
                mode: count
                for (mode_space, mode), count in sorted(self.mode_usage.items())
                if mode_space == space
            }
        return {
            f"{mode_space}:{mode}": count
            for (mode_space, mode), count in sorted(self.mode_usage.items())
        }

    def _make_cancel(self, txn: object) -> Callable[[], None]:
        def cancel() -> None:
            self.timeouts += 1
            if self.tracer.enabled:
                ticket = self.table.waiting_ticket(txn)
                data = {"timeout_ms": self.wait_timeout_ms}
                if ticket is not None:
                    data["space"] = ticket.resource[0]
                    data["key"] = str(ticket.resource[1])
                    data["mode"] = ticket.mode
                self.tracer.emit(LOCK_TIMEOUT, txn=txn_label(txn), **data)
            self.table.cancel_wait(txn)

        return cancel

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: mirror the cheap native counters."""
        registry.gauge("lock.requests").set(self.table.requests)
        registry.gauge("lock.instant_grants").set(self.table.instant_grants)
        registry.gauge("lock.waits").set(self.table.waits)
        registry.gauge("lock.conversions").set(self.table.conversions)
        registry.gauge("lock.timeouts").set(self.timeouts)
        registry.gauge("deadlock.total").set(self.detector.count())
        for kind, count in self.detector.counts_by_kind().items():
            registry.gauge(f"deadlock.{kind}").set(count)

    # -- internals --------------------------------------------------------------------

    def _plan_for(self, request: MetaRequest) -> Tuple[_PlanTemplate, _PreparedPlan]:
        """The request's plan, instantiated from its shape's template.

        A protocol's plan depends on a request only through its *shape*:
        op, access, edge role, whether an id value is given, the target's
        level (against the manager's fixed lock depth), and the numbers of
        children and affected nodes.  So a plan is compiled once per shape
        (:meth:`_compile`) and instantiated here by filling each slot from
        the request -- no planning per request, and no cached plan per
        request for the garbage collector to walk.
        """
        target = request.target
        shape = (request.op, request.access, request.role,
                 request.id_value is None, target.level,
                 len(request.children), len(request.affected))
        template = self._templates.get(shape)
        if template is None:
            template = self._templates[shape] = self._compile(request)
        string_node = target.string_node if template.uses_string_node else None
        values = self._slot_values(request, string_node)
        steps = [
            ((space, values[slot] if role is None else (values[slot], role)),
             table, midx)
            for space, slot, role, table, midx in template.steps
        ]
        prefix_len = template.prefix_len
        prefix_key = (steps[prefix_len - 1][0], template.prefix_midx) if prefix_len else None
        return template, _PreparedPlan(steps, prefix_len, prefix_key)

    @staticmethod
    def _slot_values(request: MetaRequest, string_node: Optional[Splid]) -> tuple:
        """Every key a plan may use, indexed by slot: the target, its
        string node, the id value, the children, the affected nodes, then
        the ancestors from the parent up to the root."""
        target = request.target
        return (target, string_node, request.id_value, *request.children,
                *request.affected, *target.ancestors_bottom_up())

    def _compile(self, request: MetaRequest) -> _PlanTemplate:
        """Plan a canonical request of ``request``'s shape, keys -> slots.

        The canonical request gives every slot a distinct value (children
        are children of the target; the affected nodes hang off the
        target's path), so each plan key names exactly one slot.  A real
        request need not: its affected nodes include the target's parent.
        """
        target = Splid((1,) + (3,) * request.target.level)
        off_path = Splid((1, 9))
        canonical = MetaRequest(
            request.op, target, request.access, request.role,
            children=tuple(target.child(3 + 2 * j)
                           for j in range(len(request.children))),
            affected=tuple(off_path.child(3 + 2 * j)
                           for j in range(len(request.affected))),
            id_value=None if request.id_value is None else "id",
        )
        plan = self.protocol.plan(canonical, self.lock_depth)
        prepared = self._prepare_steps(plan.steps)
        slot_of = {value: slot for slot, value in enumerate(
            self._slot_values(canonical, target.string_node))}
        steps = []
        for (space, key), table, midx in prepared.steps:
            role = None
            if isinstance(key, tuple):
                key, role = key
            slot = slot_of.get(key)
            if slot is None:
                raise LockError(f"{self.protocol.name} plans a lock on {key}, "
                                f"which is not derived from the request")
            steps.append((space, slot, role, table, midx))
        if plan.scan_ids not in (None, target):
            raise LockError(f"{self.protocol.name} scans IDs below "
                            f"{plan.scan_ids}, not below the target")
        prefix_len = prepared.prefix_len
        string_slot = slot_of[target.string_node]
        return _PlanTemplate(
            steps, prefix_len, prepared.prefix_key[1] if prefix_len else None,
            plan.traverse_individually, plan.scan_ids is not None,
            any(step[1] == string_slot for step in steps),
        )

    def _prepare_steps(self, steps: Iterable[LockStep]) -> _PreparedPlan:
        """Resolve (resource key, table, mode index) once per step."""
        prepared = []
        for step in steps:
            table = self._space_tables.get(step.space)
            if table is None:
                raise LockError(f"no mode table for lock space {step.space!r}")
            midx = table.mode_index.get(step.mode)
            if midx is None:
                raise LockError(f"mode {step.mode} not in table {table.name}")
            prepared.append(((step.space, step.key), table, midx))
        # Maximal memo-eligible prefix: NODE_SPACE steps forming a strict
        # root-down parent chain, every mode monotone under conversions.
        prefix_len = 0
        for i, ((space, key), table, midx) in enumerate(prepared):
            if (space != NODE_SPACE
                    or not isinstance(key, Splid)
                    or not (table.chain_mono_mask >> midx) & 1):
                break
            if i > 0 and key.parent != prepared[i - 1][0][1]:
                break
            prefix_len = i + 1
        # The final step is the request's own target -- unique per plan,
        # so including it would make the memo key unshareable between
        # sibling requests.  The memo covers the ancestor chain only.
        prefix_len = min(prefix_len, len(prepared) - 1)
        if prefix_len >= 2:
            prefix_key = (prepared[prefix_len - 1][0],
                          tuple(item[2] for item in prepared[:prefix_len]))
        else:
            prefix_len = 0
            prefix_key = None
        return _PreparedPlan(prepared, prefix_len, prefix_key)

    @staticmethod
    def _isolation_of(txn: object) -> IsolationLevel:
        return getattr(txn, "isolation", IsolationLevel.REPEATABLE)

    def _request_and_wait(self, txn: object, step: tuple,
                          report: AcquireReport):
        """Generator: queue one prepared step that
        :meth:`LockTable.grant_fast` refused, and wait for its grant.

        The step is already counted, chaos-hooked and traced as requested
        by :meth:`_batch_fast`.
        """
        resource, table, midx = step
        space, key = resource
        trace = self._tracing
        held_before = self.table.mode_held(txn, resource)
        ticket = self.table.enqueue(txn, resource, midx, table)
        report.blocked += 1
        if trace:
            emit = self.tracer.emit
            where = {"txn": txn_label(txn), "space": space, "key": str(key)}
            if held_before is None:
                emit(LOCK_BLOCK, **where, mode=ticket.mode, conversion=False)
            else:
                # The conversion edge (held -> requested) the wait stalls
                # on; the analyzer groups wait time by it.
                emit(LOCK_BLOCK, **where, mode=ticket.mode, conversion=True,
                     from_mode=held_before)
        event = self.detector.check(ticket, self._active_transactions())
        if event is not None:
            self.table.cancel_wait(txn)
            raise DeadlockAbort(
                f"{txn} is a deadlock victim on "
                f"{LockStep(space, key, table.modes[midx])}",
                cycle=event.cycle,
            )
        ticket.timeout_ms = self.wait_timeout_ms
        ticket.cancel = self._make_cancel(txn)
        waited_from = self.clock()
        if trace:
            emit(SPAN_BEGIN, **where, cat="wait", name="lock.wait",
                 mode=ticket.mode)
        # The wait span must close on the timeout path too, but NOT on
        # GeneratorExit (a transaction parked at the run horizon is
        # collected whenever the GC runs -- emitting then would make
        # traces nondeterministic), so no bare finally here.
        try:
            yield ticket
        except LockTimeout:
            if trace:
                emit(SPAN_END, **where, cat="wait", name="lock.wait",
                     mode=ticket.mode,
                     waited_ms=round(self.clock() - waited_from, 6))
            raise
        waited = self.clock() - waited_from
        self.wait_count += 1
        self.wait_time_total += waited
        self.wait_time_max = max(self.wait_time_max, waited)
        self.wait_histogram.observe(waited)
        granted_mode = ticket.mode
        if trace:
            emit(SPAN_END, **where, cat="wait", name="lock.wait",
                 mode=granted_mode, waited_ms=round(waited, 6))
            emit(LOCK_GRANT, **where, mode=granted_mode,
                 waited_ms=round(waited, 6))
            if held_before is not None:
                # A refused conversion always changes the held mode.
                emit(LOCK_CONVERT, **where, from_mode=held_before,
                     to_mode=granted_mode)
        usage_key = (space, granted_mode)
        self.mode_usage[usage_key] = self.mode_usage.get(usage_key, 0) + 1
        if ticket.child_mode is not None:
            node = key if isinstance(key, Splid) else key[0]
            report.fanouts.append((node, ticket.child_mode))
            if trace:
                emit(LOCK_ESCALATE, txn=where["txn"], node=str(node),
                     child_mode=ticket.child_mode)
        self._note_grant(txn, space, key, granted_mode)

    # -- coverage cache ------------------------------------------------------------

    def _note_grant(self, txn: object, space: str, key: object, mode: str) -> None:
        if space not in (NODE_SPACE, EDGE_SPACE) or not isinstance(key, Splid):
            return
        table = self._space_tables[space]
        subtree_write, subtree_read, level_read = table.anchor_flags[mode]
        state = self._states.get(txn)
        if state is None:
            state = self._states[txn] = _TxnLockState()
        # Conversions can *lose* coverage (LR -> CX drops the level read,
        # compensated by the NR child fan-out), so anchors are kept in
        # exact sync with the currently held mode.  Losing an anchor also
        # invalidates everything the covered memo proved against it.
        if subtree_write:
            state.subtree_write_anchors.add(key)
        elif key in state.subtree_write_anchors:
            state.subtree_write_anchors.remove(key)
            state.covered_memo.clear()
        if subtree_read:
            state.subtree_read_anchors.add(key)
        elif key in state.subtree_read_anchors:
            state.subtree_read_anchors.remove(key)
            state.covered_memo.clear()
        if level_read:
            state.level_read_anchors.add(key)
        elif key in state.level_read_anchors:
            state.level_read_anchors.remove(key)
            state.covered_memo.clear()

    def _refresh_state(self, txn: object, state: _TxnLockState) -> None:
        """Rebuild anchors after selective releases (committed isolation)."""
        state.subtree_read_anchors.clear()
        state.subtree_write_anchors.clear()
        state.level_read_anchors.clear()
        state.prefix_done.clear()
        state.covered_memo.clear()
        for resource in self.table.held_resources(txn):
            space, key = resource
            mode = self.table.mode_held(txn, resource)
            if mode is not None and isinstance(key, Splid):
                self._note_grant(txn, space, key, mode)

    def _anchor_covered(self, state: _TxnLockState, resource: tuple,
                        table, midx: int) -> bool:
        """Is the (space, key) resource covered by a subtree/level anchor?"""
        space, key = resource
        if space == NODE_SPACE:
            if not isinstance(key, Splid):
                return False
            node: Splid = key
            edge_parent = None
        elif space == EDGE_SPACE:
            node = key[0]
            edge_parent = node.parent
        else:
            return False
        if (table.write_mask >> midx) & 1:
            return self._anchored(state.subtree_write_anchors, node, edge_parent)
        if self._anchored(state.subtree_read_anchors, node, edge_parent):
            return True
        if (table.pure_read_mask >> midx) & 1:
            parent = node.parent
            if parent is not None and parent in state.level_read_anchors:
                return True
        return False

    @staticmethod
    def _anchored(
        anchors: Set[Splid], node: Splid, edge_parent: Optional[Splid]
    ) -> bool:
        """Does some anchor cover the node (and, for edges, its parent)?

        Edge locks span two siblings, so the anchor must cover the parent
        to guarantee both endpoints lie inside the locked subtree.

        Probed as an O(depth) walk: the node and each label on its cached
        ancestor chain are tested for membership in the anchor set, so the
        cost is the tree depth, not the number of anchors held.
        """
        if not anchors:
            return False
        probe = edge_parent if edge_parent is not None else node
        if probe in anchors:
            return True
        for ancestor in probe.ancestors_bottom_up():
            if ancestor in anchors:
                return True
        return False
