"""The node manager: the lock-guarded DOM API of the XDBMS.

Every operation is a *generator* that yields simulation effects
(:class:`~repro.sched.simulator.Delay` for simulated work,
:class:`~repro.locking.lock_table.WaitTicket` for lock waits), so the same
code runs under the discrete-event simulator, the live server
(:mod:`repro.net.server`), and the single-user driver
(:func:`repro.sched.simulator.run_sync`).

Responsibilities, mirroring XTC's node manager (Section 3):

* translate DOM operations into meta-lock requests and hand them to the
  lock manager (meta-synchronization);
* execute conversion fan-outs (CX_NR-style child locking) by enumerating
  the children -- a real document access;
* honour protocol capabilities: protocols without intention locks reach
  targets by navigating from the root; protocols without subtree locks
  visit subtrees node by node and must IDX-scan before subtree deletes;
* charge the cost model for lock-manager work, buffer traffic, and CPU;
* maintain the undo log for rollbacks.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.core.protocol import (
    Access,
    EdgeRole,
    ID_KEY_SPACE,
    ID_SPACE,
    LockStep,
    MetaOp,
    MetaRequest,
)
from repro.locking.lock_manager import IsolationLevel
from repro.dom.builder import Spec, build_children
from repro.dom.document import ID_ATTRIBUTE, Document
from repro.locking.lock_manager import AcquireReport, LockManager
from repro.obs import OP_ACCESS, SPAN_BEGIN, SPAN_END, txn_label
from repro.sched.costs import DEFAULT_COSTS, CostModel
from repro.sched.simulator import Delay
from repro.splid import Splid
from repro.storage.buffer import IoStatistics
from repro.storage.record import NodeKind
from repro.txn.transaction import Transaction

T = TypeVar("T")


def _traced(fn):
    """Wrap a node-manager operation generator in an ``op`` span.

    With tracing disabled the wrapper costs one attribute check and
    returns the undecorated generator.  With tracing enabled the span's
    end event attributes the operation's buffer traffic (logical and
    physical reads seen by this transaction during the span) and its
    simulated I/O cost, which the analyzer turns into the per-transaction
    critical-path breakdown.
    """

    @functools.wraps(fn)
    def wrapper(self, txn, *args, **kwargs):
        if not self.tracer.enabled:
            return fn(self, txn, *args, **kwargs)
        return self._op_span(fn.__name__, txn, fn(self, txn, *args, **kwargs))

    return wrapper


class NodeManager:
    """Lock-guarded DOM operations over one document."""

    def __init__(
        self,
        document: Document,
        locks: LockManager,
        costs: CostModel = DEFAULT_COSTS,
        *,
        wal=None,
    ):
        self.document = document
        self.locks = locks
        self.costs = costs
        #: Optional write-ahead log (see :mod:`repro.txn.wal`).
        self.wal = wal
        #: The lock manager's tracer doubles as the span sink, so one
        #: ``Observability`` bundle captures both layers in order.
        self.tracer = locks.tracer
        #: Trace one ``op.access`` event per meta request (history-oracle
        #: input, see :mod:`repro.verify`); off unless the bundle opts in.
        self._access_events = locks.obs.access_events and self.tracer.enabled
        if not self.tracer.enabled:
            # Static dispatch: with tracing off, bind the undecorated
            # operation generators directly on the instance so every call
            # skips the ``_traced`` wrapper frame and its guard entirely.
            # Enabledness is latched at construction (tracers are wired
            # before the node manager exists); subclass overrides of an
            # operation are left untouched.
            cls = type(self)
            for name, wrapper, plain in _TRACED_OPS:
                if getattr(cls, name, None) is wrapper:
                    setattr(self, name, plain.__get__(self))

    # ------------------------------------------------------------------
    # direct jumps
    # ------------------------------------------------------------------

    @_traced
    def get_element_by_id(self, txn: Transaction, id_value: str):
        """``getElementById``: a direct jump via the ID index.

        For protocols without intention locks the jump degenerates into a
        root-to-target navigation that locks the path step by step
        (plus the IDR jump lock on the target itself).
        """
        txn.require_active()
        txn.stats.operations += 1
        yield from self._id_key_locks(txn, [id_value], exclusive=False)
        if self.locks.table.has_space(ID_SPACE):
            # *-2PL jump protection: the IDR lock is keyed by the ID value
            # and acquired *before* the index lookup, so a jump towards a
            # subtree an uncommitted deleter has IDX-scanned blocks even
            # though the index entry is already gone.
            report = yield from self.locks.acquire_steps(
                txn, [LockStep(ID_SPACE, id_value, "IDR")]
            )
            yield from self._settle(txn, report)
        target, io = self._io(txn, lambda: self.document.element_by_id(id_value))
        if io:
            yield Delay(io)
        if target is None:
            # Serializable keeps the S key lock on the *absent* id, so a
            # later insert of this id (a phantom) has to wait.
            yield from self._end_op(txn)
            return None
        yield from self._reach(txn, target, id_value=id_value, exclusive=False)
        yield from self._end_op(txn)
        return target

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------

    @_traced
    def get_first_child(self, txn: Transaction, node: Splid):
        return (yield from self._navigate(
            txn, node, EdgeRole.FIRST_CHILD,
            lambda: self.document.store.first_child(node),
        ))

    @_traced
    def get_last_child(self, txn: Transaction, node: Splid):
        return (yield from self._navigate(
            txn, node, EdgeRole.LAST_CHILD,
            lambda: self.document.store.last_child(node),
        ))

    @_traced
    def get_next_sibling(self, txn: Transaction, node: Splid):
        return (yield from self._navigate(
            txn, node, EdgeRole.NEXT_SIBLING,
            lambda: self.document.store.next_sibling(node),
        ))

    @_traced
    def get_previous_sibling(self, txn: Transaction, node: Splid):
        return (yield from self._navigate(
            txn, node, EdgeRole.PREV_SIBLING,
            lambda: self.document.store.previous_sibling(node),
        ))

    @_traced
    def get_parent(self, txn: Transaction, node: Splid):
        txn.require_active()
        txn.stats.operations += 1
        parent = node.parent
        if parent is not None:
            yield from self._meta(
                txn, MetaRequest(MetaOp.READ_NODE, parent, Access.NAVIGATION)
            )
            txn.stats.nodes_visited += 1
            yield Delay(self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return parent

    @_traced
    def get_child_nodes(self, txn: Transaction, node: Splid):
        """``getChildNodes``: one level lock (taDOM) or per-child locks."""
        txn.require_active()
        txn.stats.operations += 1
        children, io = self._io(
            txn, lambda: tuple(self.document.store.children(node))
        )
        yield from self._meta(
            txn,
            MetaRequest(MetaOp.READ_LEVEL, node, Access.NAVIGATION,
                        children=children),
        )
        txn.stats.nodes_visited += len(children)
        yield Delay(io + len(children) * self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return children

    @_traced
    def get_attributes(self, txn: Transaction, element: Splid):
        """``getAttributes``: level lock on the attribute root."""
        txn.require_active()
        txn.stats.operations += 1
        attrs, io = self._io(
            txn, lambda: tuple(self.document.store.attributes(element))
        )
        attr_root = element.attribute_root
        if attrs:
            yield from self._meta(
                txn,
                MetaRequest(MetaOp.READ_LEVEL, attr_root, Access.NAVIGATION,
                            children=attrs),
            )
        else:
            yield from self._meta(
                txn, MetaRequest(MetaOp.READ_NODE, element, Access.NAVIGATION)
            )
        yield Delay(io + len(attrs) * self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return attrs

    # ------------------------------------------------------------------
    # reading values
    # ------------------------------------------------------------------

    @_traced
    def read_content(self, txn: Transaction, owner: Splid):
        """Value of a text or attribute node."""
        txn.require_active()
        txn.stats.operations += 1
        yield from self._meta(
            txn, MetaRequest(MetaOp.READ_CONTENT, owner, Access.NAVIGATION)
        )
        value, io = self._io(txn, lambda: self.document.string_value(owner))
        yield Delay(io + self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return value

    @_traced
    def get_attribute_value(self, txn: Transaction, element: Splid, name: str):
        """Read one attribute by name (locks the attribute level)."""
        attrs = yield from self.get_attributes(txn, element)
        for attr in attrs:
            attr_name, io = self._io(txn, lambda a=attr: self.document.name_of(a))
            if io:
                yield Delay(io)
            if attr_name == name:
                return (yield from self.read_content(txn, attr))
        return None

    @_traced
    def read_subtree(self, txn: Transaction, root: Splid):
        """Read a whole fragment (the paper's ``getFragment`` access).

        Subtree-capable protocols take one subtree lock and scan;
        the *-2PL group visits and locks node by node.
        """
        txn.require_active()
        txn.stats.operations += 1
        report = yield from self._meta(
            txn, MetaRequest(MetaOp.READ_SUBTREE, root, Access.NAVIGATION)
        )
        entries, io = self._io(txn, lambda: list(self.document.store.subtree(root)))
        if report.traverse_individually:
            # Depth-first visit, locking the edge taken into each node
            # (first-child from the parent, else next-sibling from the
            # previously seen sibling) plus the node itself.
            last_child_of = {}
            for splid, record in entries:
                if splid == root or splid.is_meta:
                    continue
                parent = splid.parent
                previous = last_child_of.get(parent)
                role = (EdgeRole.FIRST_CHILD if previous is None
                        else EdgeRole.NEXT_SIBLING)
                origin = parent if previous is None else previous
                last_child_of[parent] = splid
                yield from self._meta(
                    txn, MetaRequest(MetaOp.READ_EDGE, origin,
                                     Access.NAVIGATION, role=role)
                )
                yield from self._meta(
                    txn, MetaRequest(MetaOp.READ_NODE, splid, Access.NAVIGATION)
                )
                if record.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
                    yield from self._meta(
                        txn,
                        MetaRequest(MetaOp.READ_CONTENT, splid, Access.NAVIGATION),
                    )
        txn.stats.nodes_visited += len(entries)
        yield Delay(io + len(entries) * self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return entries

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    @_traced
    def update_content(self, txn: Transaction, owner: Splid, text: str):
        """Replace the value of a text/attribute node (IUD: update)."""
        txn.require_active()
        txn.stats.operations += 1
        yield from self._meta(
            txn, MetaRequest(MetaOp.WRITE_CONTENT, owner, Access.NAVIGATION)
        )
        if not self.document.exists(owner):
            # Vanished under a weak isolation level: nothing to update.
            yield from self._end_op(txn)
            return None
        old, io = self._io(txn, lambda: self.document.update_string(owner, text))
        txn.log_undo("content", (owner, old))
        if self.wal is not None:
            self.wal.log_content(txn.txn_id, owner, old, text)
        yield Delay(io + self.costs.update_cpu_ms)
        yield from self._end_op(txn)
        return old

    @_traced
    def rename_element(self, txn: Transaction, element: Splid, new_name: str):
        """DOM3 ``renameNode``."""
        txn.require_active()
        txn.stats.operations += 1
        yield from self._meta(
            txn, MetaRequest(MetaOp.RENAME_NODE, element, Access.NAVIGATION)
        )
        if not self.document.exists(element):
            yield from self._end_op(txn)
            return None
        old, io = self._io(txn, lambda: self.document.rename_element(element, new_name))
        txn.log_undo("rename", (element, old))
        if self.wal is not None:
            self.wal.log_rename(txn.txn_id, element, old, new_name)
        yield Delay(io + self.costs.update_cpu_ms)
        yield from self._end_op(txn)
        return old

    @_traced
    def insert_tree(self, txn: Transaction, parent: Splid, spec: Spec):
        """Insert a new element subtree as the last child of ``parent``.

        The new node's SPLID is predicted from the neighbours (the
        allocator is deterministic), locked, and re-validated -- if a
        concurrent insert won the gap the plan is recomputed.
        """
        txn.require_active()
        txn.stats.operations += 1
        if not self.document.exists(parent):
            yield from self._end_op(txn)
            return None
        while True:
            last, io = self._io(txn, lambda: self.document.store.last_child(parent))
            if io:
                yield Delay(io)
            predicted = self.document.allocator.between(parent, last, None)
            affected = tuple(n for n in (last, parent) if n is not None)
            yield from self._meta(
                txn,
                MetaRequest(MetaOp.INSERT_CHILD, predicted, Access.NAVIGATION,
                            affected=affected),
            )
            if last is not None:
                yield from self._meta(
                    txn,
                    MetaRequest(MetaOp.WRITE_EDGE, last, Access.NAVIGATION,
                                role=EdgeRole.NEXT_SIBLING),
                )
            else:
                # The new node becomes the first child as well.
                yield from self._meta(
                    txn,
                    MetaRequest(MetaOp.WRITE_EDGE, parent, Access.NAVIGATION,
                                role=EdgeRole.FIRST_CHILD),
                )
            yield from self._meta(
                txn,
                MetaRequest(MetaOp.WRITE_EDGE, parent, Access.NAVIGATION,
                            role=EdgeRole.LAST_CHILD),
            )
            current_last, io = self._io(
                txn, lambda: self.document.store.last_child(parent)
            )
            if io:
                yield Delay(io)
            if current_last == last:
                break
        if not self.document.exists(parent):
            yield from self._end_op(txn)
            return None
        yield from self._id_key_locks(
            txn, self._spec_ids(spec), exclusive=True
        )
        root_label, io = self._io(
            txn, lambda: self._build_tree(parent, spec)
        )
        txn.log_undo("insert", root_label)
        if self.wal is not None:
            self.wal.log_insert(
                txn.txn_id,
                list(self.document.store.subtree(root_label)),
                self.document,
            )
        yield Delay(io + self.costs.update_cpu_ms)
        yield from self._end_op(txn)
        return root_label

    @_traced
    def delete_subtree(
        self,
        txn: Transaction,
        root: Splid,
        access: Access = Access.NAVIGATION,
    ):
        """Delete a subtree (IUD: delete).

        For the *-2PL group this includes the expensive pre-delete scan:
        every element in the subtree owning an ID attribute is located via
        the node manager (document accesses, possibly hitting disk) and
        IDX-locked, so no other transaction can still jump inside.
        """
        txn.require_active()
        txn.stats.operations += 1
        left, io1 = self._io(txn, lambda: self.document.store.previous_sibling(root))
        right, io2 = self._io(txn, lambda: self.document.store.next_sibling(root))
        if io1 + io2:
            yield Delay(io1 + io2)
        affected = tuple(
            n for n in (left, right, root.parent) if n is not None
        )
        report = yield from self._meta(
            txn,
            MetaRequest(MetaOp.DELETE_SUBTREE, root, access, affected=affected),
        )
        if not self.document.exists(root):
            # Deleted concurrently under a weak isolation level.
            yield from self._end_op(txn)
            return 0
        if report.scan_ids is not None:
            yield from self._scan_and_idx_lock(txn, report.scan_ids)
        parent = root.parent
        if left is not None:
            yield from self._meta(
                txn, MetaRequest(MetaOp.WRITE_EDGE, left, Access.NAVIGATION,
                                 role=EdgeRole.NEXT_SIBLING),
            )
        elif parent is not None:
            # Removing the first child rewires the parent's first-child
            # edge; readers of an (even empty) child list must conflict.
            yield from self._meta(
                txn, MetaRequest(MetaOp.WRITE_EDGE, parent, Access.NAVIGATION,
                                 role=EdgeRole.FIRST_CHILD),
            )
        if right is not None:
            yield from self._meta(
                txn, MetaRequest(MetaOp.WRITE_EDGE, right, Access.NAVIGATION,
                                 role=EdgeRole.PREV_SIBLING),
            )
        elif parent is not None:
            yield from self._meta(
                txn, MetaRequest(MetaOp.WRITE_EDGE, parent, Access.NAVIGATION,
                                 role=EdgeRole.LAST_CHILD),
            )
        removed_ids, io0 = self._io(txn, lambda: self._subtree_ids(root))
        if io0:
            yield Delay(io0)
        yield from self._id_key_locks(txn, removed_ids, exclusive=True)
        entries, io = self._io(txn, lambda: self.document.delete_subtree(root))
        txn.log_undo("delete", entries)
        if self.wal is not None:
            self.wal.log_delete(txn.txn_id, entries, self.document)
        yield Delay(io + self.costs.update_cpu_ms * max(1, len(entries) // 8))
        yield from self._end_op(txn)
        return len(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _navigate(
        self,
        txn: Transaction,
        origin: Splid,
        role: EdgeRole,
        resolve: Callable[[], Optional[Splid]],
    ):
        """One navigational step: edge lock + target node lock."""
        txn.require_active()
        txn.stats.operations += 1
        yield from self._meta(
            txn, MetaRequest(MetaOp.READ_EDGE, origin, Access.NAVIGATION, role=role)
        )
        target, io = self._io(txn, resolve)
        if target is not None:
            yield from self._meta(
                txn, MetaRequest(MetaOp.READ_NODE, target, Access.NAVIGATION)
            )
            txn.stats.nodes_visited += 1
        yield Delay(io + self.costs.node_cpu_ms)
        yield from self._end_op(txn)
        return target

    def _reach(self, txn: Transaction, target: Splid, *,
               exclusive: bool, id_value: Optional[str] = None):
        """Direct jump, or root navigation for jump-incapable protocols.

        Protocols without intention locks (the *-2PL group) cannot protect
        an ancestor path, so the node manager performs the physical
        navigation of Figure 1: from the document root, walking the child
        and sibling chains, leaving locks on every node and edge passed.
        """
        if self.locks.protocol.requires_root_navigation:
            path = target.ancestors_top_down() + (target,)
            yield from self._meta(
                txn, MetaRequest(MetaOp.READ_NODE, path[0], Access.NAVIGATION)
            )
            txn.stats.nodes_visited += 1
            for current, next_anchor in zip(path, path[1:]):
                siblings, io = self._io(
                    txn, lambda n=current: tuple(self.document.store.children(n))
                )
                if io:
                    yield Delay(io)
                previous: Optional[Splid] = None
                for sibling in siblings:
                    role = (EdgeRole.FIRST_CHILD if previous is None
                            else EdgeRole.NEXT_SIBLING)
                    origin = current if previous is None else previous
                    yield from self._meta(
                        txn,
                        MetaRequest(MetaOp.READ_EDGE, origin,
                                    Access.NAVIGATION, role=role),
                    )
                    yield from self._meta(
                        txn,
                        MetaRequest(MetaOp.READ_NODE, sibling, Access.NAVIGATION),
                    )
                    txn.stats.nodes_visited += 1
                    previous = sibling
                    if sibling == next_anchor:
                        break
                yield Delay(
                    max(1, len(siblings)) * self.costs.node_cpu_ms
                )
        yield from self._meta(
            txn,
            MetaRequest(MetaOp.READ_NODE, target, Access.JUMP,
                        id_value=id_value),
        )
        txn.stats.nodes_visited += 1
        yield Delay(self.costs.node_cpu_ms)

    def _meta(self, txn: Transaction, request: MetaRequest):
        """Issue one meta-lock request and settle its consequences."""
        report = yield from self.locks.acquire(txn, request)
        yield from self._settle(txn, report)
        if self._access_events:
            self._emit_access(txn, request)
        return report

    def _emit_access(self, txn: Transaction, request: MetaRequest) -> None:
        """Trace the settled meta request as one logical data access.

        Emitted *after* the request's locks were granted: conflicting
        accesses therefore appear in the trace in the order the lock
        protocol serialized them, which is what makes the recorded
        history checkable (see :mod:`repro.verify.oracle`).
        """
        data = {
            "op": request.op.value,
            "target": str(request.target),
            "access": request.access.value,
        }
        if request.role is not None:
            data["role"] = request.role.value
        if request.children:
            data["children"] = [str(child) for child in request.children]
        if request.affected:
            data["affected"] = [str(node) for node in request.affected]
        if request.id_value is not None:
            data["id_value"] = request.id_value
        self.tracer.emit(OP_ACCESS, txn=txn_label(txn), **data)

    def _settle(self, txn: Transaction, report: AcquireReport):
        txn.stats.lock_requests += report.lock_requests
        txn.stats.covered_skips += report.skipped_covered
        txn.stats.blocked_waits += report.blocked
        cost = self.costs.lock_cost(report.lock_requests, report.skipped_covered)
        if cost:
            yield Delay(cost)
        for node, child_mode in report.fanouts:
            children, io = self._io(
                txn, lambda n=node: list(self.document.store.children(n))
            )
            if io:
                yield Delay(io)
            sub = yield from self.locks.acquire_children(txn, children, child_mode)
            txn.stats.fanout_locks += sub.lock_requests
            yield from self._settle(txn, sub)

    def _scan_and_idx_lock(self, txn: Transaction, root: Splid):
        """The *-2PL pre-delete scan: IDX every ID value in the subtree.

        "Setting IDX locks on these nodes in the subtrees guarantees that
        other transactions do not reference anymore nodes in the subtree
        to be deleted."  Locks are keyed by ID *value*, matching the IDR
        locks that direct jumps acquire before resolving the index.
        """
        id_values, io = self._io(txn, lambda: self._subtree_ids(root))
        subtree_size, io2 = self._io(
            txn, lambda: self.document.store.subtree_size(root)
        )
        txn.stats.nodes_visited += subtree_size
        yield Delay(io + io2 + subtree_size * self.costs.node_cpu_ms)
        steps = [LockStep(ID_SPACE, value, "IDX") for value in id_values]
        report = yield from self.locks.acquire_steps(txn, steps)
        yield from self._settle(txn, report)

    def _build_tree(self, parent: Splid, spec: Spec) -> Splid:
        if isinstance(spec, str):
            return self.document.add_text(parent, spec)
        name = spec[0]
        attrs = {}
        children: Tuple = ()
        for part in spec[1:]:
            if isinstance(part, dict):
                attrs = part
            else:
                children = part
        element = self.document.add_element(parent, name)
        for attr_name, attr_value in attrs.items():
            self.document.set_attribute(element, attr_name, attr_value)
        build_children(self.document, element, children)
        return element

    def _id_key_locks(self, txn: Transaction, ids, *, exclusive: bool):
        """Key-range locks on ID values (serializable isolation only)."""
        if getattr(txn, "isolation", None) is not IsolationLevel.SERIALIZABLE:
            return
        ids = list(ids)
        if not ids:
            return
        mode = "X" if exclusive else "S"
        steps = [LockStep(ID_KEY_SPACE, value, mode) for value in ids]
        report = yield from self.locks.acquire_steps(txn, steps)
        yield from self._settle(txn, report)

    def _spec_ids(self, spec: Spec) -> List[str]:
        """All ``id`` attribute values a builder spec would create."""
        if isinstance(spec, str):
            return []
        ids: List[str] = []
        children: Tuple = ()
        for part in spec[1:]:
            if isinstance(part, dict):
                if ID_ATTRIBUTE in part:
                    ids.append(part[ID_ATTRIBUTE])
            else:
                children = part
        for child in children:
            ids.extend(self._spec_ids(child))
        return ids

    def _subtree_ids(self, root: Splid) -> List[str]:
        """All indexed ID values inside a subtree (before its deletion)."""
        ids: List[str] = []
        for splid, record in self.document.store.subtree(root):
            if record.kind is not NodeKind.ATTRIBUTE:
                continue
            name = self.document.vocabulary.name_of(record.name_surrogate)
            if name == ID_ATTRIBUTE:
                string_record = self.document.store.try_get(splid.string_node)
                if string_record is not None:
                    ids.append(string_record.text_content or "")
        return ids

    def _end_op(self, txn: Transaction):
        released = self.locks.end_operation(txn)
        if released:
            yield Delay(released * self.costs.lock_request_ms)

    def _io(self, txn: Transaction, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run a document access, returning (result, simulated cost)."""
        before = self.document.buffer.stats.snapshot()
        result = fn()
        delta = self.document.buffer.stats.delta_since(before)
        txn.stats.logical_reads += delta.logical_reads
        txn.stats.physical_reads += delta.physical_reads
        return result, self.costs.io_cost(delta)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _op_span(self, name: str, txn: Transaction, inner):
        """Delegate to an operation generator inside an ``op`` span."""
        label = txn_label(txn)
        stats = txn.stats
        logical0 = stats.logical_reads
        physical0 = stats.physical_reads
        self.tracer.emit(SPAN_BEGIN, txn=label, cat="op", name=name)
        try:
            result = yield from inner
        except GeneratorExit:
            # A parked generator collected at the run horizon: emitting
            # here would stamp garbage-collection time into the trace.
            raise
        except BaseException:
            self._emit_op_end(label, name, stats, logical0, physical0)
            raise
        self._emit_op_end(label, name, stats, logical0, physical0)
        return result

    def _emit_op_end(self, label, name, stats, logical0, physical0):
        logical = stats.logical_reads - logical0
        physical = stats.physical_reads - physical0
        io_ms = self.costs.io_cost(
            IoStatistics(logical_reads=logical, physical_reads=physical)
        )
        self.tracer.emit(
            SPAN_END, txn=label, cat="op", name=name,
            logical_reads=logical, physical_reads=physical,
            io_ms=round(io_ms, 6),
        )


#: ``(name, wrapper, undecorated)`` for every ``@_traced`` operation.
#: ``NodeManager.__init__`` binds the undecorated generator functions on
#: the instance when tracing is disabled (zero-cost-when-disabled).
_TRACED_OPS = tuple(
    (name, member, member.__wrapped__)
    for name, member in vars(NodeManager).items()
    if callable(member) and hasattr(member, "__wrapped__")
)
