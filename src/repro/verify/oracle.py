"""The history oracle: is the recorded schedule actually correct?

Three checks over a :class:`~repro.verify.history.RunHistory`:

* **conformance** -- every data access was covered by a sufficient
  granted mode.  Each ``op.access`` is re-planned through the protocol
  (``protocol.plan(request, lock_depth)``), and every planned lock step
  -- including the intention locks on the ancestor path -- must be
  satisfied by the lock state reconstructed from the grant/release
  events up to that point, either directly (a held mode that subsumes
  the requested one) or through the protocol's coverage rules (an
  ancestor subtree lock, or a parent level-read for pure reads);
* **two-phase** -- transactions under isolation level repeatable (or
  serializable) never release a lock before their commit/abort point;
* **serializability** -- the committed schedule is
  conflict-serializable: a precedence graph over committed transactions
  (read/write/structure conflicts on SPLID regions) must be acyclic.

The serializability check uses a *region* model of each access: node,
content, level (child list), edge, and subtree regions, with subtree
overlap decided on the SPLID division prefix.  Node-vs-level is
deliberately *not* a conflict (renaming a child does not change the
child list a level read observes); structural operations write both
their subtree and the parent's level region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.protocol import (
    EDGE_SPACE,
    MetaOp,
    MetaRequest,
    NODE_SPACE,
)
from repro.core.registry import get_protocol
from repro.obs import (
    LOCK_GRANT,
    LOCK_RELEASE,
    OP_ACCESS,
    TXN_ABORT,
    TXN_COMMIT,
    TraceEvent,
)
from repro.splid import Splid
from repro.verify.history import RunHistory, _request_from

#: Isolation levels whose committed schedules must be serializable and
#: whose transactions must obey two-phase discipline.
STRICT_ISOLATIONS = ("repeatable", "serializable")


@dataclass(frozen=True)
class Violation:
    """One oracle finding, anchored to a trace sequence number."""

    check: str           # "conformance" | "two-phase" | "serializability"
    txn: Optional[str]
    seq: int
    detail: str

    def __str__(self) -> str:
        who = f" txn={self.txn}" if self.txn else ""
        return f"[{self.check}]{who} seq={self.seq}: {self.detail}"


@dataclass
class OracleReport:
    """The oracle's verdict over one run history."""

    protocol: str
    lock_depth: int
    #: Check name -> "ok" / "violated" / "skipped".
    checks: Dict[str, str] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    accesses_checked: int = 0
    steps_checked: int = 0
    committed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        checks = ", ".join(
            f"{name}={state}" for name, state in sorted(self.checks.items())
        )
        return (
            f"{status} protocol={self.protocol} depth={self.lock_depth} "
            f"committed={self.committed} accesses={self.accesses_checked} "
            f"steps={self.steps_checked} [{checks}]"
        )


def verify_trace(
    trace: Union[str, Path, Sequence[TraceEvent]],
    *,
    protocol: Optional[str] = None,
    lock_depth: Optional[int] = None,
) -> OracleReport:
    """Run the oracle over a JSONL trace file or an event sequence."""
    if isinstance(trace, (str, Path)):
        history = RunHistory.from_jsonl(trace)
    else:
        history = RunHistory.from_events(trace)
    return verify_history(history, protocol=protocol, lock_depth=lock_depth)


def verify_history(
    history: RunHistory,
    *,
    protocol: Optional[str] = None,
    lock_depth: Optional[int] = None,
) -> OracleReport:
    config = history.configuration(protocol=protocol, lock_depth=lock_depth)
    proto = get_protocol(str(config["protocol"]))
    depth = int(config["lock_depth"])  # type: ignore[arg-type]
    report = OracleReport(protocol=proto.name, lock_depth=depth)
    report.committed = len(history.committed_transactions())
    _check_conformance(history, proto, depth, report)
    _check_two_phase(history, report)
    _check_serializability(history, report)
    return report


# ---------------------------------------------------------------------------
# conformance: every access covered by a sufficient granted mode
# ---------------------------------------------------------------------------

class _TxnState:
    """Reconstructed lock state of one transaction during trace replay."""

    __slots__ = ("held", "node_locks", "subtree_write", "subtree_read",
                 "level_read")

    def __init__(self) -> None:
        #: (space, key string) -> currently held mode.
        self.held: Dict[Tuple[str, str], str] = {}
        #: key string -> Splid, for NODE_SPACE grants (anchor rebuilds).
        self.node_locks: Dict[str, Splid] = {}
        self.subtree_write: Set[str] = set()
        self.subtree_read: Set[str] = set()
        self.level_read: Set[str] = set()


def _check_conformance(history, proto, depth, report: OracleReport) -> None:
    tables = proto.tables()
    states: Dict[str, _TxnState] = {}
    isolations = {
        label: record.isolation
        for label, record in history.transactions.items()
    }
    checked = False
    for event in history.events:
        if event.kind == LOCK_GRANT:
            _replay_grant(states, tables, event)
        elif event.kind == LOCK_RELEASE:
            _replay_release(states, tables, event)
        elif event.kind in (TXN_COMMIT, TXN_ABORT):
            states.pop(event.txn, None)
        elif event.kind == OP_ACCESS:
            isolation = isolations.get(event.txn, "repeatable")
            if isolation == "none":
                continue
            request = _request_from(event.data)
            if isolation == "uncommitted" and request.is_read:
                continue
            checked = True
            report.accesses_checked += 1
            state = states.get(event.txn) or _TxnState()
            plan = proto.plan(request, depth)
            for step in plan.steps:
                report.steps_checked += 1
                if not _satisfied(state, tables, step):
                    report.violations.append(Violation(
                        "conformance", event.txn, event.seq,
                        f"{request.op.value} on {request.target}: required "
                        f"{step.mode}({step.space}:{step.key}) neither held "
                        f"nor covered",
                    ))
    report.checks["conformance"] = (
        "violated" if any(v.check == "conformance" for v in report.violations)
        else ("ok" if checked else "skipped")
    )


def _replay_grant(states, tables, event: TraceEvent) -> None:
    space = str(event.data["space"])
    key = str(event.data["key"])
    mode = str(event.data["mode"])
    state = states.setdefault(event.txn, _TxnState())
    state.held[(space, key)] = mode
    if space != NODE_SPACE:
        return
    try:
        splid = Splid.parse(key)
    except Exception:
        return
    state.node_locks[key] = splid
    _set_anchors(state, tables.get(space), key, mode)


def _set_anchors(state: _TxnState, table, key: str, mode: str) -> None:
    # Conversions can *lose* coverage (LR -> CX drops the level read), so
    # anchors mirror the currently held mode exactly -- same rule as the
    # lock manager's coverage cache.  A space or mode the checked
    # protocol does not define contributes no coverage (the mismatch
    # then surfaces as a conformance violation, not a crash).
    flags = None if table is None else table.anchor_flags.get(mode)
    subtree_write, subtree_read, level_read = flags or (False, False, False)
    (state.subtree_write.add if subtree_write
     else state.subtree_write.discard)(key)
    (state.subtree_read.add if subtree_read
     else state.subtree_read.discard)(key)
    (state.level_read.add if level_read
     else state.level_read.discard)(key)


def _replay_release(states, tables, event: TraceEvent) -> None:
    if str(event.data.get("scope")) == "transaction":
        states.pop(event.txn, None)
        return
    # Operation scope (isolation level committed): the lock manager
    # releases every held mode outside the space's write modes.
    state = states.get(event.txn)
    if state is None:
        return
    for (space, key), mode in list(state.held.items()):
        table = tables.get(space)
        if table is not None and mode in table.write_modes:
            continue
        del state.held[(space, key)]
    state.subtree_write.clear()
    state.subtree_read.clear()
    state.level_read.clear()
    for (space, key), mode in state.held.items():
        if space == NODE_SPACE and key in state.node_locks:
            _set_anchors(state, tables.get(space), key, mode)


def _satisfied(state: _TxnState, tables, step) -> bool:
    """Mirror of the lock manager's held-or-covered test."""
    table = tables.get(step.space)
    if table is None:
        # The checked protocol never grants in this space.
        return False
    key_str = str(step.key)
    held = state.held.get((step.space, key_str))
    if held is not None and table.subsumes(held, step.mode):
        return True
    if step.space == NODE_SPACE and isinstance(step.key, Splid):
        node: Splid = step.key
        edge_parent = None
    elif step.space == EDGE_SPACE:
        node = step.key[0]
        edge_parent = node.parent
    else:
        return False
    if step.mode in table.write_modes:
        return _anchored(state.subtree_write, node, edge_parent)
    if _anchored(state.subtree_read, node, edge_parent):
        return True
    if step.mode in table.pure_read_modes:
        parent = node.parent
        if parent is not None and str(parent) in state.level_read:
            return True
    return False


def _anchored(
    anchors: Set[str], node: Splid, edge_parent: Optional[Splid]
) -> bool:
    if not anchors:
        return False
    probe = edge_parent if edge_parent is not None else node
    if str(probe) in anchors:
        return True
    for ancestor in probe.ancestors_bottom_up():
        if str(ancestor) in anchors:
            return True
    return False


# ---------------------------------------------------------------------------
# two-phase discipline
# ---------------------------------------------------------------------------

def _check_two_phase(history, report: OracleReport) -> None:
    strict = {
        label for label, record in history.transactions.items()
        if record.isolation in STRICT_ISOLATIONS
    }
    if not strict:
        report.checks["two-phase"] = "skipped"
        return
    released: Set[str] = set()
    ok = True
    for event in history.events:
        if event.txn not in strict:
            continue
        if event.kind == LOCK_RELEASE:
            scope = str(event.data.get("scope"))
            if scope == "operation":
                # Short (pre-commit) releases only exist under isolation
                # level committed; a strict transaction doing one breaks
                # two-phase discipline.
                report.violations.append(Violation(
                    "two-phase", event.txn, event.seq,
                    "operation-scoped lock release before commit",
                ))
                ok = False
            released.add(event.txn)
        elif event.kind == LOCK_GRANT and event.txn in released:
            report.violations.append(Violation(
                "two-phase", event.txn, event.seq,
                "lock acquired after the transaction's shrink point",
            ))
            ok = False
        elif event.kind in (TXN_COMMIT, TXN_ABORT):
            released.discard(event.txn)
    report.checks["two-phase"] = "ok" if ok else "violated"


# ---------------------------------------------------------------------------
# conflict-serializability of the committed schedule
# ---------------------------------------------------------------------------

#: Region kinds of the conflict model.
_NODE, _CONTENT, _LEVEL, _EDGE, _SUBTREE = (
    "node", "content", "level", "edge", "subtree",
)


def _regions(request: MetaRequest) -> List[Tuple[str, object, bool]]:
    """(kind, key, is_write) regions one access touches."""
    op, target = request.op, request.target
    if op is MetaOp.READ_NODE or op is MetaOp.UPDATE_NODE:
        return [(_NODE, target, False)]
    if op is MetaOp.READ_CONTENT:
        return [(_CONTENT, target, False)]
    if op is MetaOp.READ_LEVEL:
        return [(_LEVEL, target, False)]
    if op is MetaOp.READ_SUBTREE:
        return [(_SUBTREE, target, False)]
    if op is MetaOp.WRITE_CONTENT:
        return [(_CONTENT, target, True)]
    if op is MetaOp.RENAME_NODE:
        return [(_NODE, target, True)]
    if op in (MetaOp.INSERT_CHILD, MetaOp.DELETE_SUBTREE):
        regions: List[Tuple[str, object, bool]] = [(_SUBTREE, target, True)]
        parent = target.parent
        if parent is not None:
            regions.append((_LEVEL, parent, True))
        return regions
    if op is MetaOp.READ_EDGE:
        return [(_EDGE, (target, request.role), False)]
    if op is MetaOp.WRITE_EDGE:
        return [(_EDGE, (target, request.role), True)]
    return []


class _Group:
    """All touches of one (txn, region) pair, collapsed to a seq window.

    A precedence edge A -> B exists iff some conflicting touch of A
    precedes some touch of B, i.e. ``A.first < B.last`` -- so only the
    window endpoints matter, which keeps the conflict scan linear in the
    number of *distinct* regions instead of the number of accesses.
    """

    __slots__ = ("txn", "kind", "key", "node", "write", "first", "last")

    def __init__(self, txn, kind, key, node, write, seq):
        self.txn = txn
        self.kind = kind
        self.key = key
        #: The Splid the region sits at (edge regions: the origin node).
        self.node = node
        self.write = write
        self.first = seq
        self.last = seq


def _collect_groups(history, committed) -> List[_Group]:
    groups: Dict[Tuple[str, str, str, bool], _Group] = {}
    for access in history.accesses:
        if access.txn not in committed:
            continue
        for kind, key, write in _regions(access.request):
            node = key[0] if kind == _EDGE else key
            ident = (access.txn, kind, str(key), write)
            group = groups.get(ident)
            if group is None:
                groups[ident] = _Group(
                    access.txn, kind, key, node, write, access.seq
                )
            else:
                group.last = access.seq
    return list(groups.values())


def _conflict_pairs(groups: List[_Group]):
    """Yield conflicting group pairs (each unordered pair once)."""
    exact: Dict[Tuple[str, str], List[_Group]] = {}
    subtree_at: Dict[str, List[_Group]] = {}
    for group in groups:
        exact.setdefault((group.kind, str(group.key)), []).append(group)
        if group.kind == _SUBTREE:
            subtree_at.setdefault(str(group.key), []).append(group)
    # Same-region conflicts (includes subtree groups with equal roots).
    for bucket in exact.values():
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                if a.txn != b.txn and (a.write or b.write):
                    yield a, b
    # Subtree-vs-anything along the ancestor chain.  Walking each group's
    # own chain finds every subtree region strictly above it; equal-root
    # subtree pairs were already covered by the exact buckets.
    for group in groups:
        for ancestor in group.node.ancestors_bottom_up():
            for sub in subtree_at.get(str(ancestor), ()):
                if sub.txn != group.txn and (sub.write or group.write):
                    yield sub, group
    # The one conflict the chain walk cannot see: a structural write at
    # ``a`` changes the child list of ``a.parent`` -- one level *above*
    # the subtree root.
    for subs in subtree_at.values():
        parent = subs[0].node.parent
        if parent is None:
            continue
        for lvl in exact.get((_LEVEL, str(parent)), ()):
            for sub in subs:
                if sub.txn != lvl.txn and (sub.write or lvl.write):
                    yield sub, lvl


def _check_serializability(history, report: OracleReport) -> None:
    committed = {t.label for t in history.committed_transactions()}
    strict = all(
        history.transactions[label].isolation in STRICT_ISOLATIONS
        for label in committed
    )
    if not committed or not strict or not history.accesses:
        report.checks["serializability"] = "skipped"
        return
    groups = _collect_groups(history, committed)
    edges: Dict[str, Set[str]] = {label: set() for label in committed}
    samples: Dict[Tuple[str, str], Tuple[int, str]] = {}
    for a, b in _conflict_pairs(groups):
        for src, dst in ((a, b), (b, a)):
            if src.first < dst.last:
                edges[src.txn].add(dst.txn)
                samples.setdefault((src.txn, dst.txn), (
                    dst.last,
                    f"{src.kind}({src.key}) -> {dst.kind}({dst.key})",
                ))
    cycle = _find_cycle(edges)
    if cycle is None:
        report.checks["serializability"] = "ok"
        return
    report.checks["serializability"] = "violated"
    follow = cycle[1] if len(cycle) > 1 else cycle[0]
    first = samples.get((cycle[0], follow), (0, ""))
    report.violations.append(Violation(
        "serializability", cycle[0], first[0],
        "precedence cycle " + " -> ".join(cycle + [cycle[0]])
        + (f" (e.g. {first[1]})" if first[1] else ""),
    ))


def _find_cycle(edges: Dict[str, Set[str]]) -> Optional[List[str]]:
    """Iterative DFS cycle search over the precedence graph."""
    visited: Set[str] = set()
    for start in sorted(edges):
        if start in visited:
            continue
        path: List[str] = [start]
        on_path: Set[str] = {start}
        stack: List[List[str]] = [sorted(edges.get(start, ()))]
        while stack:
            frame = stack[-1]
            if not frame:
                visited.add(path[-1])
                stack.pop()
                on_path.discard(path.pop())
                continue
            nxt = frame.pop(0)
            if nxt in on_path:
                return path[path.index(nxt):]
            if nxt in visited:
                continue
            path.append(nxt)
            on_path.add(nxt)
            stack.append(sorted(edges.get(nxt, ())))
    return None
