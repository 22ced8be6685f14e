"""The session-oriented public API.

A :class:`Session` is one transaction with its lifecycle managed by a
context manager::

    from repro import Database

    db = Database(protocol="taDOM3+", lock_depth=4, root_element="bib")
    with db.session("reader") as session:
        book = session.run(session.nodes.get_element_by_id("b42"))
        subtree = session.run(session.nodes.read_subtree(book))
    # clean exit -> committed; an exception -> rolled back and re-raised

``session.nodes`` is a transaction-bound view of the node manager: the
same operations as :class:`~repro.dom.node_manager.NodeManager`, minus
the explicit transaction argument.  ``session.run`` drives one operation
generator to completion (single-user mode); concurrent workloads still
hand the raw generators to a simulator or serve them over TCP.

``Database.begin/commit/abort`` remain available as thin delegates for
drivers that need explicit lifecycle control (the TaMix coordinator, the
concurrency examples).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Union

from repro.errors import (
    DeadlockAbort,
    LockTimeout,
    TransactionAborted,
    TransactionError,
)
from repro.locking.lock_manager import IsolationLevel
from repro.sched.simulator import run_sync
from repro.txn.transaction import Transaction, TxnState

#: Abort-reason tokens -> the typed exception the session raises when a
#: finished transaction is used again (same tokens the tracer records).
_ABORT_EXCEPTIONS = {
    "deadlock": DeadlockAbort,
    "timeout": LockTimeout,
}


class SessionNodes:
    """Transaction-bound view of the node manager.

    Attribute access returns the node-manager operation with the
    session's transaction pre-bound as the first argument, so callers
    write ``session.nodes.read_subtree(node)`` instead of threading the
    transaction handle through every call.  Bound methods are cached per
    session (repeated access returns the identical callable), and
    ``__dir__`` lists the operations for introspection/tab-completion.
    """

    __slots__ = ("_session", "_cache")

    def __init__(self, session: "Session"):
        self._session = session
        self._cache: Dict[str, object] = {}

    def __getattr__(self, name: str):
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        target = getattr(self._session.database.nodes, name)
        if not callable(target):
            return target
        txn = self._session.txn

        def bound(*args, **kwargs):
            return target(txn, *args, **kwargs)

        bound.__name__ = name
        self._cache[name] = bound
        return bound

    def __dir__(self):
        operations = [
            name for name in dir(self._session.database.nodes)
            if not name.startswith("_")
            and callable(getattr(self._session.database.nodes, name))
        ]
        return sorted(set(object.__dir__(self)) | set(operations))


class Session:
    """One transaction under context-manager lifecycle."""

    def __init__(
        self,
        database,
        name: str = "session",
        isolation: Optional[Union[IsolationLevel, str]] = None,
    ):
        self.database = database
        self.txn: Transaction = database.begin(name, isolation)
        self.nodes = SessionNodes(self)
        #: Simulated milliseconds consumed by ``run`` calls.
        self.elapsed_ms = 0.0

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self.txn.state is TxnState.ACTIVE:
            if exc_type is None:
                self.database.commit(self.txn)
            else:
                reason = getattr(exc, "reason", "rollback")
                self.database.abort(self.txn, reason=reason)
        return False  # never swallow the exception

    def commit(self) -> None:
        """Commit early; the context-manager exit becomes a no-op."""
        self.database.commit(self.txn)

    def abort(self) -> None:
        """Roll back early; the context-manager exit becomes a no-op."""
        self.database.abort(self.txn)

    # -- driving ------------------------------------------------------------

    def run(self, operation: Generator, *, with_cost: bool = False) -> Any:
        """Drive one node-manager operation to completion (single-user).

        Run-call contract: ``Database.run`` always returns ``(value,
        cost_ms)``; ``Session.run`` returns the value alone and
        accumulates the simulated cost in :attr:`elapsed_ms` -- pass
        ``with_cost=True`` for the ``(value, cost_ms)`` pair without
        changing sessions' default ergonomics.  (``RemoteSession.run``
        honours the same keyword, with the server-measured service time
        as the cost.)

        Using a finished session raises *typed*: the transaction's
        abort-reason token maps back to
        :class:`~repro.errors.DeadlockAbort` /
        :class:`~repro.errors.LockTimeout` (generic aborts raise
        :class:`~repro.errors.TransactionAborted`), so callers and retry
        policies can branch on the cause without string matching.
        """
        self._require_active()
        result, elapsed = run_sync(operation)
        self.elapsed_ms += elapsed
        if with_cost:
            return result, elapsed
        return result

    def _require_active(self) -> None:
        state = self.txn.state
        if state is TxnState.ACTIVE:
            return
        if state is TxnState.ABORTED:
            reason = self.txn.abort_reason or "rollback"
            exc_class = _ABORT_EXCEPTIONS.get(reason, TransactionAborted)
            error = exc_class(
                f"session transaction {self.txn} was aborted "
                f"(reason: {reason})"
            )
            error.reason = reason
            raise error
        raise TransactionError(
            f"session transaction {self.txn} is {state.value}"
        )

    def query(self, path: str) -> Generator:
        """An XPath evaluation for :meth:`run` (lock-guarded).

        ``session.run(session.query("/bib/topics"))`` works identically
        on embedded and remote sessions.
        """
        from repro.query import QueryProcessor

        return QueryProcessor(self.database.nodes).evaluate(self.txn, path)

    # -- introspection -------------------------------------------------------

    @property
    def metrics(self) -> Dict[str, object]:
        """Per-session counters (lock traffic, I/O, simulated time)."""
        stats = self.txn.stats
        return {
            "state": self.txn.state.value,
            "isolation": self.txn.isolation.value,
            "operations": stats.operations,
            "lock_requests": stats.lock_requests,
            "covered_skips": stats.covered_skips,
            "blocked_waits": stats.blocked_waits,
            "fanout_locks": stats.fanout_locks,
            "logical_reads": stats.logical_reads,
            "physical_reads": stats.physical_reads,
            "nodes_visited": stats.nodes_visited,
            "elapsed_ms": self.elapsed_ms,
        }

    def __repr__(self) -> str:
        return (
            f"<Session {self.txn.name} txn={self.txn.txn_id} "
            f"{self.txn.state.value}>"
        )
