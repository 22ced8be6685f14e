"""The database facade: one document, one protocol, one lock manager.

This is the public entry point a downstream user starts from::

    from repro import Database

    db = Database(protocol="taDOM3+", lock_depth=4, root_element="bib")
    with db.session("reader") as session:
        book = session.run(session.nodes.get_element_by_id("b42"))
    # committed on clean exit, rolled back on exception

:meth:`Database.session` is the primary transaction API; ``begin`` /
``commit`` / ``abort`` remain as thin delegates for drivers that manage
lifecycles themselves.  ``Database.run`` drives an operation generator
synchronously (single-user convenience).  Concurrent workloads hand the
generators to a :class:`~repro.sched.simulator.Simulator` (see
:mod:`repro.tamix`) or serve them over TCP (:mod:`repro.net.server`).

Observability: pass ``observability=True`` (or a configured
:class:`~repro.obs.Observability`) to record a structured event trace;
``Database.metrics()`` snapshots the metrics registry all components
publish into.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple, Union

from repro.core.protocol import LockProtocol
from repro.core.registry import get_protocol
from repro.dom.builder import Spec, build_children
from repro.dom.document import Document
from repro.dom.node_manager import NodeManager
from repro.errors import LockError
from repro.locking.lock_manager import IsolationLevel, LockManager
from repro.obs import Observability
from repro.sched.costs import DEFAULT_COSTS, CostModel
from repro.sched.simulator import run_sync
from repro.session import Session
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


class Database:
    """An XTC-style single-document XML database."""

    def __init__(
        self,
        protocol: Union[str, LockProtocol] = "taDOM3+",
        *,
        lock_depth: int = 4,
        isolation: Union[IsolationLevel, str] = IsolationLevel.REPEATABLE,
        document: Optional[Document] = None,
        root_element: str = "root",
        buffer_pool_pages: int = 4096,
        costs: CostModel = DEFAULT_COSTS,
        wait_timeout_ms: Optional[float] = 10_000.0,
        enable_wal: bool = False,
        observability: Union[Observability, bool, None] = None,
    ):
        if isinstance(protocol, str):
            protocol = get_protocol(protocol)
        self.protocol = protocol
        self.lock_depth = lock_depth
        self.default_isolation = IsolationLevel.parse(isolation)
        if observability is None or observability is False:
            self.obs = Observability.disabled()
        elif observability is True:
            self.obs = Observability.enabled()
        else:
            self.obs = observability
        if document is None:
            from repro.storage.buffer import make_buffered_store

            document = Document(
                root_element=root_element,
                buffer=make_buffered_store(pool_size=buffer_pool_pages),
            )
        self.document = document
        self.document.buffer.bind_observability(self.obs)
        self.locks = LockManager(
            protocol,
            lock_depth=lock_depth,
            wait_timeout_ms=wait_timeout_ms,
            active_transactions=lambda: self.transactions.active_count,
            obs=self.obs,
        )
        self.wal = None
        if enable_wal:
            from repro.txn.wal import WriteAheadLog

            self.wal = WriteAheadLog()
            # Late-bound: the gauges must follow :meth:`adopt_wal`.
            self.obs.metrics.register_collector(
                lambda registry: self.wal.collect_metrics(registry)
            )
        self.transactions = TransactionManager(document, self.locks,
                                               wal=self.wal, obs=self.obs)
        self.nodes = NodeManager(document, self.locks, costs, wal=self.wal)

    def adopt_wal(self, log) -> None:
        """Continue ``log`` in place of the still-empty one built with
        the database: a durable shard appends to the history its WAL
        file holds.  Rebinds every component that writes the log."""
        self.wal = log
        self.transactions.wal = log
        self.nodes.wal = log

    # -- content loading -------------------------------------------------------

    def load(self, spec: Spec) -> None:
        """Bulk-load children below the document root (no locking)."""
        build_children(self.document, self.document.root, [spec])

    # -- transaction lifecycle ----------------------------------------------------

    def session(
        self,
        name: str = "session",
        isolation: Optional[Union[IsolationLevel, str]] = None,
    ) -> Session:
        """Open a transaction as a context manager.

        Commits on clean ``with`` exit, rolls back (and re-raises) on an
        exception.  See :class:`repro.session.Session`.
        """
        return Session(self, name, isolation)

    def begin(
        self,
        name: str = "txn",
        isolation: Optional[Union[IsolationLevel, str]] = None,
    ) -> Transaction:
        level = self.default_isolation if isolation is None else isolation
        level = IsolationLevel.parse(level)
        if level is IsolationLevel.SERIALIZABLE and not (
            self.protocol.supports_serializable
        ):
            # Footnote 1 of the paper: only the taDOM* group offers it.
            raise LockError(
                f"isolation level serializable is only offered by the "
                f"taDOM* group, not by {self.protocol.name}"
            )
        return self.transactions.begin(name, level)

    def commit(self, txn: Transaction) -> None:
        self.transactions.commit(txn)

    def abort(self, txn: Transaction, *, reason: str = "rollback") -> None:
        self.transactions.abort(txn, reason=reason)

    # -- single-user driving ---------------------------------------------------------

    def run(self, operation: Generator) -> Tuple[Any, float]:
        """Drive one node-manager operation to completion (single-user).

        Returns ``(result, simulated_ms)``.
        """
        return run_sync(operation)

    def set_clock(self, clock) -> None:
        """Bind all clocks (transactions, lock waits, trace timestamps)
        to e.g. a simulator."""
        self.transactions._clock = clock
        self.locks.clock = clock
        self.obs.bind_clock(clock)

    # -- persistence -------------------------------------------------------------------

    def save(self, path) -> int:
        """Write the document's page-exact image to ``path``.

        Returns the number of bytes written.  Exact SPLIDs, the
        vocabulary, all indexes, the page layout, the buffer pool's
        residency and its I/O counters survive the round trip
        (:meth:`Document.to_image`); locks, transactions and the WAL are
        not part of the image.
        """
        data = self.document.to_image()
        with open(path, "wb") as handle:
            handle.write(data)
        return len(data)

    @classmethod
    def load_file(cls, path, **kwargs) -> "Database":
        """Open a database image written by :meth:`save`.

        Keyword arguments (protocol, lock depth, ...) configure the new
        instance around the restored document.  A truncated or corrupted
        file raises :class:`~repro.errors.StorageError`.
        """
        with open(path, "rb") as handle:
            document = Document.from_image(handle.read())
        return cls(document=document, **kwargs)

    # -- statistics ---------------------------------------------------------------------

    def statistics(self) -> dict:
        stats = dict(self.locks.lock_statistics())
        stats.update(self.document.statistics())
        stats["committed"] = self.transactions.committed
        stats["aborted"] = self.transactions.aborted
        return stats

    def metrics(self) -> dict:
        """Snapshot of the metrics registry (all components collected)."""
        return self.obs.metrics.as_dict()

    @property
    def tracer(self):
        """The database's event tracer (the no-op tracer when disabled)."""
        return self.obs.tracer
