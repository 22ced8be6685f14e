"""repro -- full reproduction of *Contest of XML Lock Protocols* (VLDB 2006).

The package rebuilds the paper's complete experimental system:

* an XTC-style native XML DBMS substrate -- SPLID labels, a B*-tree
  document store with element indexes, the taDOM storage model, and a
  lock-guarded DOM node manager (:mod:`repro.splid`, :mod:`repro.storage`,
  :mod:`repro.dom`);
* the 11 XML lock protocols behind a meta-synchronization interface
  (:mod:`repro.core`, :mod:`repro.locking`);
* transactions with the four isolation levels used in the paper
  (:mod:`repro.txn`);
* a deterministic discrete-event concurrency substrate
  (:mod:`repro.sched`);
* the TaMix benchmark framework with the bib document generator, the five
  transaction types, and the CLUSTER1/CLUSTER2 workloads
  (:mod:`repro.tamix`).

Quickstart (the session API)::

    from repro import Database

    db = Database(protocol="taDOM3+", lock_depth=4, root_element="bib")
    with db.session("reader") as session:
        book = session.run(session.nodes.get_element_by_id("b42"))
    # committed on clean exit, rolled back on exception

See ``examples/quickstart.py`` for a complete runnable tour.

Quickstart (served, over the wire)::

    import repro

    db = repro.connect("tcp://127.0.0.1:7420")   # `repro serve` is running
    with db.session("reader") as session:
        book = session.run(session.nodes.get_element_by_id("b42"))

The names exported here -- :class:`Database` / :class:`RemoteDatabase`
(and :func:`connect`, which picks one from a URL), :class:`Session` /
:class:`RemoteSession` (the same surface embedded and over the wire),
:class:`IsolationLevel`, :func:`list_protocols`, the full exception
taxonomy (including the :class:`TransientError`/:class:`PermanentError`
classification), the observability surface (:class:`Observability`),
and the robustness surface (:class:`ChaosEngine`,
:class:`FaultSchedule`, :class:`RetryPolicy`, :class:`AdmissionPolicy`;
see ``docs/robustness.md``) -- are the stable public API; everything
else (node-manager wiring, transaction-manager internals, lock-table
machinery) is subject to change between releases.  ``docs/api.md`` is
the reference.
"""

__version__ = "1.0.0"

from repro.chaos import (
    AdmissionPolicy,
    ChaosEngine,
    FaultRule,
    FaultSchedule,
    RetryPolicy,
    load_schedule,
)
from repro.core.registry import ALL_PROTOCOLS, get_protocol, protocol_names
from repro.database import Database
from repro.errors import (
    AdmissionRejected,
    DeadlockAbort,
    DocumentError,
    LockError,
    LockTimeout,
    NodeNotFound,
    PermanentError,
    PermanentRemoteError,
    PermanentStorageError,
    ProtocolError,
    RemoteError,
    ReproError,
    RollbackError,
    SplidError,
    StorageError,
    TransactionAborted,
    TransactionError,
    TransientError,
    TransientRemoteError,
    TransientStorageError,
    UnsupportedWireVersion,
    is_permanent,
    is_transient,
)
from repro.locking.lock_manager import IsolationLevel
from repro.net.client import ClientPool, RemoteDatabase, RemoteSession
from repro.net.server import LockServer, ServerConfig, run_server
from repro.obs import Observability
from repro.query import QueryProcessor, evaluate_raw, parse_path
from repro.session import Session
from repro.splid import Splid, SplidAllocator


def list_protocols() -> list:
    """Names of all registered lock protocols (the paper's contestants)."""
    return list(protocol_names())


def connect(url: str = "embedded://", **kwargs):
    """Open a database handle from a URL-ish spec.

    * ``embedded://`` -- an in-process :class:`Database`; an optional
      path names the lock protocol (``embedded://taDOM2``), and keyword
      arguments pass through to the :class:`Database` constructor.
    * ``tcp://host:port`` -- a :class:`RemoteDatabase` speaking the wire
      protocol to a ``repro serve`` instance; keyword arguments pass
      through (``pool_size``, ``retry``, ...).

    Both returns offer ``.session(name, isolation)`` with the same
    session surface, so swapping deployments is a one-line change.
    """
    if url.startswith("embedded://"):
        protocol = url[len("embedded://"):].strip("/")
        if protocol:
            kwargs.setdefault("protocol", protocol)
        return Database(**kwargs)
    if url.startswith("tcp://"):
        rest = url[len("tcp://"):].strip("/")
        host, _sep, port = rest.partition(":")
        if port and not port.isdigit():
            raise ValueError(f"bad port in {url!r}")
        return RemoteDatabase(
            host or "127.0.0.1", int(port) if port else 7420, **kwargs
        )
    raise ValueError(
        f"unsupported database URL {url!r} (want embedded:// or "
        f"tcp://host:port)"
    )


__all__ = [
    # entry points
    "Database",
    "RemoteDatabase",
    "connect",
    "Session",
    "RemoteSession",
    "ClientPool",
    "IsolationLevel",
    # server
    "LockServer",
    "ServerConfig",
    "run_server",
    # protocols
    "ALL_PROTOCOLS",
    "get_protocol",
    "list_protocols",
    "protocol_names",
    # queries
    "QueryProcessor",
    "evaluate_raw",
    "parse_path",
    # identifiers
    "Splid",
    "SplidAllocator",
    # observability
    "Observability",
    # robustness
    "AdmissionPolicy",
    "ChaosEngine",
    "FaultRule",
    "FaultSchedule",
    "RetryPolicy",
    "load_schedule",
    # error taxonomy
    "ReproError",
    "TransientError",
    "PermanentError",
    "is_permanent",
    "is_transient",
    "AdmissionRejected",
    "DeadlockAbort",
    "DocumentError",
    "LockError",
    "LockTimeout",
    "NodeNotFound",
    "PermanentRemoteError",
    "PermanentStorageError",
    "ProtocolError",
    "RemoteError",
    "RollbackError",
    "SplidError",
    "StorageError",
    "TransactionAborted",
    "TransactionError",
    "TransientRemoteError",
    "TransientStorageError",
    "UnsupportedWireVersion",
    "__version__",
]
