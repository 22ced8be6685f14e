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


def _lazy_exports(package: str, table: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``'s exports.

    ``table`` maps a module, relative to ``package`` (``".engine"``), to
    the names it exports; a name spelled like its module (``".wire"`` →
    ``wire``) is that submodule.  A name is imported on first use and
    then cached in the package's globals, so each lookup runs once.
    """
    import sys
    from importlib import import_module

    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    ".chaos": ("AdmissionPolicy", "ChaosEngine", "FaultRule", "FaultSchedule",
               "RetryPolicy", "load_schedule"),
    ".core.registry": ("ALL_PROTOCOLS", "get_protocol", "protocol_names"),
    ".database": ("Database",),
    ".locking.lock_manager": ("IsolationLevel",),
    ".net.client": ("ClientPool", "RemoteDatabase", "RemoteSession"),
    ".net.server": ("LockServer", "ServerConfig", "run_server"),
    ".obs": ("Observability",),
    ".query": ("QueryProcessor", "evaluate_raw", "parse_path"),
    ".session": ("Session",),
    ".splid": ("Splid", "SplidAllocator"),
})


def list_protocols() -> list:
    """Names of all registered lock protocols (the paper's contestants)."""
    from repro.core.registry import protocol_names

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
        from repro.database import Database

        protocol = url[len("embedded://"):].strip("/")
        if protocol:
            kwargs.setdefault("protocol", protocol)
        return Database(**kwargs)
    if url.startswith("tcp://"):
        rest = url[len("tcp://"):].strip("/")
        host, _sep, port = rest.partition(":")
        if port and not port.isdigit():
            raise ValueError(f"bad port in {url!r}")
        from repro.net.client import RemoteDatabase

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
