"""Locking substrate: lock table, deadlock detector, meta-sync manager."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".deadlock": ("DeadlockDetector", "DeadlockEvent"),
    ".lock_manager": ("AcquireReport", "IsolationLevel", "LockManager",
                      "WRITE_PRIVILEGES"),
    ".lock_table": ("GrantResult", "LockTable", "WaitTicket"),
})

__all__ = [
    "AcquireReport",
    "DeadlockDetector",
    "DeadlockEvent",
    "GrantResult",
    "IsolationLevel",
    "LockManager",
    "LockTable",
    "WRITE_PRIVILEGES",
    "WaitTicket",
]
