"""Transactions: lifecycle, isolation levels, undo-based rollback."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "..locking.lock_manager": ("IsolationLevel",),
    ".manager": ("TransactionManager",),
    ".transaction": ("Transaction", "TransactionStats", "TxnState"),
})

__all__ = [
    "IsolationLevel",
    "Transaction",
    "TransactionManager",
    "TransactionStats",
    "TxnState",
]
