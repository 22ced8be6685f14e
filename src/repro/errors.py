"""Exception hierarchy for the repro XDBMS.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause.
Transaction-visible failures (deadlock aborts, explicit rollbacks) derive
from :class:`TransactionAborted` because they terminate the issuing
transaction rather than the whole system.

Orthogonally to the subsystem hierarchy, errors are classified by
**retryability** through two mixins:

* :class:`TransientError` -- the condition may clear on its own; retrying
  the same work (after a backoff) is a reasonable reaction.  Deadlock
  victims, lock-wait timeouts, and injected transient storage faults are
  transient: the paper's TaMix coordinator restarts such transactions.
* :class:`PermanentError` -- retrying the identical call cannot succeed
  (configuration mistakes, API misuse, exhausted retry budgets, hard
  storage failures).  Callers should surface these, not loop on them.

Errors carrying neither mixin (notably the :class:`StorageError` base
used by the WAL codec for torn log images) make no retryability promise;
:func:`is_transient`/:func:`is_permanent` both answer ``False`` for them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class TransientError(Exception):
    """Mixin: the failure may clear; retrying after a backoff is sane.

    Not a :class:`ReproError` itself -- concrete classes mix it into
    their subsystem branch (``class LockTimeout(TransactionAborted,
    TransientError)``), so ``except ReproError`` still catches
    everything while ``except TransientError`` selects the retryable
    subset.
    """


class PermanentError(Exception):
    """Mixin: retrying the identical call cannot succeed."""


def is_transient(error: BaseException) -> bool:
    """Is ``error`` classified as retryable?"""
    return isinstance(error, TransientError)


def is_permanent(error: BaseException) -> bool:
    """Is ``error`` classified as not-retryable?"""
    return isinstance(error, PermanentError)


class SplidError(ReproError, PermanentError):
    """Malformed SPLID label or impossible label operation."""


class StorageError(ReproError):
    """Low-level storage failure (page, B-tree, or container invariant).

    The base class makes no retryability promise -- the WAL/checkpoint
    codecs raise it for torn images (see :mod:`repro.verify.faults`),
    where "retry" is not a meaningful reaction.  The chaos engine's
    injected faults use the classified subtypes below.
    """


class TransientStorageError(StorageError, TransientError):
    """A storage access failed but may succeed when retried.

    Raised by the chaos engine (:mod:`repro.chaos`) for injected
    transient page-I/O faults, including a transient fault that
    persisted past the storage retry budget -- the *transaction* can
    still be restarted even when the single access could not be.
    """


class PermanentStorageError(StorageError, PermanentError):
    """A storage access failed and retrying cannot help (hard fault)."""


class PageOverflowError(StorageError):
    """A record does not fit a page even after a split."""


class DocumentError(ReproError, PermanentError):
    """Structural error in a taDOM document (unknown node, bad kind, ...)."""


class NodeNotFound(DocumentError):
    """The addressed node does not exist (anymore) in the document."""


class VocabularyError(StorageError, PermanentError):
    """Unknown vocabulary surrogate or exhausted surrogate space."""


class LockError(ReproError, PermanentError):
    """Lock-manager protocol violation (not a lock conflict)."""


class UnknownProtocolError(LockError):
    """The requested lock protocol name is not registered."""


class TransactionError(ReproError):
    """Misuse of the transaction API (e.g. operating on a finished txn)."""


class RollbackError(TransactionError, PermanentError):
    """Rollback could not be completed (undo hit a non-retryable fault).

    :meth:`repro.txn.manager.TransactionManager.abort` retries undo
    entries that fail transiently; when an entry fails permanently (or
    exhausts the retry budget) it raises this instead of returning with
    a half-rolled-back document.  The transaction stays ACTIVE and keeps
    its locks, so the damaged subtree remains isolated until recovery.
    """


class TransactionAborted(TransactionError):
    """The transaction has been aborted and must not issue further work.

    Subclasses carry the abort *reason* so callers can branch on the
    cause without string matching: :class:`DeadlockAbort` (victim
    choice) and :class:`LockTimeout` (lock-wait timeout).  ``reason`` is
    the same token the tracer records on the ``txn.abort`` event and the
    metrics registry counts under ``txn.aborted.<reason>``.
    """

    #: Abort-reason token ("rollback" for plain application aborts).
    reason = "rollback"


class DeadlockAbort(TransactionAborted, TransientError):
    """The transaction was chosen as a deadlock victim.

    The deadlock detector attaches the cycle it found so that TaMix can
    classify the deadlock (conversion deadlock vs. distinct-subtree
    deadlock), mirroring the paper's XTCdeadlockDetector analysis.
    Transient: restarting the victim is the standard reaction.
    """

    reason = "deadlock"

    def __init__(self, message: str = "deadlock victim", cycle: tuple = ()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class LockTimeout(TransactionAborted, TransientError):
    """The transaction waited longer than the lock-wait timeout.

    Long waits behind coarse locks (e.g. Node2PL's parent-level M locks)
    are aborted rather than stalling the system indefinitely; TaMix counts
    these among the aborted transactions.  Both drivers (the simulator
    and the live server) raise it with the contested resource
    attached.  Transient: the lock holder will eventually finish.
    """

    reason = "timeout"

    def __init__(
        self,
        message: str = "lock wait timed out",
        resource: "tuple | None" = None,
        timeout_ms: "float | None" = None,
    ):
        super().__init__(message)
        self.resource = resource
        self.timeout_ms = timeout_ms


class AdmissionRejected(TransactionError, TransientError):
    """Admission control shed the transaction under restart pressure.

    Transient by definition: the system is degrading gracefully and the
    same work can be resubmitted once pressure falls.
    """


class ShardUnavailableError(ReproError, TransientError):
    """A shard did not answer: dead process, dropped frame, or DOWN mark.

    Transient by definition: the shard plane's supervisor restarts dead
    shards from their persisted WAL and the router re-admits them after
    a heartbeat probe succeeds, so the same work can be resubmitted.
    Transactions that had in-flight state on the lost shard are shed --
    their locks and uncommitted effects died with the process -- and the
    TaMix retry loop restarts them like any other transient abort.
    ``reason`` is the abort token the metrics/report layers count under.
    """

    reason = "shard-unavailable"

    def __init__(self, message: str = "shard unavailable",
                 shard_id: "int | None" = None):
        super().__init__(message)
        self.shard_id = shard_id


class ConnectionLostError(ReproError, TransientError):
    """The peer hung up mid-call (connection reset or broken pipe).

    Transient: the request may simply be retried on a *fresh*
    connection -- the broken one is closed and evicted from its pool.
    Distinct from :class:`ProtocolError` (torn frames make no
    retryability promise) because a reset says nothing about the bytes
    that were exchanged, only that the transport died.
    """


class ProtocolError(ReproError):
    """Corrupt, truncated, or out-of-contract wire-protocol traffic.

    Mirrors the WAL torn-tail contract: the base class makes no
    retryability promise, because a torn frame says nothing about
    whether the *connection* is still usable.  Servers drop the
    connection on it; clients must not blindly retry on the same socket.
    """


class UnsupportedWireVersion(ProtocolError, PermanentError):
    """The peer speaks a wire-protocol version this side does not."""


class RemoteError(ReproError):
    """An error the server reported without a locally known class.

    Carries the remote exception class name (``code``) and the
    taxonomy the server attached; the transient/permanent subclasses
    below keep :func:`is_transient`/:func:`is_permanent` faithful even
    for codes this client version has never heard of.
    """

    def __init__(self, message: str, *, code: str = "RemoteError",
                 reason: str = ""):
        super().__init__(message)
        self.code = code
        self.reason = reason


class TransientRemoteError(RemoteError, TransientError):
    """A remote error the server classified as retryable."""


class PermanentRemoteError(RemoteError, PermanentError):
    """A remote error the server classified as not-retryable."""


class ChaosError(ReproError, PermanentError):
    """A fault schedule or chaos-engine configuration is invalid."""


class BenchmarkError(ReproError, PermanentError):
    """A TaMix benchmark was configured inconsistently."""
