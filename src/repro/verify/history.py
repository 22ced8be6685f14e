"""Rebuild a run's operation/lock history from its event trace.

The observability layer already records the lock pipeline and the
transaction lifecycle; with ``access_events`` enabled it also records one
``op.access`` event per settled meta request (emitted *after* the
request's locks were granted, so conflicting accesses appear in the
trace in the order the lock protocol serialized them) and a ``run.info``
manifest carrying the configuration.  This module parses that stream
back into typed records the oracle can check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.protocol import Access as AccessKind
from repro.core.protocol import EdgeRole, MetaOp, MetaRequest
from repro.errors import BenchmarkError
from repro.obs import (
    OP_ACCESS,
    RUN_INFO,
    TXN_ABORT,
    TXN_BEGIN,
    TXN_COMMIT,
    TraceEvent,
    load_jsonl,
)
from repro.splid import Splid


@dataclass(frozen=True)
class Access:
    """One logical data access, as the node manager performed it."""

    seq: int
    txn: str
    request: MetaRequest


@dataclass
class TxnRecord:
    """One transaction's lifecycle as seen in the trace."""

    label: str
    name: str = ""
    isolation: str = "repeatable"
    #: ``committed`` / ``aborted`` / ``in-flight`` (parked at the run
    #: horizon when the trace ended).
    outcome: str = "in-flight"
    begin_seq: int = 0
    end_seq: Optional[int] = None

    @property
    def committed(self) -> bool:
        return self.outcome == "committed"


def _request_from(data: Dict[str, object]) -> MetaRequest:
    """Invert :meth:`NodeManager._emit_access`'s payload."""
    role = data.get("role")
    return MetaRequest(
        op=MetaOp(str(data["op"])),
        target=Splid.parse(str(data["target"])),
        access=AccessKind(str(data["access"])),
        role=None if role is None else EdgeRole(str(role)),
        children=tuple(
            Splid.parse(str(child)) for child in data.get("children", ())
        ),
        affected=tuple(
            Splid.parse(str(node)) for node in data.get("affected", ())
        ),
        id_value=data.get("id_value"),  # type: ignore[arg-type]
    )


@dataclass
class RunHistory:
    """The checkable history of one traced run."""

    events: List[TraceEvent]
    run_info: Optional[Dict[str, object]] = None
    transactions: Dict[str, TxnRecord] = None  # type: ignore[assignment]
    accesses: List[Access] = None  # type: ignore[assignment]

    @classmethod
    def from_events(cls, events: Sequence[TraceEvent]) -> "RunHistory":
        history = cls(events=list(events))
        history.transactions = {}
        history.accesses = []
        for event in history.events:
            if event.kind == RUN_INFO:
                history.run_info = dict(event.data)
            elif event.kind == TXN_BEGIN:
                history.transactions[event.txn] = TxnRecord(
                    label=event.txn,
                    name=str(event.data.get("name", "")),
                    isolation=str(event.data.get("isolation", "repeatable")),
                    begin_seq=event.seq,
                )
            elif event.kind in (TXN_COMMIT, TXN_ABORT):
                record = history.transactions.get(event.txn)
                if record is None:
                    record = TxnRecord(label=event.txn, begin_seq=event.seq)
                    history.transactions[event.txn] = record
                record.outcome = (
                    "committed" if event.kind == TXN_COMMIT else "aborted"
                )
                record.end_seq = event.seq
            elif event.kind == OP_ACCESS:
                history.accesses.append(
                    Access(event.seq, event.txn, _request_from(event.data))
                )
        return history

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "RunHistory":
        return cls.from_events(load_jsonl(path))

    # -- derived views -------------------------------------------------------

    def committed_transactions(self) -> List[TxnRecord]:
        return [t for t in self.transactions.values() if t.committed]

    def configuration(
        self,
        *,
        protocol: Optional[str] = None,
        lock_depth: Optional[int] = None,
        isolation: Optional[str] = None,
    ) -> Dict[str, object]:
        """Run configuration: explicit overrides beat the ``run.info``
        manifest; missing either is an error (the oracle cannot re-plan
        accesses without knowing protocol and depth)."""
        info = self.run_info or {}
        resolved = {
            "protocol": protocol if protocol is not None else info.get("protocol"),
            "lock_depth": (
                lock_depth if lock_depth is not None else info.get("lock_depth")
            ),
            "isolation": (
                isolation if isolation is not None else info.get("isolation")
            ),
        }
        missing = [key for key in ("protocol", "lock_depth")
                   if resolved[key] is None]
        if missing:
            raise BenchmarkError(
                "trace carries no run.info manifest; pass "
                + " and ".join(missing)
                + " explicitly (record with access_events=True to embed it)"
            )
        resolved["lock_depth"] = int(resolved["lock_depth"])  # type: ignore[arg-type]
        return resolved
