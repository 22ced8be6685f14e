"""Write-ahead logging and crash recovery.

The paper requires the XDBMS to "guarantee ACID properties" for every XDP
interface; atomicity comes from the undo log, isolation from the lock
protocols -- this module supplies durability:

* :class:`WriteAheadLog` -- an append-only, byte-serializable log of
  logical operation records (insert / delete / content / rename) framed
  by BEGIN/COMMIT/ABORT;
* :class:`WalFile` -- that log's on-disk twin: an append-only file that
  receives, at each commit barrier, only the records appended since the
  previous one, and that cuts a torn tail off when it is reopened;
* :func:`take_checkpoint` / :func:`restore_checkpoint` -- a physical
  snapshot of a document: the exact (SPLID, record) pairs plus the
  vocabulary, so recovered labels are bit-identical (re-parsing XML would
  re-allocate overflow labels and break logical redo);
* :func:`recover` -- checkpoint + log -> committed state: replay the
  operations of *winner* transactions in LSN order; losers (aborted or
  in-flight at the crash) are simply not redone.

The log is deliberately logical: records carry enough to redo (new state)
and to audit (old state), mirroring the classic ARIES-style split without
page-level physiology -- appropriate for the node-granular store.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dom.document import Document
from repro.errors import StorageError
from repro.splid import Splid, decode, encode
from repro.splid.allocator import DEFAULT_DIST
from repro.storage.record import NodeRecord


class LogKind(IntEnum):
    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    INSERT = 4      # payload: the logged nodes of a new subtree
    DELETE = 5      # payload: the logged nodes of the removed subtree
    CONTENT = 6     # payload: splid, old text, new text
    RENAME = 7      # payload: splid, old name, new name


@dataclass(frozen=True)
class LoggedNode:
    """One node in a logged subtree, *self-contained*.

    Names are stored as strings, never as vocabulary surrogates: names
    interned after the checkpoint would be unknown at recovery time.
    """

    splid: Splid
    kind: int                    # NodeKind value
    name: Optional[str] = None   # element/attribute tag name
    text: Optional[str] = None   # string-node content


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    kind: LogKind
    txn_id: int
    #: Subtree entries for INSERT/DELETE.
    entries: Tuple[LoggedNode, ...] = ()
    #: Target node for CONTENT/RENAME.
    target: Optional[Splid] = None
    old: str = ""
    new: str = ""


def _freeze_entries(document: Document, entries) -> Tuple[LoggedNode, ...]:
    """Convert (splid, NodeRecord) pairs into self-contained log nodes."""
    from repro.storage.record import NO_NAME

    frozen = []
    for splid, record in entries:
        name = None
        if record.name_surrogate != NO_NAME:
            name = document.vocabulary.name_of(record.name_surrogate)
        frozen.append(LoggedNode(
            splid, int(record.kind), name, record.text_content
        ))
    return tuple(frozen)


def _thaw_entries(
    document: Document, entries: Sequence[LoggedNode]
) -> List[Tuple[Splid, NodeRecord]]:
    """Rebuild (splid, NodeRecord) pairs against the recovering document,
    interning names as needed."""
    from repro.storage.record import NO_NAME, NodeKind

    thawed = []
    for node in entries:
        surrogate = NO_NAME
        if node.name is not None:
            surrogate = document.vocabulary.intern(node.name)
        content = b"" if node.text is None else node.text.encode("utf-8")
        thawed.append(
            (node.splid, NodeRecord(NodeKind(node.kind), surrogate, content))
        )
    return thawed


class WriteAheadLog:
    """Append-only log with byte serialization.

    Operation payloads are logged through :meth:`log_insert` /
    :meth:`log_delete` with the owning document, so name surrogates are
    resolved to strings on the way in.
    """

    def __init__(self):
        self._records: List[LogRecord] = []
        #: Cheap counters for the metrics registry (see
        #: :meth:`collect_metrics`): total appends, appends per record
        #: kind, and "flushes" -- the write-ahead barriers taken, one per
        #: COMMIT record.  The log itself never touches a file; a
        #: :class:`WalFile` bound to it does the write at that barrier
        #: and counts the bytes.
        self.appends: int = 0
        self.flushes: int = 0
        self.appends_by_kind: Dict[LogKind, int] = {}

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._records)

    @property
    def last_lsn(self) -> int:
        return len(self._records)

    # -- appends -------------------------------------------------------------

    def _append(self, kind: LogKind, txn_id: int, **fields) -> LogRecord:
        record = LogRecord(len(self._records) + 1, kind, txn_id, **fields)
        self._records.append(record)
        self._count(kind)
        return record

    def _count(self, kind: LogKind) -> None:
        self.appends += 1
        self.appends_by_kind[kind] = self.appends_by_kind.get(kind, 0) + 1

    def log_begin(self, txn_id: int) -> LogRecord:
        return self._append(LogKind.BEGIN, txn_id)

    def log_commit(self, txn_id: int) -> LogRecord:
        record = self._append(LogKind.COMMIT, txn_id)
        # Write-ahead barrier: a commit record must be durable before the
        # transaction's locks are released.
        self.flushes += 1
        return record

    def log_abort(self, txn_id: int) -> LogRecord:
        return self._append(LogKind.ABORT, txn_id)

    def log_insert(
        self,
        txn_id: int,
        entries: Sequence[Tuple[Splid, NodeRecord]],
        document: Document,
    ) -> LogRecord:
        return self._append(
            LogKind.INSERT, txn_id, entries=_freeze_entries(document, entries)
        )

    def log_delete(
        self,
        txn_id: int,
        entries: Sequence[Tuple[Splid, NodeRecord]],
        document: Document,
    ) -> LogRecord:
        return self._append(
            LogKind.DELETE, txn_id, entries=_freeze_entries(document, entries)
        )

    def log_content(
        self, txn_id: int, target: Splid, old: str, new: str
    ) -> LogRecord:
        return self._append(
            LogKind.CONTENT, txn_id, target=target, old=old, new=new
        )

    def log_rename(
        self, txn_id: int, target: Splid, old: str, new: str
    ) -> LogRecord:
        return self._append(
            LogKind.RENAME, txn_id, target=target, old=old, new=new
        )

    # -- metrics -------------------------------------------------------------

    def collect_metrics(self, registry) -> None:
        """Snapshot-time collector for a :class:`MetricsRegistry`."""
        registry.gauge("wal.appends").set(self.appends)
        registry.gauge("wal.flushes").set(self.flushes)
        registry.gauge("wal.last_lsn").set(self.last_lsn)
        for kind, count in self.appends_by_kind.items():
            registry.gauge(f"wal.records.{kind.name.lower()}").set(count)

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the whole log (the 'disk' image)."""
        return _serialize(self._records)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        log, clean = cls.clean_prefix(data)
        if clean != len(data):
            raise StorageError(f"truncated log record at byte {clean}")
        return log

    @classmethod
    def clean_prefix(cls, data: bytes) -> Tuple["WriteAheadLog", int]:
        """The longest run of whole records ``data`` starts with, and its
        length in bytes.

        A crash inside an append leaves a strict byte-prefix of the last
        record.  The codec detects that by length alone (every cut inside
        a record raises :class:`StorageError`), so everything before the
        returned offset is intact and everything after it is the torn
        tail.
        """
        log = cls()
        stream = io.BytesIO(data)
        clean = 0
        while True:
            try:
                record = _read_record(stream, len(log._records) + 1)
            except StorageError:
                break
            if record is None:
                break
            clean = stream.tell()
            log._records.append(record)
            # Rebuild the metrics counters the byte image does not carry;
            # otherwise a recovered log reports appends == 0 and the
            # post-recovery ``wal.*`` gauges lie.
            log._count(record.kind)
            if record.kind is LogKind.COMMIT:
                log.flushes += 1
        return log, clean

    def prefix(self, last_lsn: int) -> bytes:
        """Byte image of the log truncated after ``last_lsn``.

        This is the 'disk' a crash at LSN boundary ``last_lsn`` leaves
        behind: every record with ``lsn <= last_lsn``, nothing after.
        Used by the fault-injection harness to simulate crashes between
        appends.
        """
        return _serialize(self._records[:last_lsn])


class WalFile:
    """The on-disk twin of a :class:`WriteAheadLog`: one append-only file.

    The file always holds a byte-prefix of ``log.to_bytes()``, and after
    :meth:`flush` the whole of it.  A flush serialises only the records
    appended since the previous one and hands them to the OS in one
    ``write(2)`` on an unbuffered handle, so a commit costs its own
    records, not the history.  There is no ``fsync``: the file survives
    the death of the process (SIGKILL), not of the machine.

    Without an atomic rename a kill inside the write can leave part of a
    record at the end of the file; :meth:`open` cuts that off.
    """

    def __init__(self, log: WriteAheadLog, handle: io.FileIO):
        self.log = log
        self._handle = handle
        #: Records of ``log`` already in the file.
        self._flushed = len(log)
        #: What this handle wrote, counted at the write.
        self.bytes_written = 0
        self.writes = 0

    @classmethod
    def open(cls, path: str) -> "WalFile":
        """Open ``path`` for appending, creating it if it is missing.

        An existing file's longest clean record prefix becomes the live
        :attr:`log`; the file is truncated to that record boundary and
        later flushes continue after it.  Only a missing file is a cold
        start: one that exists but cannot be read or written raises
        :class:`StorageError`, because carrying on would overwrite
        committed history.
        """
        try:
            # An earlier format rewrote the whole image to this name
            # and renamed it; one left behind was never acknowledged to
            # a client, so it is dropped unread.
            Path(path + ".tmp").unlink(missing_ok=True)
            try:
                data = Path(path).read_bytes()
            except FileNotFoundError:
                data = b""
            log, clean = WriteAheadLog.clean_prefix(data)
            if clean != len(data):
                os.truncate(path, clean)
            handle = open(path, "ab", buffering=0)
        except OSError as exc:
            raise StorageError(f"cannot open WAL file {path}: {exc}") from exc
        return cls(log, handle)

    def flush(self) -> None:
        """The commit barrier: append every record not yet in the file."""
        end = len(self.log)
        data = _serialize(self.log._records[self._flushed:end])
        view = memoryview(data)
        while view:  # a short write is legal; in practice one pass
            view = view[self._handle.write(view):]
            self.writes += 1
        self._flushed = end
        self.bytes_written += len(data)

    def close(self) -> None:
        self._handle.close()


def _serialize(records: Sequence[LogRecord]) -> bytes:
    out = io.BytesIO()
    for record in records:
        _write_record(out, record)
    return out.getvalue()


def _write_str(out: io.BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    out.write(struct.pack(">I", len(raw)))
    out.write(raw)


def _read_str(stream: io.BytesIO) -> str:
    (length,) = struct.unpack(">I", _read_exact(stream, 4))
    return _read_exact(stream, length).decode("utf-8")


def _read_exact(stream: io.BytesIO, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise StorageError("truncated log record")
    return data


def _write_record(out: io.BytesIO, record: LogRecord) -> None:
    out.write(struct.pack(">BQ", record.kind, record.txn_id))
    out.write(struct.pack(">I", len(record.entries)))
    for node in record.entries:
        key = encode(node.splid)
        out.write(struct.pack(">HB", len(key), node.kind))
        out.write(key)
        _write_str(out, "" if node.name is None else "\x00" + node.name)
        _write_str(out, "" if node.text is None else "\x00" + node.text)
    target = b"" if record.target is None else encode(record.target)
    out.write(struct.pack(">H", len(target)))
    out.write(target)
    _write_str(out, record.old)
    _write_str(out, record.new)


def _read_optional_str(stream: io.BytesIO) -> Optional[str]:
    raw = _read_str(stream)
    return raw[1:] if raw.startswith("\x00") else None


def _read_record(stream: io.BytesIO, lsn: int) -> Optional[LogRecord]:
    header = stream.read(9)
    if not header:
        return None
    if len(header) != 9:
        raise StorageError("truncated log header")
    kind_value, txn_id = struct.unpack(">BQ", header)
    (entry_count,) = struct.unpack(">I", _read_exact(stream, 4))
    entries = []
    for _i in range(entry_count):
        key_len, node_kind = struct.unpack(">HB", _read_exact(stream, 3))
        splid = decode(_read_exact(stream, key_len))
        name = _read_optional_str(stream)
        text = _read_optional_str(stream)
        entries.append(LoggedNode(splid, node_kind, name, text))
    (target_len,) = struct.unpack(">H", _read_exact(stream, 2))
    target = decode(_read_exact(stream, target_len)) if target_len else None
    old = _read_str(stream)
    new = _read_str(stream)
    return LogRecord(
        lsn, LogKind(kind_value), txn_id,
        entries=tuple(entries), target=target, old=old, new=new,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A physical snapshot: exact labels, records, and the vocabulary."""

    root_name: str
    names: Tuple[str, ...]
    entries: Tuple[Tuple[bytes, bytes], ...]
    #: LSN up to which the checkpoint already reflects the log.
    lsn: int = 0
    #: Document name and allocator gap: without ``dist`` a restored
    #: document would label its next insert differently from the live one.
    name: str = "document"
    dist: int = DEFAULT_DIST


def take_checkpoint(document: Document, log: Optional[WriteAheadLog] = None) -> Checkpoint:
    return Checkpoint(
        root_name=document.name_of(document.root),
        names=tuple(
            document.vocabulary.name_of(i)
            for i in range(len(document.vocabulary))
        ),
        entries=tuple(
            (encode(splid), record.encode())
            for splid, record in document.walk()
        ),
        lsn=0 if log is None else log.last_lsn,
        name=document.name,
        dist=document.allocator.dist,
    )


def checkpoint_to_bytes(checkpoint: Checkpoint) -> bytes:
    """Serialize a checkpoint (the on-disk database image)."""
    out = io.BytesIO()
    _write_str(out, checkpoint.root_name)
    _write_str(out, checkpoint.name)
    out.write(struct.pack(">QI", checkpoint.lsn, checkpoint.dist))
    out.write(struct.pack(">I", len(checkpoint.names)))
    for name in checkpoint.names:
        _write_str(out, name)
    out.write(struct.pack(">I", len(checkpoint.entries)))
    for key, value in checkpoint.entries:
        out.write(struct.pack(">HH", len(key), len(value)))
        out.write(key)
        out.write(value)
    return out.getvalue()


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    """Inverse of :func:`checkpoint_to_bytes`."""
    stream = io.BytesIO(data)
    root_name = _read_str(stream)
    name = _read_str(stream)
    lsn, dist = struct.unpack(">QI", _read_exact(stream, 12))
    (name_count,) = struct.unpack(">I", _read_exact(stream, 4))
    names = tuple(_read_str(stream) for _i in range(name_count))
    (entry_count,) = struct.unpack(">I", _read_exact(stream, 4))
    entries = []
    for _i in range(entry_count):
        key_len, value_len = struct.unpack(">HH", _read_exact(stream, 4))
        entries.append(
            (_read_exact(stream, key_len), _read_exact(stream, value_len))
        )
    return Checkpoint(root_name, names, tuple(entries), lsn, name, dist)


def restore_checkpoint(checkpoint: Checkpoint) -> Document:
    document = Document(
        name=checkpoint.name, root_element=checkpoint.root_name,
        dist=checkpoint.dist,
    )
    for name in checkpoint.names:
        document.vocabulary.intern(name)
    # Wipe the implicit root entry, then restore the exact image.
    document.element_index.remove(checkpoint.root_name, document.root)
    document.store.delete(document.root)
    entries = [
        (decode(key), NodeRecord.decode(value))
        for key, value in checkpoint.entries
    ]
    for splid, record in entries:
        document.store.put(splid, record)
    document._reindex(entries)  # rebuild element + ID indexes
    return document


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def winners_of(log: WriteAheadLog) -> Set[int]:
    """Transactions with a COMMIT record (everything else is a loser)."""
    return {
        record.txn_id for record in log.records()
        if record.kind is LogKind.COMMIT
    }


def recover(checkpoint: Checkpoint, log: WriteAheadLog) -> Document:
    """Checkpoint + log -> the committed state at the crash.

    Redo-only recovery: the checkpoint is a transaction-consistent or
    action-consistent base; the operations of winner transactions after
    the checkpoint LSN are replayed in log order.  Losers are skipped
    entirely (their effects are absent from the checkpoint by
    construction, or compensated by their recorded inverse operations --
    see :func:`recover_with_undo` for the fuzzy-checkpoint variant).
    """
    document = restore_checkpoint(checkpoint)
    winners = winners_of(log)
    for record in log.records():
        if record.lsn <= checkpoint.lsn:
            continue
        if record.txn_id not in winners:
            continue
        _redo(document, record)
    return document


def recover_with_undo(checkpoint: Checkpoint, log: WriteAheadLog) -> Document:
    """Fuzzy-checkpoint recovery: redo winners *and* undo losers.

    For checkpoints taken while transactions were in flight, loser
    operations recorded before the checkpoint may be reflected in it;
    this variant replays winners forward and then rolls losers back via
    the inverse of each of their logged operations, newest first.
    """
    document = restore_checkpoint(checkpoint)
    winners = winners_of(log)
    for record in log.records():
        if record.lsn <= checkpoint.lsn or record.txn_id not in winners:
            continue
        _redo(document, record)
    losers = [
        record for record in log.records()
        if record.txn_id not in winners and record.lsn <= checkpoint.lsn
    ]
    for record in reversed(losers):
        _undo(document, record)
    return document


def _redo(document: Document, record: LogRecord) -> None:
    if record.kind is LogKind.INSERT:
        document.restore_subtree(_thaw_entries(document, record.entries))
    elif record.kind is LogKind.DELETE:
        if record.entries and document.exists(record.entries[0].splid):
            document.delete_subtree(record.entries[0].splid)
    elif record.kind is LogKind.CONTENT:
        document.update_string(record.target, record.new)
    elif record.kind is LogKind.RENAME:
        document.rename_element(record.target, record.new)


def _undo(document: Document, record: LogRecord) -> None:
    if record.kind is LogKind.INSERT:
        if record.entries and document.exists(record.entries[0].splid):
            document.delete_subtree(record.entries[0].splid)
    elif record.kind is LogKind.DELETE:
        document.restore_subtree(_thaw_entries(document, record.entries))
    elif record.kind is LogKind.CONTENT:
        document.update_string(record.target, record.old)
    elif record.kind is LogKind.RENAME:
        document.rename_element(record.target, record.old)
