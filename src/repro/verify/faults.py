"""Crash-point fault injection for the write-ahead log.

The harness runs a scripted single-user workload against a WAL-enabled
database, snapshotting the committed document state at every commit
point.  It then simulates a crash at every log-prefix boundary -- which
covers the catalog of interesting injection points:

* **after BEGIN** -- the victim logged nothing but its BEGIN record;
* **mid-operation batch** -- some but not all of a transaction's
  operation records reached the log;
* **after the COMMIT append, before lock release** -- the write-ahead
  barrier: the transaction must be durable from this prefix on;
* **mid-checkpoint** -- a fuzzy checkpoint taken with a loser in flight
  (recovered via :func:`repro.txn.wal.recover_with_undo`), plus torn
  checkpoint images and single-bit flips that must fail loudly.

Additionally every *byte*-level truncation of the log image (a torn
tail) must surface as :class:`~repro.errors.StorageError`, never as a
codec exception, and recovery from the longest clean prefix must be
bit-identical to the committed-prefix reference.

The same byte cuts are then taken at the *file* level: the workload
writes its log through :class:`~repro.txn.wal.WalFile`, and reopening
the file cut at any byte must adopt the clean prefix, truncate the file
to that record boundary, recover to the reference, and keep appending.
"""

from __future__ import annotations

import bisect
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.database import Database
from repro.dom.document import Document
from repro.errors import StorageError
from repro.txn.wal import (
    LogKind,
    WalFile,
    WriteAheadLog,
    recover,
    recover_with_undo,
    take_checkpoint,
)

#: The scripted library document the workload mutates.
_LIBRARY = (
    "topics",
    [("topic", {"id": "t0"}, [
        ("book", {"id": "b0"}, [
            ("title", ["TP Concepts"]),
            ("history", [("lend", {"person": "p1"}, [])]),
        ]),
        ("book", {"id": "b1"}, [("title", ["Handbook"])]),
    ])],
)


def canonical_image(document) -> bytes:
    """Deterministic byte image of a document's logical state.

    Vocabulary surrogates may be numbered differently in a recovered
    instance (the log stores names, not surrogates), so the image
    resolves names to strings; everything else -- SPLIDs, node kinds,
    contents, in document order -- is exact, making two images
    bit-comparable."""
    from repro.storage.record import NO_NAME

    lines = []
    for splid, record in document.walk():
        name = ""
        if record.name_surrogate != NO_NAME:
            name = document.vocabulary.name_of(record.name_surrogate)
        content = record.text_content
        lines.append(
            f"{splid}|{int(record.kind)}|{name}|"
            f"{'' if content is None else content}"
        )
    return "\n".join(lines).encode("utf-8")


@dataclass(frozen=True)
class CrashPoint:
    """One simulated crash location."""

    lsn: int
    kind: str          # "begin" | "operation" | "commit" | "abort" | "baseline"
    description: str


@dataclass
class CrashReport:
    """Outcome of one fault-injection suite."""

    protocol: str
    points: List[CrashPoint] = field(default_factory=list)
    #: Scenario name -> "ok" / "failed".
    checks: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    torn_tails_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        checks = ", ".join(
            f"{name}={state}" for name, state in sorted(self.checks.items())
        )
        return (
            f"{status} protocol={self.protocol} "
            f"crash_points={len(self.points)} "
            f"torn_tails={self.torn_tails_checked} [{checks}]"
        )


def _make_db(protocol: str, lock_depth: int) -> Database:
    db = Database(
        protocol=protocol, lock_depth=lock_depth, root_element="bib",
        enable_wal=True,
    )
    db.load(_LIBRARY)
    return db


def _point_kind(record_kind: LogKind) -> str:
    if record_kind is LogKind.BEGIN:
        return "begin"
    if record_kind is LogKind.COMMIT:
        return "commit"
    if record_kind is LogKind.ABORT:
        return "abort"
    return "operation"


def _run_workload(
    db: Database, barrier: Callable[[], None] = lambda: None
) -> Dict[int, bytes]:
    """Committed inserts/updates/renames, an abort, an in-flight loser.

    ``barrier`` runs after every commit, where a durable log flushes.
    Returns the committed reference image at each commit LSN."""
    references: Dict[int, bytes] = {}

    t1 = db.begin("committer-1")
    history = db.document.elements_by_name("history")[0]
    db.run(db.nodes.insert_tree(t1, history, ("lend", {"person": "p2"}, [])))
    title = db.document.elements_by_name("title")[0]
    text = db.document.store.first_child(title)
    db.run(db.nodes.update_content(t1, text, "TP Concepts 2e"))
    db.commit(t1)
    barrier()
    references[db.wal.last_lsn] = canonical_image(db.document)

    # Two interleaved transactions on disjoint subtrees (shared ancestors
    # only carry compatible intention locks): one commits, one aborts, so
    # the log carries loser records *between* winner records.
    t2 = db.begin("committer-2")
    t3 = db.begin("aborter")
    db.run(db.nodes.insert_tree(
        t2, history, ("lend", {"person": "p3"}, [])
    ))
    book = db.document.element_by_id("b1")
    db.run(db.nodes.delete_subtree(t3, book))
    db.abort(t3)
    db.commit(t2)
    barrier()
    references[db.wal.last_lsn] = canonical_image(db.document)

    t4 = db.begin("committer-3")
    topic = db.document.element_by_id("t0")
    db.run(db.nodes.rename_element(t4, topic, "subject"))
    db.commit(t4)
    barrier()
    references[db.wal.last_lsn] = canonical_image(db.document)

    # In-flight at the crash: must never appear in any recovered state.
    t5 = db.begin("in-flight")
    db.run(db.nodes.insert_tree(
        t5, db.document.element_by_id("t0"),
        ("book", {"id": "b9"}, [("title", ["Phantom"])]),
    ))
    return references


def run_crash_suite(
    protocol: str = "taDOM3+", lock_depth: int = 4
) -> CrashReport:
    """Crash at every log boundary (and inside every record) and check
    that recovery reproduces exactly the committed prefix."""
    report = CrashReport(protocol=protocol)
    _check_prefix_points(report, protocol, lock_depth)
    _check_torn_tails(report, protocol, lock_depth)
    _check_wal_file(report, protocol, lock_depth)
    _check_fuzzy_checkpoint(report, protocol, lock_depth)
    _check_torn_checkpoint(report, protocol, lock_depth)
    return report


def _prepare(protocol: str, lock_depth: int):
    db = _make_db(protocol, lock_depth)
    base = take_checkpoint(db.document, db.wal)
    baseline = canonical_image(db.document)
    references = _run_workload(db)
    return db, base, baseline, references


def _reference_at(
    lsn: int, baseline: bytes, references: Dict[int, bytes]
) -> bytes:
    committed = [commit for commit in references if commit <= lsn]
    return references[max(committed)] if committed else baseline


def _check_prefix_points(report, protocol, lock_depth) -> None:
    db, base, baseline, references = _prepare(protocol, lock_depth)
    ok = True
    records = db.wal.records()
    for lsn in range(db.wal.last_lsn + 1):
        if lsn == 0:
            point = CrashPoint(0, "baseline", "crash before any append")
        else:
            record = records[lsn - 1]
            point = CrashPoint(
                lsn, _point_kind(record.kind),
                f"crash after {record.kind.name} of txn {record.txn_id}",
            )
        report.points.append(point)
        crashed_log = WriteAheadLog.from_bytes(db.wal.prefix(lsn))
        recovered = recover(base, crashed_log)
        expected = _reference_at(lsn, baseline, references)
        if canonical_image(recovered) != expected:
            ok = False
            report.failures.append(
                f"prefix-crash at lsn {lsn} ({point.kind}): recovered "
                f"document differs from the committed-prefix reference"
            )
    report.checks["prefix-crashes"] = "ok" if ok else "failed"


def _check_torn_tails(report, protocol, lock_depth) -> None:
    """Every byte-level truncation either decodes as a clean shorter log
    or raises StorageError; the clean part must still recover exactly."""
    db, base, baseline, references = _prepare(protocol, lock_depth)
    data = db.wal.to_bytes()
    boundaries = {
        len(db.wal.prefix(lsn)): lsn for lsn in range(db.wal.last_lsn + 1)
    }
    ok = True
    for cut in range(len(data) + 1):
        report.torn_tails_checked += 1
        try:
            crashed_log = WriteAheadLog.from_bytes(data[:cut])
        except StorageError:
            if cut in boundaries:
                ok = False
                report.failures.append(
                    f"torn tail at byte {cut}: clean record boundary "
                    f"rejected as truncated"
                )
            continue
        except Exception as exc:  # noqa: BLE001 - the regression we guard
            ok = False
            report.failures.append(
                f"torn tail at byte {cut}: codec leaked {type(exc).__name__}"
            )
            continue
        if cut not in boundaries:
            ok = False
            report.failures.append(
                f"torn tail at byte {cut}: mid-record truncation decoded "
                f"without error"
            )
            continue
        recovered = recover(base, crashed_log)
        expected = _reference_at(boundaries[cut], baseline, references)
        if canonical_image(recovered) != expected:
            ok = False
            report.failures.append(
                f"torn tail at byte {cut}: clean prefix recovered to a "
                f"state differing from the reference"
            )
    report.checks["torn-tails"] = "ok" if ok else "failed"


def _check_wal_file(report, protocol, lock_depth) -> None:
    """File-level crash points: the workload flushes through a
    :class:`WalFile` at each commit, then the file is cut at every byte
    (a kill inside the ``write``) and reopened."""
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-wal-file-") as tmp:
        path = str(Path(tmp) / "crash.wal")
        db = _make_db(protocol, lock_depth)
        base = take_checkpoint(db.document, db.wal)
        baseline = canonical_image(db.document)
        wal_file = WalFile.open(path)
        db.adopt_wal(wal_file.log)
        references = _run_workload(db, barrier=wal_file.flush)
        wal_file.close()
        data = Path(path).read_bytes()
        log = wal_file.log
        # The in-flight loser never reached a barrier: the file ends at
        # the last COMMIT.
        durable = max(references)
        if data != log.prefix(durable):
            failures.append(
                "wal-file: the file is not the log up to its last commit"
            )
        boundaries = [len(log.prefix(lsn)) for lsn in range(durable + 1)]
        for cut in range(len(data) + 1):
            Path(path).write_bytes(data[:cut])
            reopened = WalFile.open(path)
            lsn = bisect.bisect_right(boundaries, cut) - 1
            if reopened.log.to_bytes() != data[:boundaries[lsn]]:
                failures.append(
                    f"wal-file cut at byte {cut}: adopted log is not the "
                    f"clean prefix of {lsn} records"
                )
            if Path(path).stat().st_size != boundaries[lsn]:
                failures.append(
                    f"wal-file cut at byte {cut}: file not truncated to "
                    f"the record boundary at byte {boundaries[lsn]}"
                )
            recovered = recover(base, reopened.log)
            if canonical_image(recovered) != _reference_at(
                lsn, baseline, references
            ):
                failures.append(
                    f"wal-file cut at byte {cut}: recovered document "
                    f"differs from the committed-prefix reference"
                )
            # The file continues: one more committed transaction lands
            # after the boundary, not over it.
            txn_id = 1 + max(
                (record.txn_id for record in reopened.log.records()),
                default=0,
            )
            reopened.log.log_begin(txn_id)
            reopened.log.log_commit(txn_id)
            reopened.flush()
            reopened.close()
            if Path(path).read_bytes() != reopened.log.to_bytes():
                failures.append(
                    f"wal-file cut at byte {cut}: file differs from the "
                    f"log after a further commit"
                )
    report.failures.extend(failures)
    report.checks["wal-file"] = "failed" if failures else "ok"


def _check_fuzzy_checkpoint(report, protocol, lock_depth) -> None:
    """Crash mid-run with a checkpoint taken while a loser was in
    flight: recover_with_undo must roll its captured effects back."""
    db = _make_db(protocol, lock_depth)

    t1 = db.begin("winner-pre")
    history = db.document.elements_by_name("history")[0]
    db.run(db.nodes.insert_tree(t1, history, ("lend", {"person": "p4"}, [])))
    db.commit(t1)

    loser = db.begin("loser")
    title = db.document.elements_by_name("title")[0]
    text = db.document.store.first_child(title)
    db.run(db.nodes.update_content(loser, text, "LOSER VALUE"))

    # The fuzzy checkpoint: the loser's update is inside the image.
    checkpoint = take_checkpoint(db.document, db.wal)

    winner = db.begin("winner-post")
    db.run(db.nodes.insert_tree(
        winner, history, ("lend", {"person": "p5"}, [])
    ))
    db.commit(winner)

    recovered = recover_with_undo(checkpoint, db.wal)
    ok = True
    recovered_title = recovered.elements_by_name("title")[0]
    if recovered.text_of_element(recovered_title) != "TP Concepts":
        ok = False
        report.failures.append(
            "fuzzy checkpoint: loser effect survived recovery"
        )
    people = {
        recovered.attribute_value(lend, "person")
        for lend in recovered.elements_by_name("lend")
    }
    if not {"p4", "p5"} <= people:
        ok = False
        report.failures.append(
            "fuzzy checkpoint: committed winner effects missing after "
            "recovery"
        )
    # Aborting the loser in the live database converges both states.
    db.abort(loser)
    if canonical_image(recovered) != canonical_image(db.document):
        ok = False
        report.failures.append(
            "fuzzy checkpoint: recovered state differs from the live "
            "committed state"
        )
    report.checks["fuzzy-checkpoint"] = "ok" if ok else "failed"


def _damaged_images(image: bytes):
    """Every strict byte-prefix of ``image``, then every single-bit flip."""
    for cut in range(len(image)):
        yield f"cut at byte {cut}", image[:cut]
    for bit in range(8 * len(image)):
        flipped = bytearray(image)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


def _check_torn_checkpoint(report, protocol, lock_depth) -> None:
    """A crash *during* the checkpoint write leaves a torn image, and a
    bad sector a flipped bit; loading either must fail loudly (so
    recovery falls back to the previous one)."""
    db, _base, _baseline, _references = _prepare(protocol, lock_depth)
    image = take_checkpoint(db.document, db.wal).image
    ok = True
    for label, data in _damaged_images(image):
        try:
            Document.from_image(data)
        except StorageError:
            continue
        except Exception as exc:  # noqa: BLE001 - the regression we guard
            ok = False
            report.failures.append(
                f"torn checkpoint, {label}: codec leaked {type(exc).__name__}"
            )
        else:
            ok = False
            report.failures.append(
                f"torn checkpoint, {label}: damaged image decoded without "
                f"error"
            )
    # The intact image still round-trips.
    if canonical_image(Document.from_image(image)) != canonical_image(
        db.document
    ):
        ok = False
        report.failures.append("torn checkpoint: intact image mismatch")
    report.checks["torn-checkpoint"] = "ok" if ok else "failed"
