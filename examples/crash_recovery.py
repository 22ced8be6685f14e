#!/usr/bin/env python3
"""Crash recovery: write-ahead logging, checkpoints, winners and losers.

ACID's D: the database keeps a logical write-ahead log; a checkpoint plus
the log reconstructs exactly the committed state -- committed work
survives the crash, in-flight work vanishes.

The scenario:

1. load a small library and take a checkpoint;
2. transaction A lends a book and COMMITS;
3. transaction B deletes a book and ABORTS;
4. transaction C renames a topic and is still running when the
   system "crashes" (we keep only the checkpoint + serialized log bytes);
5. recovery rebuilds the document: A's lend is there, B's book is back,
   C's rename never happened.

Run:  python examples/crash_recovery.py
"""

from repro import Database
from repro.txn.wal import WriteAheadLog, recover, take_checkpoint

LIBRARY = (
    "topics",
    [("topic", {"id": "t0"}, [
        ("book", {"id": "b0"}, [
            ("title", ["Transaction Processing"]),
            ("history", []),
        ]),
        ("book", {"id": "b1"}, [("title", ["The Benchmark Handbook"])]),
    ])],
)


def main() -> None:
    db = Database(protocol="taDOM3+", lock_depth=4, root_element="bib",
                  enable_wal=True)
    db.load(LIBRARY)
    checkpoint = take_checkpoint(db.document, db.wal)
    print(f"checkpoint taken: {len(checkpoint.image)}-byte image "
          f"at lsn {checkpoint.lsn}")

    # A: commits a lend (clean session exit -> commit).
    with db.session("A-lender") as a:
        history = db.document.elements_by_name("history")[0]
        a.run(a.nodes.insert_tree(
            history, ("lend", {"person": "p1", "return": "2006-12-01"}, [])
        ))
    print("A committed: lend inserted")

    # B: deletes a book, then thinks better of it (explicit abort).
    with db.session("B-deleter") as b:
        book_b1 = db.document.element_by_id("b1")
        b.run(b.nodes.delete_subtree(book_b1))
        b.abort()
    print("B aborted: delete rolled back")

    # C: renames a topic and never commits (in flight at the crash) --
    # deliberately *not* a session: nothing may close this transaction.
    c = db.begin("C-renamer")
    topic = db.document.element_by_id("t0")
    db.run(db.nodes.rename_element(c, topic, "subject"))
    print(f"C in flight: topic currently named "
          f"<{db.document.name_of(topic)}>")

    # CRASH.  All that survives: the checkpoint and the log bytes.
    log_bytes = db.wal.to_bytes()
    print(f"\n*** crash ***  (surviving log: {len(log_bytes)} bytes, "
          f"{len(db.wal)} records)")

    recovered = recover(checkpoint, WriteAheadLog.from_bytes(log_bytes))
    print("\nrecovered state:")
    lends = recovered.elements_by_name("lend")
    print(f"  A's lend present        : {len(lends) == 1}")
    print(f"  B's book b1 present     : {recovered.element_by_id('b1') is not None}")
    topic_name = recovered.name_of(recovered.element_by_id("t0"))
    print(f"  C's rename discarded    : topic is <{topic_name}>")


if __name__ == "__main__":
    main()
