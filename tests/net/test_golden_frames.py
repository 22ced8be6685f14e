"""Golden frame corpus: the sha256 of one encoded frame per opcode
family, so a codec rewrite cannot silently change what crosses the wire.

``golden_frames.json`` was recorded from :func:`frames` below.  Every
entry must stay byte-identical across codec changes; an entry may only
move together with :data:`repro.net.wire.WIRE_VERSION`, and the commit
that moves it says which one and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import DeadlockAbort, LockTimeout
from repro.net import wire
from repro.shard import messages
from repro.splid import Splid
from repro.storage.record import NO_NAME, NodeKind, NodeRecord

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_frames.json").read_text(encoding="utf-8")
)


def _pairs():
    """A small ``read_subtree`` reply: ``(Splid, NodeRecord)`` pairs."""
    return [
        (Splid((1, 7, 3, 3)), NodeRecord(NodeKind.ELEMENT, 11)),
        (Splid((1, 7, 3, 3, 1)), NodeRecord(NodeKind.ATTRIBUTE_ROOT)),
        (Splid((1, 7, 3, 3, 1, 3)), NodeRecord(NodeKind.ATTRIBUTE, 3)),
        (Splid((1, 7, 3, 3, 1, 3, 1)),
         NodeRecord(NodeKind.STRING, NO_NAME, b"b0")),
        (Splid((1, 7, 3, 3, 300, 3)), NodeRecord(NodeKind.TEXT)),
    ]


def frames():
    """name -> encoded frame, built from fixed inputs only (the HELLO and
    WELCOME versions are literals, not :data:`wire.WIRE_VERSION`)."""
    event = {"kind": "lock.grant", "txn": "T7", "t": 12.5,
             "mode": "SR", "key": "1.3"}
    return {
        "hello": wire.encode_frame(wire.OP_HELLO, 1, "golden-client"),
        "welcome": wire.encode_frame(wire.OP_WELCOME, 1, {
            "protocol": "taDOM3+", "lock_depth": 4, "root": "bib",
            "nodes": 5321, "book_ids": ["b0", "b1"], "scale": 0.05,
        }),
        "begin": wire.encode_frame(wire.OP_BEGIN, "reader", "repeatable"),
        "done": wire.encode_frame(wire.OP_DONE, 1.5),
        "call_splid_args": wire.encode_frame(
            wire.OP_CALL, 7, "read_subtree", (Splid((1, 3, 5)),),
        ),
        "call_wide_splid_args": wire.encode_frame(
            wire.OP_CALL, 7, "get_child_nodes",
            (Splid((1, 3, 130, 1025, 65537)),),
        ),
        "result_splid_tuple": wire.encode_frame(
            wire.OP_RESULT,
            (Splid((1, 3)), Splid((1, 3, 3)), Splid((1, 5, 300, 7))),
            0.25,
        ),
        "result_pairs": wire.encode_frame(wire.OP_RESULT, _pairs(), 0.25),
        "error": wire.encode_error(LockTimeout("gave up after 5000 ms")),
        "shard_exec": messages.encode_exec(
            12.5, "T7", "reader", "repeatable", "read_subtree",
            (Splid((1, 3, 3)),),
        ),
        "shard_resume": messages.encode_resume(13.0, "T7"),
        "shard_cancel": messages.encode_cancel(
            14.0, "T7", "deadlock", "victim", ("T3", "T7"),
        ),
        "shard_commit": messages.encode_commit(15.0, "T7"),
        "shard_abort": messages.encode_abort(16.0, "T7", "timeout"),
        "shard_blockers": messages.encode_blockers(17.0, "T7"),
        "shard_stats": messages.encode_stats(18.0),
        "shard_shutdown": messages.encode_shutdown(),
        "shard_ping": messages.encode_ping(19.0),
        "shard_snapshot": messages.encode_snapshot(20.0),
        "shard_req": messages.encode_request(
            "s0:17", messages.encode_commit(15.0, "T7"),
        ),
        "shard_done": messages.encode_done(
            (Splid((1, 3)), Splid((1, 5))), 0.75, ["T3"], [event],
        ),
        "shard_done_empty": messages.encode_done(None, 0.0, [], []),
        "shard_done_pairs": messages.encode_done(_pairs(), 2.0, [], []),
        "shard_blocked": messages.encode_blocked(
            ["T3"], True, "node", "1.3.3", "X", 0.5, [], [event],
        ),
        "shard_exc": messages.encode_exc(
            DeadlockAbort("victim", cycle=("T3", "T7")), 0.25, ["T3"], [],
        ),
        "shard_info": messages.encode_info({
            "shard": 1, "locks": 42, "waits": -3, "big": 2**40,
            "neg": -(2**33), "ok": True, "down": False, "none": None,
            "ratio": 0.5, "blob": b"\x00\xff", "nested": {"a": [1, (2, 3)]},
        }),
    }


def test_corpus_names_match_the_golden_file():
    assert sorted(frames()) == sorted(
        name for name in GOLDEN if not name.startswith("_")
    )


@pytest.mark.parametrize("name", sorted(frames()))
def test_frame_bytes_match_golden_digest(name):
    frame = frames()[name]
    assert hashlib.sha256(frame).hexdigest() == GOLDEN[name]
