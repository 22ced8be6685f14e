"""Wire-codec tests: value/frame round-trips (including seeded fuzzing),
torn-frame detection, and the typed-error envelope."""

import random
import struct

import pytest

from repro.database import Database
from repro.errors import (
    AdmissionRejected,
    DeadlockAbort,
    LockTimeout,
    NodeNotFound,
    PermanentRemoteError,
    ProtocolError,
    RemoteError,
    TransientRemoteError,
    UnsupportedWireVersion,
)
from repro.net import wire
from repro.shard import messages
from repro.splid import Splid
from repro.storage.record import NodeKind, NodeRecord
from repro.tamix import load_bib


class TestValueRoundTrip:
    VALUES = [
        None, True, False,
        0, 1, -1, 63, 64, -64, -65, 2**40, -(2**40), 2**62,
        0.0, -0.0, 1.5, -273.15, 1e300,
        "", "book", "naïve – ünïcödé ✓",
        b"", b"\x00\xff" * 9,
        [], [1, "two", None], (), (1, (2, (3,))),
        {}, {"a": 1, "b": [True, None]}, {1: "one"},
        Splid((1,)), Splid((1, 3, 5, 127, 128, 255)),
        NodeRecord(NodeKind.ELEMENT, 3, b"title"),
        NodeRecord(NodeKind.TEXT, content=b"TP"),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_round_trip(self, value):
        encoded = wire.encode_value(value)
        decoded = wire.decode_value(encoded)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_trailing_garbage_rejected(self):
        encoded = wire.encode_value(42) + b"\x00"
        with pytest.raises(ProtocolError):
            wire.decode_value(encoded)

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            wire.encode_value(object())


def _random_value(rng, depth=0):
    choices = "int float str bytes none bool".split()
    if depth < 3:
        choices += ["list", "tuple", "dict", "splid"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randint(-(2**50), 2**50)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "str":
        return "".join(chr(rng.randint(32, 0x2FF))
                       for _i in range(rng.randint(0, 12)))
    if kind == "bytes":
        return bytes(rng.randint(0, 255) for _i in range(rng.randint(0, 12)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "splid":
        tail = tuple(rng.randint(1, 999) for _i in range(rng.randint(0, 4)))
        return Splid((1,) + tail + (rng.randint(0, 499) * 2 + 1,))
    if kind == "list":
        return [_random_value(rng, depth + 1)
                for _i in range(rng.randint(0, 4))]
    if kind == "tuple":
        return tuple(_random_value(rng, depth + 1)
                     for _i in range(rng.randint(0, 4)))
    return {
        rng.randint(0, 999): _random_value(rng, depth + 1)
        for _i in range(rng.randint(0, 4))
    }


class TestFrameFuzz:
    def test_seeded_frame_round_trips(self):
        rng = random.Random(2006)
        for _round in range(300):
            opcode = rng.randint(0, 255)
            fields = tuple(_random_value(rng)
                           for _i in range(rng.randint(0, 4)))
            frame = wire.encode_frame(opcode, *fields)
            got_op, got_fields = wire.decode_frame(frame)
            assert got_op == opcode
            assert got_fields == fields

    def test_every_truncation_is_a_torn_frame(self):
        frame = wire.encode_frame(
            wire.OP_CALL, 7, "read_subtree", (Splid((1, 3)),),
        )
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                wire.decode_frame(frame[:cut])

    def test_trailing_bytes_are_a_torn_frame(self):
        frame = wire.encode_frame(wire.OP_PING)
        with pytest.raises(ProtocolError):
            wire.decode_frame(frame + b"\x00")

    def test_corrupted_length_fails_fast(self):
        frame = bytearray(wire.encode_frame(wire.OP_PING))
        frame[0:4] = (0xFF, 0xFF, 0xFF, 0xFF)  # > MAX_FRAME_BYTES
        with pytest.raises(ProtocolError):
            wire.split_frame(bytes(frame))

    def test_split_frame_waits_for_header(self):
        assert wire.split_frame(b"") == (-1, -1)
        assert wire.split_frame(b"\x00\x00\x00") == (-1, -1)

    def test_split_frame_reports_lengths(self):
        frame = wire.encode_frame(wire.OP_PING)
        payload, total = wire.split_frame(frame + b"extra")
        assert total == len(frame)
        assert payload == len(frame) - 4

    def test_zero_length_payload_rejected(self):
        with pytest.raises(ProtocolError):
            wire.split_frame(b"\x00\x00\x00\x00rest")


def raw_frame(opcode, body):
    """A frame around hand-written body bytes (no encoder involved)."""
    return struct.pack(">I", len(body) + 1) + bytes((opcode,)) + body


#: Frames the decoder must refuse with ProtocolError, not any other error.
MALFORMED_BODIES = {
    # (dict(1): {[]: None},)
    "unhashable-dict-key": b"\x08\x01\x09\x01\x07\x00\x00",
    # (5000 nested one-item lists around None,)
    "deep-nesting": b"\x08\x01" + b"\x07\x01" * 5_000 + b"\x00",
    # (NodeRecord(ELEMENT, surrogate=0x10000, b""),)
    "surrogate-above-0xffff": b"\x08\x01\x0b\x01\x80\x80\x04\x00",
    # (Splid((0, 3)),): the root division must be 1
    "bad-splid": b"\x08\x01\x0a\x02\x00\x03",
    # (NodeRecord(kind=9),)
    "unknown-node-kind": b"\x08\x01\x0b\x09\x00\x00",
    # the packed pair tag cut inside its first record
    "torn-pair-list": b"\x08\x01\x0c\x01\x01\x01\x01",
}


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
    def test_decoder_raises_protocol_error(self, name):
        with pytest.raises(ProtocolError):
            wire.decode_frame(raw_frame(wire.OP_CALL, MALFORMED_BODIES[name]))

    def test_nesting_bound_is_symmetric(self):
        value = None
        for _i in range(wire.MAX_DEPTH - 1):   # the frame body is one more
            value = [value]
        _op, (decoded,) = wire.decode_frame(wire.encode_frame(wire.OP_RESULT, value))
        assert decoded == value
        with pytest.raises(ProtocolError):
            wire.encode_frame(wire.OP_RESULT, [value])

    def test_out_of_range_surrogate_refused_at_encode(self):
        with pytest.raises(ProtocolError):
            wire.encode_value(NodeRecord(NodeKind.ELEMENT, 0x10000))


class TestPackedPairs:
    """The ``read_subtree`` reply -- a list of ``(Splid, NodeRecord)``
    pairs -- travels under the packed tag, and it pays off."""

    @pytest.fixture(scope="class")
    def subtree(self):
        info = load_bib(0.02)
        database = Database("taDOM3+", lock_depth=4, document=info.document)
        txn = database.begin("reader")
        book = info.document.element_by_id(info.book_ids[0])
        entries = database.run(database.nodes.read_subtree(txn, book))[0]
        database.commit(txn)
        return entries

    def test_shard_reply_uses_packed_tag_and_is_smaller(self, subtree):
        assert len(subtree) > 100
        frame = messages.encode_done(subtree, 1.0, [], [])
        # u32 length | opcode | TUPLE tag | field count | first field's tag
        assert frame[7] == wire._T_PAIRS
        packed = wire.encode_value(subtree)
        generic = wire.encode_value(tuple(subtree))   # tuples are never packed
        assert len(packed) <= 0.85 * len(generic)
        _op, fields = wire.decode_frame(frame)
        assert fields[0] == subtree
        assert all(type(pair) is tuple for pair in fields[0])

    def test_bytes_like_images_decode_to_bytes(self, subtree):
        frame = wire.encode_frame(wire.OP_RESULT, subtree, b"raw")
        for image in (bytearray(frame), memoryview(frame)):
            _op, (pairs, raw) = wire.decode_frame(image)
            assert pairs == subtree and type(raw) is bytes
            assert all(type(record.content) is bytes for _splid, record in pairs)


class TestErrorEnvelope:
    @pytest.mark.parametrize("error", [
        DeadlockAbort("victim of the cycle"),
        LockTimeout("gave up after 5000 ms"),
        AdmissionRejected("shed at pressure 9"),
        NodeNotFound("no element 'b404'"),
        UnsupportedWireVersion("want 1, got 99"),
    ], ids=lambda e: type(e).__name__)
    def test_registered_errors_round_trip_typed(self, error):
        opcode, fields = wire.decode_frame(wire.encode_error(error))
        assert opcode == wire.OP_ERROR
        rebuilt = wire.decode_error(fields)
        assert type(rebuilt) is type(error)
        assert str(error) in str(rebuilt)

    def test_taxonomy_travels_with_the_frame(self):
        _op, fields = wire.decode_frame(
            wire.encode_error(LockTimeout("slow"))
        )
        assert fields[1] == "transient"
        _op, fields = wire.decode_frame(
            wire.encode_error(UnsupportedWireVersion("no"))
        )
        assert fields[1] == "permanent"

    def test_unknown_code_falls_back_by_taxonomy(self):
        base = wire.decode_frame(wire.encode_error(LockTimeout("x")))[1]
        transient = wire.decode_error(("Exotic", "transient", "", "m"))
        assert isinstance(transient, TransientRemoteError)
        assert transient.code == "Exotic"
        permanent = wire.decode_error(("Exotic", "permanent", "", "m"))
        assert isinstance(permanent, PermanentRemoteError)
        unknown = wire.decode_error(("Exotic", "unclassified", "", "m"))
        assert type(unknown) is RemoteError
        assert len(base) == 4

    def test_reason_attribute_survives(self):
        error = DeadlockAbort("boom")
        error.reason = "deadlock"
        _op, fields = wire.decode_frame(wire.encode_error(error))
        rebuilt = wire.decode_error(fields)
        assert rebuilt.reason == "deadlock"

    def test_malformed_error_frame_rejected(self):
        with pytest.raises(ProtocolError):
            wire.decode_error(("only", "three", "fields"))
