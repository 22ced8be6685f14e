"""The wire protocol: length-prefixed binary frames for the lock server.

Layout of one frame on the wire::

    u32 big-endian payload length  |  u8 opcode  |  body bytes

The body is a single value in the tagged binary encoding below -- by
convention a tuple, so a frame is ``(opcode, *fields)``.  The codec
covers exactly the types that cross the session API: ``None``, bools,
ints, floats, strings, bytes, lists, tuples, dicts,
:class:`~repro.splid.Splid` labels, and
:class:`~repro.storage.record.NodeRecord` values.  Anything else is a
programming error and refused at encode time.  Values are dispatched on
their exact type; a subclass (``IntEnum``, a named tuple) is encoded as
its first matching base.  A non-empty list of ``(Splid, NodeRecord)``
pairs -- the ``read_subtree`` reply -- is packed under one tag.

Integrity mirrors the WAL torn-tail contract (see
:mod:`repro.verify.faults`): *every* truncated, overlong or malformed
image -- nesting beyond :data:`MAX_DEPTH` included -- raises
:class:`~repro.errors.ProtocolError`; a decoder that "mostly" reads a
torn frame would turn a dropped TCP segment into silent data corruption.

Version negotiation is a one-byte handshake: the client's HELLO carries
the highest version it speaks, the server answers WELCOME with the
version chosen (currently: exactly :data:`WIRE_VERSION`) or an ERROR
frame carrying :class:`~repro.errors.UnsupportedWireVersion`.  Version 2
added the packed pair tag; all other values encode as in version 1.

ERROR frames carry the PR 5 transient/permanent taxonomy::

    (code, taxonomy, reason, message)

``code`` is the server-side exception class name, ``taxonomy`` one of
``transient`` / ``permanent`` / ``unclassified``, ``reason`` the abort
token ("deadlock", "timeout", ...) when there is one.  The client
rebuilds a *typed* exception from the registry below, so retry loops
branch on ``except TransientError`` exactly as they do embedded.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Dict, Tuple, Type

from repro.errors import (
    AdmissionRejected,
    BenchmarkError,
    ChaosError,
    DeadlockAbort,
    DocumentError,
    LockError,
    LockTimeout,
    NodeNotFound,
    PermanentRemoteError,
    PermanentStorageError,
    ProtocolError,
    RemoteError,
    RollbackError,
    ShardUnavailableError,
    SplidError,
    StorageError,
    TransactionAborted,
    TransactionError,
    TransientRemoteError,
    TransientStorageError,
    UnknownProtocolError,
    UnsupportedWireVersion,
    is_permanent,
    is_transient,
)
from repro.query.parser import QueryError
from repro.splid import Splid
from repro.storage.record import NO_NAME, NodeKind, NodeRecord

#: The one wire-protocol version this build speaks.
WIRE_VERSION = 2

#: Refuse frames above this payload size (a torn length prefix must not
#: make the reader allocate gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Deepest container nesting either side accepts.  Session and shard
#: frames nest at most 4 containers deep, telemetry payloads 7; the bound
#: keeps a hostile frame from exhausting the decoder's stack.
MAX_DEPTH = 32


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

#: Connection management.
OP_HELLO = 0x01      # (version:int, client_name:str)
OP_WELCOME = 0x02    # (version:int, server_info:dict)
OP_PING = 0x03       # ()
OP_PONG = 0x04       # ()

#: Transaction lifecycle.
OP_BEGIN = 0x10      # (name:str, isolation:str)
OP_BEGUN = 0x11      # (txn_id:int)
OP_COMMIT = 0x12     # (txn_id:int)
OP_ABORT = 0x13      # (txn_id:int, reason:str)
OP_DONE = 0x14       # (cost_ms:float[, dropped_windows:int])
                     # the optional second field ends a SUBSCRIBE
                     # stream with its queue-overflow drop count

#: Work.
OP_CALL = 0x20       # (txn_id:int, op_name:str, args:tuple)
OP_QUERY = 0x21      # (txn_id:int, path:str)
OP_RESULT = 0x22     # (value, cost_ms:float)
OP_INFO = 0x30       # ()
OP_STATS = 0x31      # ()

#: Telemetry (PR 8).  TELEMETRY answers with a RESULT carrying the
#: windowed series payload; SUBSCRIBE asks the server to *stream*
#: ``max_windows`` WINDOW frames (one per sampler tick) followed by a
#: DONE -- the one request that is answered by more than one frame.
OP_TELEMETRY = 0x32  # ()
OP_SUBSCRIBE = 0x33  # (max_windows:int)
OP_WINDOW = 0x34     # (window:dict)  server -> client, streamed

#: Failure.
OP_ERROR = 0x60      # (code:str, taxonomy:str, reason:str, message:str)

OPCODE_NAMES = {
    OP_HELLO: "HELLO", OP_WELCOME: "WELCOME", OP_PING: "PING",
    OP_PONG: "PONG", OP_BEGIN: "BEGIN", OP_BEGUN: "BEGUN",
    OP_COMMIT: "COMMIT", OP_ABORT: "ABORT", OP_DONE: "DONE",
    OP_CALL: "CALL", OP_QUERY: "QUERY", OP_RESULT: "RESULT",
    OP_INFO: "INFO", OP_STATS: "STATS", OP_TELEMETRY: "TELEMETRY",
    OP_SUBSCRIBE: "SUBSCRIBE", OP_WINDOW: "WINDOW", OP_ERROR: "ERROR",
}


# ---------------------------------------------------------------------------
# tagged value codec
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SPLID = 0x0A
_T_RECORD = 0x0B
_T_PAIRS = 0x0C     # version 2: list of (Splid, NodeRecord), no inner tags

_FLOAT = struct.Struct(">d")
_KINDS = {int(kind): kind for kind in NodeKind}
#: ``NO_NAME`` as a varint.  Text, string and attribute-root records --
#: over half of those a ``read_subtree`` reply carries -- have no name, so
#: the decoder matches these three bytes before looping over a varint.
_NO_NAME_VARINT = b"\xff\xff\x03"


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _write_splid(out: bytearray, splid: Splid) -> None:
    """Division count, then one varint per division -- one
    ``bytes(divisions)`` when every division fits in 7 bits."""
    divisions = splid.divisions
    try:
        raw = bytes(divisions)
    except ValueError:              # a division above 0xFF
        raw = None
    if raw is not None and len(raw) < 0x80 and raw.isascii():
        out.append(len(raw))
        out += raw
        return
    _write_varint(out, len(divisions))
    for division in divisions:
        _write_varint(out, division)


def _write_record(out: bytearray, record: NodeRecord) -> None:
    """Kind byte, name-surrogate varint, content length and bytes."""
    surrogate = record.name_surrogate
    if not 0 <= surrogate <= NO_NAME:
        raise ProtocolError(f"node-name surrogate {surrogate} out of range")
    out.append(record.kind)
    _write_varint(out, surrogate)
    _write_varint(out, len(record.content))
    out += record.content


# -- encoder: one function per exact type, each (out, value, depth) --------


def _encode_int(out: bytearray, value: Any, depth: int) -> None:
    out.append(_T_INT)
    _write_varint(out, value << 1 if value >= 0 else (-value << 1) - 1)


def _encode_float(out: bytearray, value: Any, depth: int) -> None:
    out.append(_T_FLOAT)
    out += _FLOAT.pack(value)


def _encode_bytes(out: bytearray, value: Any, depth: int, tag: int = _T_BYTES) -> None:
    out.append(tag)
    _write_varint(out, len(value))
    out += value


def _encode_splid(out: bytearray, value: Any, depth: int) -> None:
    out.append(_T_SPLID)
    _write_splid(out, value)


def _encode_record(out: bytearray, value: Any, depth: int) -> None:
    out.append(_T_RECORD)
    _write_record(out, value)


def _encode_items(out: bytearray, tag: int, count: int, items: Any, depth: int) -> None:
    """A container: tag, ``count``, then every value ``items`` yields."""
    if depth >= MAX_DEPTH:
        raise ProtocolError(f"value nests deeper than {MAX_DEPTH} containers")
    out.append(tag)
    _write_varint(out, count)
    encoders = _ENCODERS
    for item in items:
        encoders.get(type(item), _encode_subclass)(out, item, depth + 1)


def _encode_pairs(out: bytearray, pairs: list) -> bool:
    """``pairs`` under the packed tag; False (``out`` partly written) at
    the first item that is not a ``(Splid, NodeRecord)`` tuple."""
    out.append(_T_PAIRS)
    _write_varint(out, len(pairs))
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        splid, record = pair
        if type(splid) is not Splid or type(record) is not NodeRecord:
            return False
        _write_splid(out, splid)
        _write_record(out, record)
    return True


def _encode_list(out: bytearray, value: Any, depth: int) -> None:
    start = len(out)
    if not (value and _encode_pairs(out, value)):
        del out[start:]
        _encode_items(out, _T_LIST, len(value), value, depth)


_ENCODERS = {
    type(None): lambda out, value, depth: out.append(_T_NONE),
    bool: lambda out, value, depth: out.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: _encode_float,
    str: lambda out, value, depth: _encode_bytes(out, value.encode("utf-8"), depth, _T_STR),
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    Splid: _encode_splid,
    NodeRecord: _encode_record,
    list: _encode_list,
    tuple: lambda out, value, depth: _encode_items(out, _T_TUPLE, len(value), value, depth),
    dict: lambda out, value, depth: _encode_items(
        out, _T_DICT, len(value), chain.from_iterable(value.items()), depth
    ),
}

#: Subclasses (``IntEnum``, ``str`` enums, named tuples, ...) take the
#: first base that matches, in the order of the version-1 encoder.
_BY_BASE = tuple(
    (base, _ENCODERS[base])
    for base in (int, float, str, bytes, bytearray, Splid, NodeRecord, list, tuple, dict)
)


def _encode_subclass(out: bytearray, value: Any, depth: int) -> None:
    for base, encode in _BY_BASE:
        if isinstance(value, base):
            return encode(out, value, depth)
    raise ProtocolError(f"type {type(value).__name__} is not wire-encodable")


# -- decoder: ``(data, pos)`` -> ``(value, next pos)`` ---------------------
# ``data`` is ``bytes`` (so slices are too) and every read is bounded by
# ``len(data)``.  A one-byte varint is read inline (``data[pos] if pos <
# len(data) else 0x80``); longer ones and the end of the frame go through
# ``_varint_at``.


def _varint_at(data: bytes, pos: int) -> Tuple[int, int]:
    shift = value = 0
    while pos < len(data):
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 70:
            raise ProtocolError("malformed varint (too long)")
    raise ProtocolError(f"torn frame: no byte at offset {pos}")


def _slice_at(data: bytes, pos: int) -> Tuple[bytes, int]:
    """A length-prefixed byte string."""
    size = data[pos] if pos < len(data) else 0x80
    if size < 0x80:
        pos += 1
    else:
        size, pos = _varint_at(data, pos)
    if pos + size > len(data):
        raise ProtocolError(
            f"torn frame: wanted {size} bytes at {pos}, {len(data) - pos} left"
        )
    return data[pos:pos + size], pos + size


def _splid_at(data: bytes, pos: int) -> Tuple[Splid, int]:
    count = data[pos] if pos < len(data) else 0x80
    chunk = data[pos + 1:pos + 1 + count]
    if 0 < count < 0x80 and len(chunk) == count and chunk.isascii():
        divisions = tuple(chunk)    # every division is one byte
        pos += 1 + count
    else:
        count, pos = _varint_at(data, pos)
        if not 0 < count <= 4096:
            raise ProtocolError(f"implausible SPLID division count {count}")
        divisions = []
        for _i in range(count):
            division, pos = _varint_at(data, pos)
            divisions.append(division)
        divisions = tuple(divisions)
    try:
        return Splid(divisions), pos
    except SplidError as exc:
        raise ProtocolError(f"malformed SPLID on the wire: {exc}") from None


def _record_at(data: bytes, pos: int) -> Tuple[NodeRecord, int]:
    kind = _KINDS.get(data[pos]) if pos < len(data) else None
    if kind is None:
        raise ProtocolError(f"torn frame or unknown node kind at offset {pos}")
    surrogate = data[pos + 1] if pos + 1 < len(data) else 0x80
    if surrogate < 0x80:
        pos += 2
    elif data[pos + 1:pos + 4] == _NO_NAME_VARINT:
        surrogate, pos = NO_NAME, pos + 4
    else:
        surrogate, pos = _varint_at(data, pos + 1)
        if surrogate > NO_NAME:
            raise ProtocolError(f"node-name surrogate {surrogate} out of range")
    content, pos = _slice_at(data, pos)
    return NodeRecord(kind, surrogate, content), pos


def _decode_at(data: bytes, pos: int, depth: int = 0) -> Tuple[Any, int]:
    """The value at ``pos``; ``depth`` counts the enclosing containers."""
    if pos >= len(data):
        raise ProtocolError(f"torn frame: no value tag at offset {pos}")
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        raw, pos = _slice_at(data, pos)
        try:
            return raw.decode("utf-8"), pos
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed string payload: {exc}") from None
    if tag == _T_INT:
        raw = data[pos] if pos < len(data) else 0x80
        if raw < 0x80:
            pos += 1
        else:
            raw, pos = _varint_at(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise ProtocolError(f"torn frame: float cut at offset {pos}")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _T_TUPLE or tag == _T_LIST or tag == _T_DICT:
        if depth >= MAX_DEPTH:
            raise ProtocolError(f"frame nests deeper than {MAX_DEPTH} containers")
        size = data[pos] if pos < len(data) else 0x80
        if size < 0x80:
            pos += 1
        else:
            size, pos = _varint_at(data, pos)
        items = []
        for _i in range(size * 2 if tag == _T_DICT else size):
            item, pos = _decode_at(data, pos, depth + 1)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        try:
            return dict(zip(items[::2], items[1::2])), pos
        except TypeError:
            raise ProtocolError("unhashable dict key on the wire") from None
    if tag == _T_SPLID:
        return _splid_at(data, pos)
    if tag == _T_PAIRS:
        count, pos = _varint_at(data, pos)
        pairs = []
        for _i in range(count):
            splid, pos = _splid_at(data, pos)
            record, pos = _record_at(data, pos)
            pairs.append((splid, record))
        return pairs, pos
    if tag == _T_BYTES:
        return _slice_at(data, pos)
    if tag == _T_RECORD:
        return _record_at(data, pos)
    if tag <= _T_FALSE:
        return (None, True, False)[tag], pos
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def encode_value(value: Any) -> bytes:
    """One value in the tagged encoding (without any frame header)."""
    out = bytearray()
    _ENCODERS.get(type(value), _encode_subclass)(out, value, 0)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; refuses trailing garbage."""
    data = bytes(data)
    value, pos = _decode_at(data, 0)
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

_LENGTH = struct.Struct(">I")


def encode_frame(opcode: int, *fields: Any) -> bytes:
    """One complete frame: length prefix, opcode byte, tuple body."""
    if not 0 <= opcode <= 0xFF:
        raise ProtocolError(f"opcode {opcode} out of range")
    out = bytearray(5)          # length placeholder + opcode
    out[4] = opcode
    _encode_items(out, _T_TUPLE, len(fields), fields, 0)
    payload = len(out) - 4
    if payload > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload {payload} exceeds limit")
    _LENGTH.pack_into(out, 0, payload)
    return bytes(out)


def decode_frame(data: bytes) -> Tuple[int, Tuple[Any, ...]]:
    """Decode one complete frame (length prefix included).

    Raises :class:`~repro.errors.ProtocolError` for *any* torn image:
    short header, short payload, trailing bytes, or a body that is not
    a tuple.
    """
    data = bytes(data)
    if len(data) < 5:
        raise ProtocolError(f"torn frame: {len(data)} bytes, header needs 5")
    (length,) = _LENGTH.unpack_from(data)
    if length < 1:
        raise ProtocolError("torn frame: zero-length payload")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload {length} exceeds limit")
    if len(data) != 4 + length:
        raise ProtocolError(
            f"torn frame: header promises {length} payload bytes, "
            f"got {len(data) - 4}"
        )
    body, pos = _decode_at(data, 5)
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after frame body")
    if type(body) is not tuple:
        raise ProtocolError(
            f"frame body must be a tuple, got {type(body).__name__}"
        )
    return data[4], body


def split_frame(buffer: bytes) -> Tuple[int, int]:
    """(payload_length, total_frame_length) once the header is complete.

    Returns ``(-1, -1)`` while fewer than 4 bytes are buffered.  Raises
    on implausible lengths so a corrupted stream fails fast.
    """
    if len(buffer) < 4:
        return -1, -1
    (length,) = _LENGTH.unpack(buffer[:4])
    if length < 1 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {length}")
    return length, 4 + length


# ---------------------------------------------------------------------------
# typed errors over the wire
# ---------------------------------------------------------------------------

#: Exception classes a server may name in an ERROR frame and the client
#: rebuilds typed.  Constructors must accept a single message argument.
ERROR_REGISTRY: Dict[str, Type[Exception]] = {
    cls.__name__: cls
    for cls in (
        AdmissionRejected,
        BenchmarkError,
        ChaosError,
        DeadlockAbort,
        DocumentError,
        LockError,
        LockTimeout,
        NodeNotFound,
        PermanentStorageError,
        ProtocolError,
        QueryError,
        RollbackError,
        ShardUnavailableError,
        StorageError,
        TransactionAborted,
        TransactionError,
        TransientStorageError,
        UnknownProtocolError,
        UnsupportedWireVersion,
    )
}


def taxonomy_of(error: BaseException) -> str:
    """The retryability class an ERROR frame advertises."""
    if is_transient(error):
        return "transient"
    if is_permanent(error):
        return "permanent"
    return "unclassified"


def encode_error(error: BaseException) -> bytes:
    """An ERROR frame describing ``error`` (code, taxonomy, reason, msg)."""
    return encode_frame(
        OP_ERROR,
        type(error).__name__,
        taxonomy_of(error),
        str(getattr(error, "reason", "") or ""),
        str(error),
    )


def decode_error(fields: Tuple[Any, ...]) -> Exception:
    """Rebuild a typed exception from an ERROR frame body."""
    if len(fields) != 4:
        raise ProtocolError(f"ERROR frame needs 4 fields, got {len(fields)}")
    code, taxonomy, reason, message = (str(field) for field in fields)
    cls = ERROR_REGISTRY.get(code)
    if cls is not None:
        error = cls(message)
    elif taxonomy == "transient":
        error = TransientRemoteError(message, code=code, reason=reason)
    elif taxonomy == "permanent":
        error = PermanentRemoteError(message, code=code, reason=reason)
    else:
        error = RemoteError(message, code=code, reason=reason)
    if reason and not getattr(error, "reason", None):
        error.reason = reason
    return error
