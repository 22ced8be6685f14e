"""Order-preserving byte encoding and prefix compression for SPLIDs.

The document store keeps one B*-tree entry per node, keyed by the byte
representation of the node's SPLID (Section 3.2 / Figure 6 of the paper).
Two properties are required of the encoding:

1. **Order preservation** -- ``bytes(a) < bytes(b)`` iff ``a`` precedes
   ``b`` in document order, so a plain byte-comparing B-tree stores the
   document in left-most depth-first order.
2. **Prefix behaviour** -- the encoding of an ancestor is a byte prefix of
   the encodings of its descendants, which makes in-page *prefix
   compression* highly effective (the paper reports 2-3 bytes per stored
   SPLID on average).

Each division is encoded with a length-banded scheme in which longer
encodings start with strictly larger lead bytes, so concatenating the
per-division codes preserves tuple order:

========  ==================  =======================
band      division range      bytes
========  ==================  =======================
1         1 .. 0x7F           ``0vvvvvvv``
2         0x80 .. 0x407F      ``10vvvvvv vvvvvvvv``
3         0x4080 .. 2**29+... ``11vvvvvv`` + 3 bytes
========  ==================  =======================
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import SplidError
from repro.splid.splid import _INTERN, Splid, _intern

_BAND1_MAX = 0x7F
_BAND2_MAX = _BAND1_MAX + (1 << 14)          # 0x407F
_BAND3_MAX = _BAND2_MAX + (1 << 30)


def encode_division(value: int) -> bytes:
    """Encode one division value, order-preserving across bands."""
    if value < 1:
        raise SplidError(f"division values must be >= 1, got {value}")
    if value <= _BAND1_MAX:
        return bytes((value,))
    if value <= _BAND2_MAX:
        offset = value - _BAND1_MAX - 1
        return bytes((0x80 | (offset >> 8), offset & 0xFF))
    if value <= _BAND3_MAX:
        offset = value - _BAND2_MAX - 1
        return bytes(
            (
                0xC0 | (offset >> 24),
                (offset >> 16) & 0xFF,
                (offset >> 8) & 0xFF,
                offset & 0xFF,
            )
        )
    raise SplidError(f"division value {value} exceeds the encodable range")


def encode(splid: Splid) -> bytes:
    """Byte key for a SPLID (concatenated per-division codes).

    Computed once per instance and memoised on it.  The key of a
    canonical instance also enters the intern table, so :func:`decode`
    of it is a lookup.
    """
    key = splid._key
    if key is None:
        divs = splid._divisions
        key = b"".join(encode_division(d) for d in divs)
        splid._key = key
        if _INTERN.get(divs) is splid:
            _intern(key, splid)
    return key


def decode(data: bytes) -> Splid:
    """Inverse of :func:`encode`.

    A key found in the intern table is answered without decoding or
    validation: the codec is a bijection, and only the keys of labels
    that passed validation are ever entered.
    """
    if type(data) is not bytes:
        data = bytes(data)
    splid = _INTERN.get(data)
    if splid is None:
        splid = _splid_from_decoded(decode_divisions(data))
        if splid._key is None:
            splid._key = data
        _intern(data, splid)
    return splid


def _splid_from_decoded(divs: Tuple[int, ...]) -> Splid:
    """Interned Splid from decoded divisions.

    :func:`decode_divisions` refuses a zero band-1 byte and its longer
    bands start above 0x7F, so every division is >= 1; only the root and
    odd-tail invariants remain to check before taking the trusted
    constructor path.
    """
    if divs[0] != 1:
        raise SplidError(f"document root division must be 1, got {divs[0]}")
    if divs[-1] % 2 == 0:
        raise SplidError(f"a SPLID must end with an odd division, got {divs!r}")
    return Splid._from_divisions(divs)


def decode_divisions(data: bytes) -> Tuple[int, ...]:
    divisions: List[int] = []
    i = 0
    n = len(data)
    while i < n:
        lead = data[i]
        if lead <= _BAND1_MAX:
            if not lead:
                raise SplidError("division values must be >= 1, got 0")
            divisions.append(lead)
            i += 1
        elif lead < 0xC0:
            if i + 1 >= n:
                raise SplidError("truncated band-2 division")
            offset = ((lead & 0x3F) << 8) | data[i + 1]
            divisions.append(offset + _BAND1_MAX + 1)
            i += 2
        else:
            if i + 3 >= n:
                raise SplidError("truncated band-3 division")
            offset = (
                ((lead & 0x3F) << 24)
                | (data[i + 1] << 16)
                | (data[i + 2] << 8)
                | data[i + 3]
            )
            divisions.append(offset + _BAND2_MAX + 1)
            i += 4
    if not divisions:
        raise SplidError("empty SPLID encoding")
    return tuple(divisions)


def common_prefix_length(a: bytes, b: bytes) -> int:
    """Length of the shared byte prefix of two encoded keys."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def prefix_compress(keys: Sequence[bytes]) -> List[Tuple[int, bytes]]:
    """Front-code a sorted key sequence.

    Each key is stored as ``(shared, tail)`` where ``shared`` bytes are
    taken from the *previous* key.  This is the in-page compression the
    paper credits with reducing stored SPLIDs to 2-3 bytes on average.
    """
    compressed: List[Tuple[int, bytes]] = []
    previous = b""
    for key in keys:
        shared = common_prefix_length(previous, key)
        compressed.append((shared, key[shared:]))
        previous = key
    return compressed


def prefix_decompress(entries: Iterable[Tuple[int, bytes]]) -> List[bytes]:
    """Inverse of :func:`prefix_compress`."""
    keys: List[bytes] = []
    previous = b""
    for shared, tail in entries:
        if shared > len(previous):
            raise SplidError("corrupt front-coding: prefix longer than previous key")
        key = previous[:shared] + tail
        keys.append(key)
        previous = key
    return keys


def compressed_size(keys: Sequence[bytes]) -> int:
    """Total tail bytes after front-coding (prefix-length bytes excluded)."""
    return sum(len(tail) for _shared, tail in prefix_compress(keys))


def average_stored_bytes(keys: Sequence[bytes]) -> float:
    """Average stored bytes per key under front-coding (tail + 1 length byte).

    Used by the storage-statistics example to reproduce the paper's claim
    of 2-3 bytes per SPLID in document order.
    """
    if not keys:
        return 0.0
    total = sum(len(tail) + 1 for _shared, tail in prefix_compress(keys))
    return total / len(keys)
