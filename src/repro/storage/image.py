"""Page-exact document image: the storage state of one document as bytes.

Building a document runs every node through the DOM -> allocator ->
B*-tree insert path; an image captures the *result* of that path --
every page with its chain pointers and entries, the buffer pool's
residency order and I/O counters, the three B*-trees' bookkeeping, the
vocabulary and the allocator gap -- so a loaded document is
indistinguishable from the one that was dumped: the same seeded run on
both produces the same page splits, buffer hits and simulated costs.

Not in the image: locks, transactions and the WAL (they belong to the
:class:`~repro.database.Database` around a document), tracer and chaos
bindings, and the process-wide SPLID intern table, which a loaded
document finds cold.

Layout (big-endian, no padding)::

    magic(4) | version(u16) | body_len(u64) | body | crc32(u32)

The CRC covers header and body.  Any truncated, bit-flipped or
wrong-version input raises :class:`~repro.errors.StorageError` -- the
WAL/checkpoint torn-tail contract.  Images are read from files, so the
format is plain ``struct`` framing, never ``pickle``.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate
from typing import List, NamedTuple, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.bptree import BPTree
from repro.storage.buffer import BufferManager, IoStatistics, PageFile
from repro.storage.page import ENTRY_OVERHEAD, PAGE_HEADER, Page
from repro.storage.vocabulary import Vocabulary

DOCUMENT_MAGIC = b"XDPI"
IMAGE_VERSION = 1

_HEADER = struct.Struct(">4sHQ")
_TRAILER = struct.Struct(">I")
#: Chain pointers are page ids or this sentinel for ``None``.
_NO_PAGE = -1


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def seal(magic: bytes, body: bytes) -> bytes:
    """Frame ``body`` with the magic/version/length header and CRC trailer."""
    framed = _HEADER.pack(magic, IMAGE_VERSION, len(body)) + body
    return framed + _TRAILER.pack(zlib.crc32(framed))


def unseal(magic: bytes, data: bytes) -> bytes:
    """The body of an image sealed with ``magic``; raises on any damage."""
    data = bytes(data)
    if len(data) < _HEADER.size + _TRAILER.size:
        raise StorageError("truncated image header")
    found, version, body_len = _HEADER.unpack_from(data)
    if found != magic:
        raise StorageError(f"not a {magic!r} image (magic {found!r})")
    if version != IMAGE_VERSION:
        raise StorageError(f"unsupported image version {version}")
    if len(data) != _HEADER.size + body_len + _TRAILER.size:
        raise StorageError(
            f"image is {len(data)} bytes, header announces "
            f"{_HEADER.size + body_len + _TRAILER.size}"
        )
    (crc,) = _TRAILER.unpack_from(data, len(data) - _TRAILER.size)
    if crc != zlib.crc32(memoryview(data)[:-_TRAILER.size]):
        raise StorageError("image checksum mismatch")
    return data[_HEADER.size:-_TRAILER.size]


class Writer:
    """Accumulates the struct-framed fields of an image body."""

    def __init__(self):
        self._chunks: List[bytes] = []

    def pack(self, fmt: str, *values) -> None:
        self._chunks.append(struct.pack(fmt, *values))

    def blob(self, data: bytes) -> None:
        self.pack(">Q", len(data))
        self._chunks.append(data)

    def text(self, value: str) -> None:
        self.blob(value.encode("utf-8"))

    def texts(self, values: Sequence[str]) -> None:
        self.pack(">I", len(values))
        for value in values:
            self.text(value)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Reads what :class:`Writer` wrote; every overrun is a StorageError."""

    def __init__(self, body: bytes):
        self._body = body
        self._pos = 0

    def unpack(self, fmt: str) -> tuple:
        try:
            values = struct.unpack_from(fmt, self._body, self._pos)
        except struct.error as exc:
            raise StorageError(f"malformed image body: {exc}") from None
        self._pos += struct.calcsize(fmt)
        return values

    def blob(self) -> bytes:
        (size,) = self.unpack(">Q")
        end = self._pos + size
        if end > len(self._body):
            raise StorageError("malformed image body: field overruns the image")
        data = self._body[self._pos:end]
        self._pos = end
        return data

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(f"malformed image body: {exc}") from None

    def texts(self) -> List[str]:
        (count,) = self.unpack(">I")
        return [self.text() for _ in range(count)]

    def finish(self) -> None:
        if self._pos != len(self._body):
            raise StorageError("malformed image body: trailing bytes")


# ---------------------------------------------------------------------------
# the document image
# ---------------------------------------------------------------------------

class DocumentParts(NamedTuple):
    """What :func:`load_document` rebuilds; ``Document`` assembles it."""

    name: str
    dist: int
    vocabulary: Vocabulary
    buffer: BufferManager
    #: Document store, element index, ID index -- in that order.
    trees: Tuple[BPTree, BPTree, BPTree]


def dump_document(
    name: str,
    dist: int,
    vocabulary: Vocabulary,
    buffer: BufferManager,
    trees: Sequence[BPTree],
) -> bytes:
    """The page-exact image of one document's storage state; ``trees``
    are the document store, element index and ID index, in that order."""
    out = Writer()
    out.text(name)
    out.pack(">I", dist)
    out.texts([vocabulary.name_of(i) for i in range(len(vocabulary))])

    page_file = buffer.page_file
    out.pack(">IQI", page_file.page_size, page_file._next_id, len(page_file))
    for page in page_file._pages.values():
        keys, values = page._keys, page._values
        count = len(keys)
        out.pack(
            ">QIIqqI", page.page_id, page.capacity, page._used,
            _NO_PAGE if page.next_page is None else page.next_page,
            _NO_PAGE if page.prev_page is None else page.prev_page,
            count,
        )
        out.pack(f">{count}I", *map(len, keys))
        out.pack(f">{count}I", *map(len, values))
        out.blob(b"".join(keys))
        out.blob(b"".join(values))

    stats = buffer.stats
    out.pack(
        ">IQQQQdI", buffer.pool_size, stats.logical_reads,
        stats.physical_reads, stats.physical_writes, stats.evictions,
        stats.fault_delay_ms, len(buffer._resident),
    )
    for page_id, dirty in buffer._resident.items():  # LRU order, oldest first
        out.pack(">Q?", page_id, dirty)

    for tree in trees:
        leaf_ids = sorted(tree._leaf_ids)
        out.pack(">QQI", tree._root_id, tree._entry_count, len(leaf_ids))
        out.pack(f">{len(leaf_ids)}Q", *leaf_ids)
    return seal(DOCUMENT_MAGIC, out.getvalue())


def _split(blob: bytes, lengths: Sequence[int]) -> List[bytes]:
    ends = list(accumulate(lengths))
    if (ends[-1] if ends else 0) != len(blob):
        raise StorageError("malformed image body: entry lengths disagree")
    return [blob[start:end] for start, end in zip([0] + ends, ends)]


def _read_page(reader: Reader) -> Page:
    page_id, capacity, used, next_page, prev_page, count = reader.unpack(">QIIqqI")
    key_lengths = reader.unpack(f">{count}I")
    value_lengths = reader.unpack(f">{count}I")
    key_blob, value_blob = reader.blob(), reader.blob()
    page = Page(page_id, capacity)
    page._keys = _split(key_blob, key_lengths)
    page._values = _split(value_blob, value_lengths)
    expected = (PAGE_HEADER + len(key_blob) + len(value_blob)
                + ENTRY_OVERHEAD * count)
    if used != expected or used > capacity:
        raise StorageError(
            f"page {page_id}: image records {used} used bytes, "
            f"entries occupy {expected} of {capacity}"
        )
    page._used = used
    page.next_page = None if next_page == _NO_PAGE else next_page
    page.prev_page = None if prev_page == _NO_PAGE else prev_page
    return page


def load_document(data: bytes) -> DocumentParts:
    """Inverse of :func:`dump_document`; raises StorageError on any damage."""
    reader = Reader(unseal(DOCUMENT_MAGIC, data))
    name = reader.text()
    (dist,) = reader.unpack(">I")
    vocabulary = Vocabulary()
    for position, word in enumerate(reader.texts()):
        if vocabulary.intern(word) != position:
            raise StorageError(f"image vocabulary repeats {word!r}")

    page_size, next_id, page_count = reader.unpack(">IQI")
    page_file = PageFile(page_size)
    for _ in range(page_count):
        page = _read_page(reader)
        page_file._pages[page.page_id] = page
    if len(page_file) != page_count or any(
        page_id >= next_id for page_id in page_file._pages
    ):
        raise StorageError("image page ids repeat or exceed the allocation mark")
    page_file._next_id = next_id

    (pool_size, logical_reads, physical_reads, physical_writes, evictions,
     fault_delay_ms, resident_count) = reader.unpack(">IQQQQdI")
    buffer = BufferManager(page_file, pool_size)
    buffer.stats = IoStatistics(logical_reads, physical_reads,
                                physical_writes, evictions, fault_delay_ms)
    for _ in range(resident_count):
        page_id, dirty = reader.unpack(">Q?")
        if page_id not in page_file:
            raise StorageError(f"image pool holds unknown page {page_id}")
        buffer._resident[page_id] = dirty
    if len(buffer._resident) != resident_count or resident_count > pool_size:
        raise StorageError("image pool residency is inconsistent")

    trees = []
    for _ in range(3):
        root_id, entry_count, leaf_count = reader.unpack(">QQI")
        leaf_ids = set(reader.unpack(f">{leaf_count}Q"))
        if root_id not in page_file or not all(
            page_id in page_file for page_id in leaf_ids
        ):
            raise StorageError("image tree references unknown pages")
        trees.append(BPTree.attach(buffer, root_id, leaf_ids, entry_count))
    reader.finish()
    return DocumentParts(name, dist, vocabulary, buffer, tuple(trees))
