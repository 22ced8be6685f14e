"""Tests for the page-exact document image (repro.storage.image)."""

import struct
import zlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dom.document import Document
from repro.errors import StorageError
from repro.storage import image
from repro.storage.buffer import make_buffered_store
from repro.storage.record import NodeKind
from repro.verify import canonical_image


def small_document(dist=2):
    """A document on tiny pages and a tiny pool, so that page splits,
    evictions and physical reads all happen within a few dozen nodes."""
    document = Document(
        name="shelf", root_element="bib", dist=dist,
        buffer=make_buffered_store(page_size=256, pool_size=4),
    )
    for b in range(6):
        book = document.add_element(document.root, "book")
        document.set_attribute(book, "id", f"b{b}")
        title = document.add_element(book, "title")
        document.add_text(title, f"Volume {b}")
    return document


def elements(document):
    return [splid for splid, record in document.walk()
            if record.kind is NodeKind.ELEMENT]


class TestRoundTrip:
    def test_image_round_trips_byte_for_byte(self):
        data = small_document().to_image()
        assert Document.from_image(data).to_image() == data

    def test_loaded_document_equals_the_dumped_one(self):
        document = small_document(dist=8)
        twin = Document.from_image(document.to_image())
        assert canonical_image(twin) == canonical_image(document)
        assert twin.name == "shelf"
        assert twin.allocator.dist == 8
        assert twin.buffer.pool_size == 4
        assert twin.buffer.page_file.page_size == 256
        assert twin.buffer.stats == document.buffer.stats
        assert twin.buffer.stats.evictions > 0
        assert list(twin.buffer._resident.items()) == list(
            document.buffer._resident.items()
        )
        assert twin.element_by_id("b3") == document.element_by_id("b3")
        assert twin.elements_by_name("title") == document.elements_by_name("title")

    def test_loaded_document_is_a_private_copy(self):
        document = small_document()
        data = document.to_image()
        twin = Document.from_image(data)
        twin.delete_subtree(twin.element_by_id("b0"))
        twin.rename_element(twin.element_by_id("b1"), "journal")
        assert document.to_image() == data
        assert Document.from_image(data).to_image() == data

    def test_same_operations_after_a_round_trip_give_equal_images(self):
        document = small_document()
        twin = Document.from_image(document.to_image())
        for side in (document, twin):
            first, second = elements(side)[1:3]
            # An insert into a label gap, then enough inserts to split pages.
            side.add_element(side.root, "book", after=first)
            for n in range(10):
                side.add_text(side.add_element(second, "note"), f"n{n}")
        assert twin.to_image() == document.to_image()

    def test_image_is_not_a_pickle(self):
        data = small_document().to_image()
        assert data.startswith(image.DOCUMENT_MAGIC)


class TestDamage:
    @pytest.fixture(scope="class")
    def data(self):
        return small_document().to_image()

    def test_every_truncation_raises_storage_error(self, data):
        for cut in range(len(data)):
            with pytest.raises(StorageError):
                Document.from_image(data[:cut])

    def test_trailing_bytes_raise_storage_error(self, data):
        with pytest.raises(StorageError):
            Document.from_image(data + b"\x00")

    def test_sampled_bit_flips_raise_storage_error(self, data):
        # Every bit of the header and trailer, and a spread over the body.
        positions = set(range(14)) | set(range(len(data) - 4, len(data)))
        positions |= set(range(14, len(data) - 4, 37))
        for position in sorted(positions):
            for bit in (0, 3, 7):
                damaged = bytearray(data)
                damaged[position] ^= 1 << bit
                with pytest.raises(StorageError):
                    Document.from_image(bytes(damaged))

    def test_wrong_version_raises_storage_error(self, data):
        body = data[14:-4]
        framed = struct.pack(">4sHQ", image.DOCUMENT_MAGIC,
                             image.IMAGE_VERSION + 1, len(body)) + body
        future = framed + struct.pack(">I", zlib.crc32(framed))
        with pytest.raises(StorageError, match="version"):
            Document.from_image(future)

    def test_wrong_magic_raises_storage_error(self, data):
        with pytest.raises(StorageError, match="magic"):
            image.unseal(b"XBIB", data)

    def test_intact_checksum_over_a_malformed_body_raises(self):
        with pytest.raises(StorageError):
            Document.from_image(image.seal(image.DOCUMENT_MAGIC, b"\x00" * 9))


class ImageMachine(RuleBasedStateMachine):
    """Two documents driven in lockstep; ``twin`` is swapped for its own
    image round trip at random points.  Allocator gaps, page splits and
    merges, pool residency and I/O counters must keep agreeing."""

    @initialize()
    def setup(self):
        self.live = small_document()
        self.twin = Document.from_image(self.live.to_image())
        self.serial = 0

    def both(self, operation):
        results = [operation(self.live), operation(self.twin)]
        assert results[0] == results[1]

    @rule(pick=st.integers(min_value=0), before=st.booleans())
    def insert(self, pick, before):
        self.serial += 1
        name = f"n{self.serial % 5}"

        def operation(document):
            targets = elements(document)
            parent = targets[pick % len(targets)]
            sibling = document.store.first_child(parent) if before else None
            return document.add_element(parent, name, before=sibling)

        self.both(operation)

    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        def operation(document):
            targets = elements(document)[1:]
            if not targets:
                return None
            removed = document.delete_subtree(targets[pick % len(targets)])
            return [splid for splid, _record in removed]

        self.both(operation)

    @rule(pick=st.integers(min_value=0))
    def rename(self, pick):
        self.serial += 1
        name = f"r{self.serial % 3}"

        def operation(document):
            targets = elements(document)
            return document.rename_element(targets[pick % len(targets)], name)

        self.both(operation)

    @rule()
    def round_trip(self):
        self.twin = Document.from_image(self.twin.to_image())

    @invariant()
    def images_agree(self):
        assert self.twin.to_image() == self.live.to_image()


ImageMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestImageMachine = ImageMachine.TestCase
