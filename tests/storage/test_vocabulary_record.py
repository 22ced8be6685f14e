"""Unit tests for vocabulary surrogates and node records."""

import pytest

from repro.errors import StorageError, VocabularyError
from repro.storage.record import NO_NAME, NodeKind, NodeRecord
from repro.storage.vocabulary import Vocabulary


class TestVocabulary:
    def test_intern_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.intern("book")
        assert vocab.intern("book") == first
        assert len(vocab) == 1

    def test_distinct_names_distinct_surrogates(self):
        vocab = Vocabulary()
        surrogates = [vocab.intern(n) for n in ("bib", "book", "title")]
        assert len(set(surrogates)) == 3

    def test_round_trip(self):
        vocab = Vocabulary()
        s = vocab.intern("chapter")
        assert vocab.name_of(s) == "chapter"
        assert vocab.surrogate_of("chapter") == s

    def test_unknown_lookups_raise(self):
        vocab = Vocabulary()
        with pytest.raises(VocabularyError):
            vocab.surrogate_of("nope")
        with pytest.raises(VocabularyError):
            vocab.name_of(17)

    def test_contains(self):
        vocab = Vocabulary()
        vocab.intern("x")
        assert "x" in vocab
        assert "y" not in vocab

    def test_items_and_size(self):
        vocab = Vocabulary()
        vocab.intern("alpha")
        vocab.intern("beta")
        assert dict(vocab.items()) == {"alpha": 0, "beta": 1}
        assert vocab.encoded_size() > 0


class TestNodeRecord:
    def test_element_round_trip(self):
        rec = NodeRecord.element(42)
        decoded = NodeRecord.decode(rec.encode())
        assert decoded.kind is NodeKind.ELEMENT
        assert decoded.name_surrogate == 42
        assert decoded.content == b""

    def test_string_round_trip(self):
        rec = NodeRecord.string("Müller & Söhne")
        decoded = NodeRecord.decode(rec.encode())
        assert decoded.kind is NodeKind.STRING
        assert decoded.text_content == "Müller & Söhne"

    def test_all_kinds_encode(self):
        records = [
            NodeRecord.element(1),
            NodeRecord.attribute_root(),
            NodeRecord.attribute(2),
            NodeRecord.text(),
            NodeRecord.string("v"),
        ]
        for rec in records:
            assert NodeRecord.decode(rec.encode()) == rec

    def test_text_content_only_for_strings(self):
        assert NodeRecord.element(1).text_content is None

    def test_renamed(self):
        rec = NodeRecord.element(1)
        assert rec.renamed(9).name_surrogate == 9
        assert rec.renamed(9).kind is NodeKind.ELEMENT

    def test_with_content(self):
        rec = NodeRecord.string("old").with_content("new")
        assert rec.text_content == "new"

    def test_no_name_sentinel(self):
        assert NodeRecord.text().name_surrogate == NO_NAME

    def test_decode_reads_big_endian_surrogate(self):
        decoded = NodeRecord.decode(b"\x03\x12\x34xy")
        assert decoded == NodeRecord(NodeKind.ATTRIBUTE, 0x1234, b"xy")
        assert decoded.kind is NodeKind.ATTRIBUTE

    def test_decode_rejects_short(self):
        for data in (b"", b"\x01", b"\x01\x00"):
            with pytest.raises(StorageError, match="too short"):
                NodeRecord.decode(data)

    def test_decode_rejects_unknown_kind(self):
        for data in (b"\x00\x00\x00", b"\x07\x00\x00", b"\x7f\x00\x00"):
            with pytest.raises(StorageError, match="unknown node kind"):
                NodeRecord.decode(data)

    def test_encode_rejects_bad_surrogate(self):
        with pytest.raises(StorageError):
            NodeRecord(NodeKind.ELEMENT, -1).encode()
