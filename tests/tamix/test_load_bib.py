"""Tests for the cached bib loader and the BibInfo image."""

import pytest

from repro.errors import StorageError
from repro.tamix import bibgen
from repro.tamix.bibgen import BibInfo, generate_bib, load_bib
from repro.verify import canonical_image

SCALE = 0.02


@pytest.fixture
def cold_cache():
    """The process-wide image cache, emptied (later tests just refill it)."""
    bibgen._image_cache.clear()
    return bibgen._image_cache


@pytest.fixture(scope="module")
def reference():
    """Image of a fresh generation (bytes: reading a document moves its
    buffer counters, so a shared object would not stay pristine)."""
    return generate_bib(SCALE, seed=31).to_image()


class TestBibInfoImage:
    def test_round_trip(self):
        pristine = generate_bib(SCALE, seed=31)
        data = pristine.to_image()
        twin = BibInfo.from_image(data)
        assert twin.to_image() == data
        assert twin.book_ids == pristine.book_ids
        assert twin.topic_ids == pristine.topic_ids
        assert twin.person_ids == pristine.person_ids
        assert twin.document is not pristine.document

    def test_damage_raises_storage_error(self, reference):
        data = reference
        for cut in sorted({0, 1, 13, 14, 200, len(data) // 2, len(data) - 1}):
            with pytest.raises(StorageError):
                BibInfo.from_image(data[:cut])
        for position in range(0, len(data), len(data) // 50):
            damaged = bytearray(data)
            damaged[position] ^= 0x10
            with pytest.raises(StorageError):
                BibInfo.from_image(bytes(damaged))

    def test_document_image_is_not_a_bib_image(self, reference):
        document_image = BibInfo.from_image(reference).document.to_image()
        with pytest.raises(StorageError):
            BibInfo.from_image(document_image)


class TestLoadBib:
    def test_miss_and_hit_equal_a_fresh_generation(self, cold_cache):
        generated = generate_bib(SCALE, seed=31)
        missed = load_bib(SCALE, seed=31)
        assert len(cold_cache) == 1
        hit = load_bib(SCALE, seed=31)
        assert len(cold_cache) == 1
        assert hit.document is not missed.document
        assert missed.to_image() == generated.to_image()
        assert hit.to_image() == generated.to_image()
        assert hit.book_ids == generated.book_ids
        assert canonical_image(hit.document) == canonical_image(generated.document)

    def test_every_generator_argument_is_part_of_the_key(self, cold_cache):
        load_bib(SCALE, seed=31)
        load_bib(SCALE, seed=32)
        load_bib(SCALE, seed=31, buffer_pool_pages=64)
        load_bib(SCALE, seed=31, books_per_topic=5)
        load_bib(0.03, seed=31)
        assert len(cold_cache) == 5
        small_pool = load_bib(SCALE, seed=31, buffer_pool_pages=64)
        assert small_pool.document.buffer.pool_size == 64
        assert load_bib(SCALE, seed=31, books_per_topic=5).books == 10

    def test_copies_are_isolated_from_the_cache(self, cold_cache, reference):
        for _ in range(2):  # the generated object first, then a loaded copy
            document = load_bib(SCALE, seed=31).document
            book = document.elements_by_name("book")[0]
            document.add_element(book, "note")
            document.delete_subtree(document.elements_by_name("history")[0])
            document.rename_element(
                document.elements_by_name("topic")[0], "subject"
            )
            assert document.to_image() != reference
        assert load_bib(SCALE, seed=31).to_image() == reference

    def test_cache_stays_within_its_bound(self, cold_cache):
        bound = bibgen._IMAGE_CACHE_SIZE
        scales = [0.01 + 0.001 * step for step in range(bound + 3)]
        for scale in scales:
            load_bib(scale, books_per_topic=1)
            assert len(cold_cache) <= bound
        assert len(cold_cache) == bound
        # Least recently used first: the oldest scales were dropped.
        assert [key[0] for key in cold_cache] == [
            f"{scale}" for scale in scales[-bound:]
        ]


def test_cluster1_on_a_saved_and_reloaded_twin_is_identical(tmp_path):
    from repro import Database
    from repro.tamix import run_cluster1

    info = generate_bib(SCALE, seed=31)
    path = tmp_path / "bib.xdb"
    Database(document=info.document).save(path)
    twin = BibInfo(Database.load_file(path).document, info.book_ids,
                   info.topic_ids, info.person_ids)
    run = dict(lock_depth=4, run_duration_ms=6_000.0, seed=9)
    on_generated = run_cluster1("taDOM3+", info=info, **run)
    on_twin = run_cluster1("taDOM3+", info=twin, **run)
    assert on_generated.committed > 0
    assert on_twin == on_generated
    assert twin.document.to_image() == info.document.to_image()
