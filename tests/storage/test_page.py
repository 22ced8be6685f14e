"""Unit tests for the slotted page."""

import pytest

from repro.errors import PageOverflowError, StorageError
from repro.storage.page import ENTRY_OVERHEAD, PAGE_HEADER, Page, entry_size


@pytest.fixture
def page():
    return Page(page_id=7, capacity=512)


class TestBasics:
    def test_empty_page(self, page):
        assert len(page) == 0
        assert page.used_bytes == PAGE_HEADER
        assert page.free_bytes == 512 - PAGE_HEADER

    def test_put_get(self, page):
        page.put(b"b", b"two")
        page.put(b"a", b"one")
        assert page.get(b"a") == b"one"
        assert page.get(b"b") == b"two"
        assert page.get(b"c") is None

    def test_keys_stay_sorted(self, page):
        for key in [b"d", b"a", b"c", b"b"]:
            page.put(key, b"")
        assert list(page.keys) == [b"a", b"b", b"c", b"d"]

    def test_replace_updates_size(self, page):
        page.put(b"k", b"xx")
        before = page.used_bytes
        page.put(b"k", b"xxxx")
        assert page.used_bytes == before + 2
        assert len(page) == 1

    def test_delete(self, page):
        page.put(b"k", b"v")
        assert page.delete(b"k")
        assert not page.delete(b"k")
        assert page.used_bytes == PAGE_HEADER

    def test_entry_size(self):
        assert entry_size(b"abc", b"de") == 5 + ENTRY_OVERHEAD

    def test_min_max_key(self, page):
        page.put(b"m", b"")
        page.put(b"a", b"")
        assert page.min_key() == b"a"
        assert page.max_key() == b"m"

    def test_min_key_of_empty_raises(self, page):
        with pytest.raises(StorageError):
            page.min_key()

    def test_position_of(self, page):
        page.put(b"b", b"")
        page.put(b"d", b"")
        assert page.position_of(b"a") == 0
        assert page.position_of(b"b") == 0
        assert page.position_of(b"c") == 1
        assert page.position_of(b"z") == 2

    def test_tiny_capacity_rejected(self):
        with pytest.raises(StorageError):
            Page(0, capacity=16)


class TestOverflowAndSplit:
    def test_overflow_raises(self, page):
        with pytest.raises(PageOverflowError):
            page.put(b"k", b"x" * 600)

    def test_replacement_overflow_raises(self, page):
        page.put(b"k", b"small")
        with pytest.raises(PageOverflowError):
            page.put(b"k", b"x" * 600)
        assert page.get(b"k") == b"small"

    def test_fits(self, page):
        assert page.fits(b"k", b"v")
        assert not page.fits(b"k", b"v" * 600)

    def test_split_moves_upper_half(self):
        left = Page(0, capacity=4096)
        for i in range(64):
            left.put(f"key{i:04d}".encode(), b"v" * 8)
        right = Page(1, capacity=4096)
        separator = left.split_off_upper_half(right)
        assert separator == right.min_key()
        assert left.max_key() < right.min_key()
        assert len(left) + len(right) == 64
        assert abs(left.used_bytes - right.used_bytes) < left.capacity // 4

    @pytest.mark.parametrize("count", [2, 3, 17, 40])
    def test_split_equals_moving_entry_by_entry(self, count):
        """The one-slice split leaves both pages exactly as the per-entry
        split it replaced did (reference below)."""
        def fill(page):
            for i in range(count):
                page.put(f"k{i:03d}".encode(), b"v" * (i * 5 % 23))
            return page

        def reference_split(left, right):
            target, acc, cut = left.used_bytes // 2, PAGE_HEADER, 0
            while cut < len(left) - 1:
                acc += entry_size(*left.entry_at(cut))
                if acc >= target:
                    cut += 1
                    break
                cut += 1
            cut = max(1, min(cut, len(left) - 1))
            for key, value in list(left.entries())[cut:]:
                right.put(key, value)
                left.delete(key)
            return right.min_key()

        left, right = fill(Page(0, capacity=2048)), Page(1, capacity=2048)
        ref_left, ref_right = fill(Page(0, capacity=2048)), Page(1, capacity=2048)
        assert left.split_off_upper_half(right) == reference_split(ref_left, ref_right)
        for page, ref in ((left, ref_left), (right, ref_right)):
            assert list(page.entries()) == list(ref.entries())
            assert page.used_bytes == ref.used_bytes

    def test_split_into_a_non_empty_page_fails(self):
        left = Page(0, capacity=1024)
        for i in range(4):
            left.put(f"k{i}".encode(), b"v")
        right = Page(1, capacity=1024)
        right.put(b"z", b"v")
        with pytest.raises(StorageError):
            left.split_off_upper_half(right)
        assert len(left) == 4 and len(right) == 1

    def test_split_single_entry_fails(self, page):
        page.put(b"k", b"v")
        with pytest.raises(PageOverflowError):
            page.split_off_upper_half(Page(1, capacity=512))

    def test_occupancy(self):
        page = Page(0, capacity=1024)
        assert page.occupancy < 0.05
        page.put(b"k", b"x" * 900)
        assert page.occupancy > 0.9


class TestAbsorb:
    def test_absorb_merges(self):
        left = Page(0, capacity=1024)
        right = Page(1, capacity=1024)
        left.put(b"a", b"1")
        right.put(b"b", b"2")
        left.absorb(right)
        assert list(left.keys) == [b"a", b"b"]

    def test_absorb_rejects_overlap(self):
        left = Page(0, capacity=1024)
        right = Page(1, capacity=1024)
        left.put(b"m", b"")
        right.put(b"a", b"")
        with pytest.raises(StorageError):
            left.absorb(right)
