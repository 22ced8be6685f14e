"""B*-tree (B+-tree with chained leaves) over the buffer manager.

This is the index structure of Figure 6: variable-length byte keys (SPLIDs
in their roles as keys *and* pointers), leaf pages chained for sequential
document processing, and every page access routed through the buffer
manager so that the I/O counters reflect real reference locality.

Inner pages store ``separator_key -> child_page_id`` entries; the leftmost
separator of the root chain is the empty key, so routing always finds a
floor entry.  Leaf pages store the actual ``key -> value`` records.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from repro.errors import PageOverflowError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.page import Page


def prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every string with ``prefix``.

    Returns ``None`` when no such bound exists (prefix is all ``0xFF``),
    in which case a scan must run to the end of the tree.
    """
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes((trimmed[-1] + 1,))


def _encode_child(page_id: int) -> bytes:
    return page_id.to_bytes(8, "big")


def _decode_child(value: bytes) -> int:
    return int.from_bytes(value, "big")


class BPTree:
    """A byte-keyed B+-tree with ordered navigation primitives.

    Beyond ``get``/``put``/``delete``, the tree offers the order
    operations the document store needs for sibling/child navigation:
    ``ceiling`` (first >=), ``higher`` (first >), ``floor`` (last <=),
    ``lower`` (last <), plus forward/backward range iteration along the
    leaf chain.
    """

    #: Leaves below this occupancy try to merge into their left sibling.
    MERGE_THRESHOLD = 0.25

    def __init__(self, buffer: BufferManager):
        self.buffer = buffer
        root = buffer.allocate()
        self._root_id = root.page_id
        self._leaf_ids: Set[int] = {root.page_id}
        self._entry_count = 0

    @classmethod
    def attach(cls, buffer: BufferManager, root_id: int, leaf_ids: Set[int],
               entry_count: int) -> "BPTree":
        """A tree over pages that already exist in ``buffer``'s page file
        (a loaded image); allocates nothing."""
        tree = cls.__new__(cls)
        tree.buffer = buffer
        tree._root_id = root_id
        tree._leaf_ids = leaf_ids
        tree._entry_count = entry_count
        return tree

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return self._entry_count

    @property
    def root_id(self) -> int:
        return self._root_id

    def is_leaf(self, page_id: int) -> bool:
        return page_id in self._leaf_ids

    def height(self) -> int:
        """Number of levels (1 = the root is a leaf)."""
        levels = 1
        page_id = self._root_id
        while not self.is_leaf(page_id):
            page = self.buffer.fix(page_id)
            _key, value = page.entry_at(0)
            page_id = _decode_child(value)
            levels += 1
        return levels

    # -- point access ---------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        leaf = self._descend(key)
        return leaf.get(key)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("B-tree keys and values must be bytes")
        existed = self._insert(self._root_id, key, value)
        if not existed:
            self._entry_count += 1

    def delete(self, key: bytes) -> bool:
        removed = self._delete(self._root_id, key, parent=None, slot=None)
        if removed:
            self._entry_count -= 1
        self._shrink_root()
        return removed

    # -- order navigation --------------------------------------------------------

    def ceiling(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        """First entry with ``entry_key >= key``."""
        leaf = self._descend(key)
        idx = leaf.position_of(key)
        return self._entry_or_next(leaf, idx)

    def higher(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        """First entry with ``entry_key > key``."""
        leaf = self._descend(key)
        idx = leaf.position_of(key)
        if idx < len(leaf) and leaf.entry_at(idx)[0] == key:
            idx += 1
        return self._entry_or_next(leaf, idx)

    def floor(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Last entry with ``entry_key <= key``."""
        leaf = self._descend(key)
        idx = leaf.position_of(key)
        if idx < len(leaf) and leaf.entry_at(idx)[0] == key:
            return leaf.entry_at(idx)
        return self._entry_or_previous(leaf, idx - 1)

    def lower(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Last entry with ``entry_key < key``."""
        leaf = self._descend(key)
        idx = leaf.position_of(key)
        return self._entry_or_previous(leaf, idx - 1)

    def first(self) -> Optional[Tuple[bytes, bytes]]:
        return self.ceiling(b"")

    def last(self) -> Optional[Tuple[bytes, bytes]]:
        page_id = self._root_id
        while not self.is_leaf(page_id):
            page = self.buffer.fix(page_id)
            page_id = _decode_child(page.entry_at(len(page) - 1)[1])
        leaf = self.buffer.fix(page_id)
        return self._entry_or_previous(leaf, len(leaf) - 1)

    # -- iteration --------------------------------------------------------------

    def items(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Forward scan over ``start <= key < end`` along the leaf chain."""
        leaf = self._descend(start or b"")
        idx = leaf.position_of(start or b"")
        while True:
            while idx >= len(leaf):
                if leaf.next_page is None:
                    return
                leaf = self.buffer.fix(leaf.next_page)
                idx = 0
            key, value = leaf.entry_at(idx)
            if end is not None and key >= end:
                return
            yield key, value
            idx += 1

    def items_reverse(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Backward scan over ``end <= key < start`` (start exclusive)."""
        if start is None:
            tail = self.last()
            if tail is None:
                return
            leaf = self._descend(tail[0])
            idx = leaf.position_of(tail[0])
        else:
            leaf = self._descend(start)
            idx = leaf.position_of(start) - 1
        while True:
            while idx < 0:
                if leaf.prev_page is None:
                    return
                leaf = self.buffer.fix(leaf.prev_page)
                idx = len(leaf) - 1
            key, value = leaf.entry_at(idx)
            if end is not None and key < end:
                return
            yield key, value
            idx -= 1

    def prefix_items(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """All entries whose key starts with ``prefix``, in order."""
        return self.items(prefix, prefix_upper_bound(prefix))

    # -- statistics ----------------------------------------------------------------

    def leaf_occupancy(self) -> float:
        """Mean occupancy over all leaf pages."""
        if not self._leaf_ids:
            return 0.0
        total = 0.0
        for page_id in self._leaf_ids:
            total += self.buffer.page_file.read(page_id).occupancy
        return total / len(self._leaf_ids)

    def leaf_count(self) -> int:
        return len(self._leaf_ids)

    # -- descent and structure modification -----------------------------------------

    def _descend(self, key: bytes) -> Page:
        page_id = self._root_id
        while not self.is_leaf(page_id):
            page = self.buffer.fix(page_id)
            page_id = self._route(page, key)
        return self.buffer.fix(page_id)

    @staticmethod
    def _route(inner: Page, key: bytes) -> int:
        idx = inner.position_of(key)
        if idx < len(inner) and inner.entry_at(idx)[0] == key:
            return _decode_child(inner.entry_at(idx)[1])
        if idx == 0:
            # Left fence: route to the leftmost child.
            return _decode_child(inner.entry_at(0)[1])
        return _decode_child(inner.entry_at(idx - 1)[1])

    def _insert(self, page_id: int, key: bytes, value: bytes) -> bool:
        """Recursive insert; returns True if the key already existed."""
        page = self.buffer.fix(page_id, for_update=True)
        if self.is_leaf(page_id):
            existed = page.get(key) is not None
            if existed:
                try:
                    page.put(key, value)
                except PageOverflowError:
                    # Replacement grew past the page: re-insert via a split.
                    page.delete(key)
                    self._split_child(page_id, key, value, leaf=True)
                return True
            if page.fits(key, value):
                page.put(key, value)
                return False
            self._split_child(page_id, key, value, leaf=True)
            return False
        child_id = self._route(page, key)
        return self._insert(child_id, key, value)

    def _split_child(self, page_id: int, key: bytes, value: bytes, *, leaf: bool) -> None:
        """Split ``page_id`` and retry the pending insert."""
        page = self.buffer.page_file.read(page_id)
        sibling = self.buffer.allocate()
        if leaf:
            self._leaf_ids.add(sibling.page_id)
        separator = page.split_off_upper_half(sibling)
        if leaf:
            sibling.next_page = page.next_page
            sibling.prev_page = page.page_id
            if page.next_page is not None:
                after = self.buffer.page_file.read(page.next_page)
                after.prev_page = sibling.page_id
            page.next_page = sibling.page_id
        target = sibling if key >= separator else page
        target.put(key, value)
        self._insert_separator(page_id, separator, sibling.page_id)

    def _insert_separator(self, left_id: int, separator: bytes, right_id: int) -> None:
        parent_id = self._find_parent(self._root_id, left_id)
        if parent_id is None:
            # left_id was the root: grow a new root.
            new_root = self.buffer.allocate()
            new_root.put(b"", _encode_child(left_id))
            new_root.put(separator, _encode_child(right_id))
            self._root_id = new_root.page_id
            return
        parent = self.buffer.fix(parent_id, for_update=True)
        if parent.fits(separator, _encode_child(right_id)):
            parent.put(separator, _encode_child(right_id))
            return
        self._split_child(parent_id, separator, _encode_child(right_id), leaf=False)

    def _find_parent(self, current_id: int, child_id: int) -> Optional[int]:
        """Locate the parent of ``child_id`` by routing from the root.

        Inner nodes are few and hot (the paper's "reference locality in the
        B*-trees"), so this re-descent is cheap and keeps the pages free of
        parent pointers.
        """
        if current_id == child_id:
            return None
        child_min = self._min_key_of(child_id)
        page_id = current_id
        while not self.is_leaf(page_id):
            page = self.buffer.fix(page_id)
            next_id = self._route(page, child_min)
            if next_id == child_id:
                return page_id
            page_id = next_id
        raise StorageError(f"page {child_id} not reachable from {current_id}")

    def _min_key_of(self, page_id: int) -> bytes:
        page = self.buffer.page_file.read(page_id)
        if len(page) == 0:
            return b""
        return page.min_key()

    def _delete(
        self,
        page_id: int,
        key: bytes,
        parent: Optional[Page],
        slot: Optional[int],
    ) -> bool:
        page = self.buffer.fix(page_id, for_update=True)
        if self.is_leaf(page_id):
            removed = page.delete(key)
            if removed and parent is not None:
                self._maybe_merge_leaf(page, parent, slot)
            return removed
        idx = page.position_of(key)
        if not (idx < len(page) and page.entry_at(idx)[0] == key):
            idx = max(idx - 1, 0)
        child_id = _decode_child(page.entry_at(idx)[1])
        return self._delete(child_id, key, page, idx)

    def _maybe_merge_leaf(self, leaf: Page, parent: Page, slot: int) -> None:
        if len(leaf) == 0:
            if len(parent) > 1:
                self._unlink_leaf(leaf, parent, slot)
            return
        if leaf.occupancy >= self.MERGE_THRESHOLD or slot == 0:
            return
        left_id = _decode_child(parent.entry_at(slot - 1)[1])
        if not self.is_leaf(left_id):
            return
        left = self.buffer.fix(left_id, for_update=True)
        if left.free_bytes >= leaf.used_bytes:
            left.absorb(leaf)
            self._unlink_leaf(leaf, parent, slot)
            return
        self._borrow_from_left(leaf, left, parent, slot)

    def _borrow_from_left(self, leaf: Page, left: Page, parent: Page,
                          slot: int) -> None:
        """Rebalance: shift the left sibling's largest entries over.

        Used when the underfull leaf cannot be absorbed (the combined
        pages would overflow); afterwards the parent's separator for the
        leaf is lowered to its new minimum key so routing stays correct.
        """
        target = self.MERGE_THRESHOLD * 2
        moved = False
        while left.occupancy > 0.5 and leaf.occupancy < target and len(left) > 1:
            key, value = left.entry_at(len(left) - 1)
            if not leaf.fits(key, value):
                break
            old_sep, child_value = parent.entry_at(slot)
            # The parent must be able to hold the lowered separator.
            if len(parent.keys) and parent.free_bytes + len(old_sep) < len(key):
                break
            left.delete(key)
            leaf.put(key, value)
            moved = True
        if not moved:
            return
        old_sep, child_value = parent.entry_at(slot)
        parent.delete(old_sep)
        parent.put(leaf.min_key(), child_value)

    def _unlink_leaf(self, leaf: Page, parent: Page, slot: int) -> None:
        if leaf.prev_page is not None:
            self.buffer.page_file.read(leaf.prev_page).next_page = leaf.next_page
        if leaf.next_page is not None:
            self.buffer.page_file.read(leaf.next_page).prev_page = leaf.prev_page
        parent.delete(parent.entry_at(slot)[0])
        self._leaf_ids.discard(leaf.page_id)
        self.buffer.free(leaf.page_id)

    def _shrink_root(self) -> None:
        while not self.is_leaf(self._root_id):
            root = self.buffer.page_file.read(self._root_id)
            if len(root) != 1:
                return
            child_id = _decode_child(root.entry_at(0)[1])
            self.buffer.free(self._root_id)
            self._root_id = child_id

    # -- leaf helpers -----------------------------------------------------------------

    def _entry_or_next(self, leaf: Page, idx: int) -> Optional[Tuple[bytes, bytes]]:
        while idx >= len(leaf):
            if leaf.next_page is None:
                return None
            leaf = self.buffer.fix(leaf.next_page)
            idx = 0
        return leaf.entry_at(idx)

    def _entry_or_previous(self, leaf: Page, idx: int) -> Optional[Tuple[bytes, bytes]]:
        while idx < 0:
            if leaf.prev_page is None:
                return None
            leaf = self.buffer.fix(leaf.prev_page)
            idx = len(leaf) - 1
        return leaf.entry_at(idx)
