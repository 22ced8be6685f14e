"""Pages: the fixed-size storage unit underneath the B*-trees.

The document container is "a set of chained pages" (Figure 6a).  Pages here
are Python objects -- their *contents* are not serialized on every access,
but every page tracks the byte size its entries would occupy on disk, so
splits, occupancy statistics, and the buffer manager's I/O accounting
behave like a page-based disk store.  This is the honest-but-cheap disk
simulation documented in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.errors import PageOverflowError, StorageError

#: Default page size in bytes (the classic 8 KiB database page).
DEFAULT_PAGE_SIZE = 8192

#: Fixed per-entry overhead (slot pointer + lengths), in bytes.
ENTRY_OVERHEAD = 8

#: Fixed per-page overhead (header: LSN, type, chain pointers), in bytes.
PAGE_HEADER = 32


def entry_size(key: bytes, value: bytes) -> int:
    """On-disk byte footprint of one ``(key, value)`` entry."""
    return len(key) + len(value) + ENTRY_OVERHEAD


class Page:
    """A sorted slotted page of ``(key, value)`` byte entries.

    Keys are unique within a page.  The page enforces its byte capacity:
    inserts that would overflow raise :class:`PageOverflowError`, which the
    B-tree answers with a split.
    """

    __slots__ = ("page_id", "capacity", "_keys", "_values", "_used",
                 "next_page", "prev_page")

    def __init__(self, page_id: int, capacity: int = DEFAULT_PAGE_SIZE):
        if capacity <= PAGE_HEADER:
            raise StorageError(f"page capacity {capacity} below header size")
        self.page_id = page_id
        self.capacity = capacity
        self._keys: List[bytes] = []
        self._values: List[bytes] = []
        self._used = PAGE_HEADER
        #: Page ids of the container chain (leaf linking); None at the ends.
        self.next_page: Optional[int] = None
        self.prev_page: Optional[int] = None

    # -- capacity ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def occupancy(self) -> float:
        """Fraction of the page in use (the paper reports > 96 %)."""
        return self._used / self.capacity

    def fits(self, key: bytes, value: bytes) -> bool:
        return entry_size(key, value) <= self.free_bytes

    def __len__(self) -> int:
        return len(self._keys)

    # -- entry access ----------------------------------------------------------

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return tuple(self._keys)

    def min_key(self) -> bytes:
        if not self._keys:
            raise StorageError(f"page {self.page_id} is empty")
        return self._keys[0]

    def max_key(self) -> bytes:
        if not self._keys:
            raise StorageError(f"page {self.page_id} is empty")
        return self._keys[-1]

    def get(self, key: bytes) -> Optional[bytes]:
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def entries(self) -> Iterator[Tuple[bytes, bytes]]:
        return zip(tuple(self._keys), tuple(self._values))

    def entry_at(self, index: int) -> Tuple[bytes, bytes]:
        return self._keys[index], self._values[index]

    def position_of(self, key: bytes) -> int:
        """Index of the first entry with ``entry_key >= key``."""
        return bisect_left(self._keys, key)

    # -- mutation ----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace an entry; raises on byte overflow."""
        idx = bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            delta = len(value) - len(self._values[idx])
            if delta > self.free_bytes:
                raise PageOverflowError(
                    f"page {self.page_id}: replacement overflows by "
                    f"{delta - self.free_bytes} bytes"
                )
            self._values[idx] = value
            self._used += delta
            return
        size = entry_size(key, value)
        if size > self.free_bytes:
            raise PageOverflowError(
                f"page {self.page_id}: entry of {size} bytes exceeds "
                f"{self.free_bytes} free bytes"
            )
        self._keys.insert(idx, key)
        self._values.insert(idx, value)
        self._used += size

    def delete(self, key: bytes) -> bool:
        """Remove an entry; returns False if the key is absent."""
        idx = bisect_left(self._keys, key)
        if idx >= len(self._keys) or self._keys[idx] != key:
            return False
        self._used -= entry_size(key, self._values[idx])
        del self._keys[idx]
        del self._values[idx]
        return True

    def split_off_upper_half(self, new_page: "Page") -> bytes:
        """Move the upper half (by bytes) into the empty ``new_page``.

        Returns the separator key: the smallest key of the new page.
        """
        if len(self._keys) < 2:
            raise PageOverflowError(
                f"page {self.page_id} cannot split with {len(self._keys)} entries"
            )
        if new_page._keys:
            raise StorageError(f"split target page {new_page.page_id} is not empty")
        # Keep entries until half the bytes stay; at least one stays, one moves.
        target = self._used // 2
        kept = PAGE_HEADER
        cut = 0
        while cut < len(self._keys) - 1:
            kept += entry_size(self._keys[cut], self._values[cut])
            cut += 1
            if kept >= target:
                break
        new_page._keys = self._keys[cut:]
        new_page._values = self._values[cut:]
        new_page._used += self._used - kept
        del self._keys[cut:]
        del self._values[cut:]
        self._used = kept
        return new_page._keys[0]

    def absorb(self, right: "Page") -> None:
        """Merge all entries of ``right`` (must follow this page) into self."""
        if right._keys and self._keys and right.min_key() <= self.max_key():
            raise StorageError("absorb requires disjoint, ordered pages")
        for key, value in right.entries():
            self.put(key, value)
