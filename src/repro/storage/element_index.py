"""Element index and ID index (Figure 6b).

"An element index is created consisting of a name directory with all
element names occurring in the XML document; for each specific element
name, in turn, a node-reference index may be maintained which addresses
the corresponding elements using their SPLIDs."

Both indexes live in their own B*-tree over the shared buffer manager:

* the **element index** is keyed ``surrogate(2 bytes) + SPLID bytes`` with
  empty values -- a node-reference index per name, scanned by prefix;
* the **ID index** maps the value of an ``id`` attribute to the SPLID of
  the owning element, supporting ``getElementById`` direct jumps.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import StorageError
from repro.splid import Splid, decode, encode
from repro.storage.bptree import BPTree
from repro.storage.buffer import BufferManager
from repro.storage.vocabulary import Vocabulary


class ElementIndex:
    """Name directory + per-name node-reference indexes."""

    def __init__(self, buffer: BufferManager, vocabulary: Vocabulary,
                 tree: Optional[BPTree] = None):
        self.vocabulary = vocabulary
        self.tree = tree if tree is not None else BPTree(buffer)

    @staticmethod
    def _key(surrogate: int, splid: Splid) -> bytes:
        return surrogate.to_bytes(2, "big") + encode(splid)

    def add(self, name: str, splid: Splid) -> None:
        surrogate = self.vocabulary.intern(name)
        self.tree.put(self._key(surrogate, splid), b"")

    def remove(self, name: str, splid: Splid) -> bool:
        if name not in self.vocabulary:
            return False
        surrogate = self.vocabulary.surrogate_of(name)
        return self.tree.delete(self._key(surrogate, splid))

    def lookup(self, name: str) -> Iterator[Splid]:
        """All elements with ``name``, in document order."""
        if name not in self.vocabulary:
            return
        surrogate = self.vocabulary.surrogate_of(name)
        prefix = surrogate.to_bytes(2, "big")
        for key, _value in self.tree.prefix_items(prefix):
            yield decode(key[2:])

    def lookup_list(self, name: str) -> List[Splid]:
        return list(self.lookup(name))

    def count(self, name: str) -> int:
        return sum(1 for _s in self.lookup(name))

    def names(self) -> List[str]:
        """The name directory (names with at least one reference)."""
        seen = set()
        result: List[str] = []
        for key, _value in self.tree.items():
            surrogate = int.from_bytes(key[:2], "big")
            if surrogate not in seen:
                seen.add(surrogate)
                result.append(self.vocabulary.name_of(surrogate))
        return result


class IdIndex:
    """Maps ``id`` attribute values to element SPLIDs (direct jumps)."""

    def __init__(self, buffer: BufferManager,
                 tree: Optional[BPTree] = None):
        self.tree = tree if tree is not None else BPTree(buffer)

    def add(self, id_value: str, element: Splid) -> None:
        key = id_value.encode("utf-8")
        existing = self.tree.get(key)
        if existing is not None and existing != encode(element):
            raise StorageError(f"duplicate id {id_value!r}")
        self.tree.put(key, encode(element))

    def remove(self, id_value: str) -> bool:
        return self.tree.delete(id_value.encode("utf-8"))

    def lookup(self, id_value: str) -> Optional[Splid]:
        value = self.tree.get(id_value.encode("utf-8"))
        return None if value is None else decode(value)

    def __len__(self) -> int:
        return len(self.tree)

    def ids(self) -> Iterator[str]:
        for key, _value in self.tree.items():
            yield key.decode("utf-8")
