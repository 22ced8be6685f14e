"""The taDOM document: storage model of Section 3.1.

A :class:`Document` bundles the physical pieces of one stored XML
document -- document store (B*-tree), vocabulary, element index, ID index,
and SPLID allocator -- and offers *raw* structural operations.  "Raw" means
unsynchronized: no locks, no transaction bookkeeping.  The lock-guarded API
lives in :class:`repro.dom.node_manager.NodeManager`, which routes every
operation through the meta-synchronization layer before delegating here.

Per the taDOM model, attributes and text are virtually expanded: an
element's attributes hang below a separate *attribute root* (division 1),
and the character data of text and attribute nodes lives in *string nodes*
(again division 1).  This lets the lock manager isolate structure from
content, which some protocols exploit and others (the paper's MGL* group
on TArenameTopic) cannot.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import DocumentError, NodeNotFound
from repro.splid import Splid, SplidAllocator
from repro.storage import image
from repro.storage.buffer import BufferManager, make_buffered_store
from repro.storage.document_store import DocumentStore
from repro.storage.element_index import ElementIndex, IdIndex
from repro.storage.record import NodeKind, NodeRecord
from repro.storage.vocabulary import Vocabulary

#: The attribute name whose values feed the ID index (getElementById).
ID_ATTRIBUTE = "id"


class Document:
    """One stored XML document with its indexes (raw physical API)."""

    def __init__(
        self,
        name: str = "document",
        root_element: str = "root",
        *,
        buffer: Optional[BufferManager] = None,
        dist: int = 2,
    ):
        self.name = name
        self.buffer = buffer if buffer is not None else make_buffered_store(
            pool_size=4096
        )
        self.vocabulary = Vocabulary()
        self.store = DocumentStore(self.buffer)
        self.element_index = ElementIndex(self.buffer, self.vocabulary)
        self.id_index = IdIndex(self.buffer)
        self.allocator = SplidAllocator(dist=dist)
        self.root = Splid.root()
        self.store.put(self.root, NodeRecord.element(self.vocabulary.intern(root_element)))
        self.element_index.add(root_element, self.root)

    # -- page-exact image ----------------------------------------------------

    def to_image(self) -> bytes:
        """The page-exact image of this document (:mod:`repro.storage.image`)."""
        return image.dump_document(
            self.name, self.allocator.dist, self.vocabulary, self.buffer,
            (self.store.tree, self.element_index.tree, self.id_index.tree),
        )

    @classmethod
    def from_image(cls, data: bytes) -> "Document":
        """A private, mutable document equal to the one ``data`` was dumped
        from -- pages, pool residency, I/O counters, labels and all.

        Raises :class:`~repro.errors.StorageError` on a truncated,
        corrupted or wrong-version image.
        """
        parts = image.load_document(data)
        store_tree, element_tree, id_tree = parts.trees
        document = cls.__new__(cls)
        document.name = parts.name
        document.buffer = parts.buffer
        document.vocabulary = parts.vocabulary
        document.store = DocumentStore(parts.buffer, store_tree)
        document.element_index = ElementIndex(
            parts.buffer, parts.vocabulary, element_tree
        )
        document.id_index = IdIndex(parts.buffer, id_tree)
        document.allocator = SplidAllocator(dist=parts.dist)
        document.root = Splid.root()
        return document

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def node(self, splid: Splid) -> NodeRecord:
        return self.store.get(splid)

    def exists(self, splid: Splid) -> bool:
        return self.store.exists(splid)

    def kind(self, splid: Splid) -> NodeKind:
        return self.store.get(splid).kind

    def name_of(self, splid: Splid) -> str:
        """Tag/attribute name of an element or attribute node."""
        record = self.store.get(splid)
        if record.kind not in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE):
            raise DocumentError(f"{splid} ({record.kind.name}) has no name")
        return self.vocabulary.name_of(record.name_surrogate)

    def string_value(self, splid: Splid) -> str:
        """Content of a text or attribute node (via its string node)."""
        string_label = self.store.string_child(splid)
        if string_label is None:
            raise DocumentError(f"{splid} has no string node")
        return self.store.get(string_label).text_content or ""

    def text_of_element(self, element: Splid) -> str:
        """Concatenated content of the element's direct text children."""
        parts: List[str] = []
        for child in self.store.children(element):
            if self.store.get(child).kind is NodeKind.TEXT:
                parts.append(self.string_value(child))
        return "".join(parts)

    def attribute_value(self, element: Splid, name: str) -> Optional[str]:
        for attr in self.store.attributes(element):
            if self.name_of(attr) == name:
                return self.string_value(attr)
        return None

    def attributes_of(self, element: Splid) -> Dict[str, str]:
        return {
            self.name_of(attr): self.string_value(attr)
            for attr in self.store.attributes(element)
        }

    def element_by_id(self, id_value: str) -> Optional[Splid]:
        return self.id_index.lookup(id_value)

    def elements_by_name(self, name: str) -> List[Splid]:
        return self.element_index.lookup_list(name)

    # -- structural updates ------------------------------------------------------

    def add_element(
        self,
        parent: Splid,
        name: str,
        *,
        before: Optional[Splid] = None,
        after: Optional[Splid] = None,
    ) -> Splid:
        """Insert a new element child of ``parent``.

        Default position is after the current last child; ``before`` /
        ``after`` select a specific gap (pass an existing sibling).
        """
        self._require_kind(parent, NodeKind.ELEMENT)
        splid = self._allocate_child(parent, before=before, after=after)
        self.store.put(splid, NodeRecord.element(self.vocabulary.intern(name)))
        self.element_index.add(name, splid)
        return splid

    def add_text(
        self,
        parent: Splid,
        content: str,
        *,
        before: Optional[Splid] = None,
        after: Optional[Splid] = None,
    ) -> Splid:
        """Insert a text node (plus its string node) below ``parent``."""
        self._require_kind(parent, NodeKind.ELEMENT)
        splid = self._allocate_child(parent, before=before, after=after)
        self.store.put(splid, NodeRecord.text())
        self.store.put(splid.string_node, NodeRecord.string(content))
        return splid

    def set_attribute(self, element: Splid, name: str, value: str) -> Splid:
        """Create or update an attribute; returns the attribute node."""
        self._require_kind(element, NodeKind.ELEMENT)
        for attr in self.store.attributes(element):
            if self.name_of(attr) == name:
                self.update_string(attr, value)
                return attr
        attr_root = element.attribute_root
        if not self.store.exists(attr_root):
            self.store.put(attr_root, NodeRecord.attribute_root())
        last = None
        for attr in self.store.attributes(element):
            last = attr
        splid = self.allocator.between(attr_root, last, None)
        self.store.put(splid, NodeRecord.attribute(self.vocabulary.intern(name)))
        self.store.put(splid.string_node, NodeRecord.string(value))
        if name == ID_ATTRIBUTE:
            self.id_index.add(value, element)
        return splid

    def update_string(self, owner: Splid, content: str) -> str:
        """Replace the content of a text/attribute node; returns the old value."""
        string_label = self.store.string_child(owner)
        if string_label is None:
            raise DocumentError(f"{owner} has no string node to update")
        old = self.store.get(string_label).text_content or ""
        self.store.put(string_label, NodeRecord.string(content))
        owner_record = self.store.get(owner)
        if owner_record.kind is NodeKind.ATTRIBUTE:
            if self.vocabulary.name_of(owner_record.name_surrogate) == ID_ATTRIBUTE:
                element = owner.parent.parent  # attr -> attr root -> element
                self.id_index.remove(old)
                self.id_index.add(content, element)
        return old

    def rename_element(self, element: Splid, new_name: str) -> str:
        """DOM3 ``renameNode``; returns the old name."""
        record = self.store.get(element)
        if record.kind is not NodeKind.ELEMENT:
            raise DocumentError(f"only elements can be renamed, not {record.kind.name}")
        old_name = self.vocabulary.name_of(record.name_surrogate)
        self.element_index.remove(old_name, element)
        self.store.put(element, record.renamed(self.vocabulary.intern(new_name)))
        self.element_index.add(new_name, element)
        return old_name

    def delete_subtree(self, root: Splid) -> List[Tuple[Splid, NodeRecord]]:
        """Delete ``root`` and its subtree; returns the removed entries.

        The returned list (document order) is exactly what the undo log
        needs to reinsert the subtree on rollback.
        """
        if root == self.root:
            raise DocumentError("cannot delete the document root")
        removed = list(self.store.subtree(root))
        if not removed:
            raise NodeNotFound(f"no node {root}")
        self._unindex(removed)
        for splid, _record in removed:
            self.store.delete(splid)
        return removed

    def restore_subtree(self, entries: List[Tuple[Splid, NodeRecord]]) -> None:
        """Reinsert entries removed by :meth:`delete_subtree` (undo)."""
        for splid, record in entries:
            self.store.put(splid, record)
        self._reindex(entries)

    def relabel_subtree(self, root: Splid) -> Dict[Splid, Splid]:
        """Compact the SPLIDs inside a subtree (Section 3.2 maintenance).

        "Implementation restrictions (e.g., key length < 128B in B-trees)
        may enforce subtree relabeling ... relabeling only concerns the
        subtree."  The subtree root keeps its label; every descendant gets
        a fresh gap-spaced label, preserving document order and the taDOM
        meta structure.  Returns the old -> new label mapping (the lock
        manager / applications must invalidate cached labels through it).
        """
        old_entries = list(self.store.subtree(root))
        records = dict(old_entries)
        children_of: Dict[Splid, List[Splid]] = {}
        for splid, _record in old_entries:
            if splid == root:
                continue
            children_of.setdefault(splid.parent, []).append(splid)

        mapping: Dict[Splid, Splid] = {root: root}

        def assign(old_parent: Splid) -> None:
            new_parent = mapping[old_parent]
            ordinary = []
            for child in sorted(children_of.get(old_parent, ())):
                if child.divisions[-1] == 1:
                    mapping[child] = new_parent.with_suffix((1,))
                else:
                    ordinary.append(child)
            fresh = self.allocator.initial_children(new_parent, len(ordinary))
            for child, new_label in zip(ordinary, fresh):
                mapping[child] = new_label
            for child in children_of.get(old_parent, ()):
                assign(child)

        assign(root)
        self._unindex(old_entries)
        for splid, _record in old_entries:
            self.store.delete(splid)
        new_entries = [
            (mapping[splid], record) for splid, record in old_entries
        ]
        for splid, record in new_entries:
            self.store.put(splid, record)
        self._reindex(new_entries)
        return mapping

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Storage figures referenced by the paper (occupancy etc.)."""
        return {
            "nodes": float(len(self.store)),
            "document_leaf_pages": float(self.store.tree.leaf_count()),
            "document_occupancy": self.store.tree.leaf_occupancy(),
            "tree_height": float(self.store.tree.height()),
            "vocabulary_names": float(len(self.vocabulary)),
            "indexed_ids": float(len(self.id_index)),
        }

    # -- internals --------------------------------------------------------------------

    def _allocate_child(
        self,
        parent: Splid,
        *,
        before: Optional[Splid],
        after: Optional[Splid],
    ) -> Splid:
        if before is not None and after is not None:
            raise DocumentError("pass at most one of before/after")
        if before is not None:
            left = self.store.previous_sibling(before)
            return self.allocator.between(parent, left, before)
        if after is not None:
            right = self.store.next_sibling(after)
            return self.allocator.between(parent, after, right)
        last = self.store.last_child(parent)
        return self.allocator.between(parent, last, None)

    def _require_kind(self, splid: Splid, kind: NodeKind) -> None:
        record = self.store.get(splid)
        if record.kind is not kind:
            raise DocumentError(
                f"{splid} is a {record.kind.name}, expected {kind.name}"
            )

    def _unindex(self, entries: List[Tuple[Splid, NodeRecord]]) -> None:
        labels = {splid for splid, _record in entries}
        for splid, record in entries:
            if record.kind is NodeKind.ELEMENT:
                self.element_index.remove(
                    self.vocabulary.name_of(record.name_surrogate), splid
                )
            elif record.kind is NodeKind.ATTRIBUTE:
                name = self.vocabulary.name_of(record.name_surrogate)
                if name == ID_ATTRIBUTE and splid.string_node in labels:
                    value_record = next(
                        rec for s, rec in entries if s == splid.string_node
                    )
                    self.id_index.remove(value_record.text_content or "")

    def _reindex(self, entries: List[Tuple[Splid, NodeRecord]]) -> None:
        records = dict(entries)
        for splid, record in entries:
            if record.kind is NodeKind.ELEMENT:
                self.element_index.add(
                    self.vocabulary.name_of(record.name_surrogate), splid
                )
            elif record.kind is NodeKind.ATTRIBUTE:
                name = self.vocabulary.name_of(record.name_surrogate)
                if name == ID_ATTRIBUTE and splid.string_node in records:
                    value = records[splid.string_node].text_content or ""
                    element = splid.parent.parent
                    self.id_index.add(value, element)

    # -- iteration convenience ----------------------------------------------------------

    def walk(self) -> Iterator[Tuple[Splid, NodeRecord]]:
        return self.store.scan()
