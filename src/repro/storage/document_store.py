"""Document store: SPLID-keyed node storage in a single B*-tree.

"A single B*-tree is sufficient for storing the entire XML document in
left-most depth-first order, where an entry is formed by the byte
representation of the SPLID as the key part and the byte representation of
the actual node as the value part" (Section 3.2).

All tree navigation (first/last child, next/previous sibling, subtree
scans) is computed from key order alone -- exactly the property that lets
the lock manager stay off the document for ancestor paths, and that makes
direct jumps cheap for the protocols using intention locks.

DOM navigation skips the *meta* children of the taDOM model (attribute
roots below elements, string nodes below text/attribute nodes, all labeled
with division 1); dedicated accessors expose them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.errors import NodeNotFound
from repro.splid import Splid, encode, decode
from repro.splid.splid import META_DIVISION
from repro.storage.bptree import BPTree, prefix_upper_bound
from repro.storage.buffer import BufferManager, make_buffered_store
from repro.storage.record import NodeRecord


class DocumentStore:
    """One stored XML document: B*-tree of ``SPLID -> NodeRecord``."""

    def __init__(self, buffer: Optional[BufferManager] = None,
                 tree: Optional[BPTree] = None):
        self.buffer = buffer if buffer is not None else make_buffered_store()
        self.tree = tree if tree is not None else BPTree(self.buffer)

    # -- point operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.tree)

    def exists(self, splid: Splid) -> bool:
        return encode(splid) in self.tree

    def get(self, splid: Splid) -> NodeRecord:
        value = self.tree.get(encode(splid))
        if value is None:
            raise NodeNotFound(f"no node {splid}")
        return NodeRecord.decode(value)

    def try_get(self, splid: Splid) -> Optional[NodeRecord]:
        value = self.tree.get(encode(splid))
        return None if value is None else NodeRecord.decode(value)

    def put(self, splid: Splid, record: NodeRecord) -> None:
        self.tree.put(encode(splid), record.encode())

    def delete(self, splid: Splid) -> bool:
        return self.tree.delete(encode(splid))

    # -- document-order navigation ------------------------------------------

    def first_node(self) -> Optional[Splid]:
        entry = self.tree.first()
        return None if entry is None else decode(entry[0])

    def next_in_document_order(self, splid: Splid) -> Optional[Splid]:
        entry = self.tree.higher(encode(splid))
        return None if entry is None else decode(entry[0])

    def previous_in_document_order(self, splid: Splid) -> Optional[Splid]:
        entry = self.tree.lower(encode(splid))
        return None if entry is None else decode(entry[0])

    def next_following(self, splid: Splid) -> Optional[Splid]:
        """First node after the entire subtree of ``splid``."""
        bound = prefix_upper_bound(encode(splid))
        if bound is None:
            return None
        entry = self.tree.ceiling(bound)
        return None if entry is None else decode(entry[0])

    # -- DOM-style navigation --------------------------------------------------

    def first_child(self, parent: Splid) -> Optional[Splid]:
        """First non-meta child (DOM ``getFirstChild``)."""
        key = encode(parent)
        entry = self.tree.higher(key)
        while entry is not None:
            if not entry[0].startswith(key):
                return None
            candidate = decode(entry[0])
            if candidate.parent != parent:
                return None
            if candidate.divisions[-1] != META_DIVISION:
                return candidate
            # Skip the meta child's whole subtree (attribute root / string).
            bound = prefix_upper_bound(entry[0])
            if bound is None:
                return None
            entry = self.tree.ceiling(bound)
        return None

    def last_child(self, parent: Splid) -> Optional[Splid]:
        """Last non-meta child (DOM ``getLastChild``)."""
        bound = prefix_upper_bound(encode(parent))
        entry = self.tree.lower(bound) if bound is not None else self.tree.last()
        if entry is None:
            return None
        candidate = decode(entry[0])
        if not candidate.is_self_or_descendant_of(parent) or candidate == parent:
            return None
        child = candidate.ancestor_at_level(parent.level + 1)
        while child.divisions[-1] == META_DIVISION:
            previous = self.previous_sibling_any(child)
            if previous is None:
                return None
            child = previous
        return child

    def next_sibling(self, splid: Splid) -> Optional[Splid]:
        """Next non-meta sibling (DOM ``getNextSibling``)."""
        sibling = self.next_sibling_any(splid)
        # Meta children sort first, so following siblings are never meta.
        return sibling

    def next_sibling_any(self, splid: Splid) -> Optional[Splid]:
        parent = splid.parent
        if parent is None:
            return None
        # The first node after this subtree is either the next sibling or
        # the sibling of some ancestor (when this node is the last child).
        following = self.next_following(splid)
        if following is None or following.parent != parent:
            return None
        return following

    def previous_sibling(self, splid: Splid) -> Optional[Splid]:
        """Previous non-meta sibling (DOM ``getPreviousSibling``)."""
        sibling = self.previous_sibling_any(splid)
        if sibling is not None and sibling.divisions[-1] == META_DIVISION:
            return None
        return sibling

    def previous_sibling_any(self, splid: Splid) -> Optional[Splid]:
        parent = splid.parent
        if parent is None:
            return None
        entry = self.tree.lower(encode(splid))
        if entry is None:
            return None
        previous = decode(entry[0])
        if previous == parent or not previous.is_descendant_of(parent):
            return None
        if previous.level < splid.level:
            return None
        return previous.ancestor_at_level(splid.level)

    def children(self, parent: Splid) -> Iterator[Splid]:
        """All non-meta children in document order (``getChildNodes``)."""
        child = self.first_child(parent)
        while child is not None:
            yield child
            child = self.next_sibling(child)

    # -- the remaining XPath axes (Section 3.2: "efficient evaluation of
    # all axes frequently occurring in XPath or XQuery path expressions") --

    def following_siblings(self, node: Splid) -> Iterator[Splid]:
        sibling = self.next_sibling(node)
        while sibling is not None:
            yield sibling
            sibling = self.next_sibling(sibling)

    def preceding_siblings(self, node: Splid) -> Iterator[Splid]:
        """Preceding siblings, nearest first (reverse document order)."""
        sibling = self.previous_sibling(node)
        while sibling is not None:
            yield sibling
            sibling = self.previous_sibling(sibling)

    def ancestors(self, node: Splid) -> Iterator[Splid]:
        """Stored ancestors, parent first -- no document access needed for
        the labels themselves (the SPLID property); existence is checked
        against the store."""
        for ancestor in node.ancestors():
            if self.exists(ancestor):
                yield ancestor

    def descendants(self, node: Splid) -> Iterator[Splid]:
        """All non-meta descendants in document order."""
        for splid in self.subtree_labels(node):
            if splid != node and not splid.is_meta:
                yield splid

    def following(self, node: Splid) -> Iterator[Splid]:
        """The XPath ``following`` axis: everything after the subtree."""
        current = self.next_following(node)
        while current is not None:
            if not current.is_meta:
                yield current
            current = self.next_in_document_order(current)

    def child_count(self, parent: Splid) -> int:
        return sum(1 for _child in self.children(parent))

    # -- meta-node access --------------------------------------------------------

    def attribute_root(self, element: Splid) -> Optional[Splid]:
        root = element.attribute_root
        return root if self.exists(root) else None

    def attributes(self, element: Splid) -> Iterator[Splid]:
        """All attribute nodes of an element (``getAttributes``)."""
        root = self.attribute_root(element)
        if root is None:
            return
        key = encode(root)
        entry = self.tree.higher(key)
        while entry is not None and entry[0].startswith(key):
            candidate = decode(entry[0])
            if candidate.parent == root:
                yield candidate
            entry = self.tree.higher(entry[0])

    def string_child(self, owner: Splid) -> Optional[Splid]:
        """The string node below a text or attribute node."""
        candidate = owner.string_node
        return candidate if self.exists(candidate) else None

    # -- subtree operations ---------------------------------------------------------

    def subtree(self, root: Splid) -> Iterator[Tuple[Splid, NodeRecord]]:
        """The subtree of ``root`` (inclusive) in document order."""
        for key, value in self.tree.prefix_items(encode(root)):
            yield decode(key), NodeRecord.decode(value)

    def subtree_labels(self, root: Splid) -> Iterator[Splid]:
        for key, _value in self.tree.prefix_items(encode(root)):
            yield decode(key)

    def subtree_size(self, root: Splid) -> int:
        return sum(1 for _ in self.tree.prefix_items(encode(root)))

    def delete_subtree(self, root: Splid) -> int:
        """Delete the subtree of ``root`` (inclusive); returns node count."""
        keys = [key for key, _value in self.tree.prefix_items(encode(root))]
        for key in keys:
            self.tree.delete(key)
        return len(keys)

    def scan(self) -> Iterator[Tuple[Splid, NodeRecord]]:
        """Full document scan in document order."""
        for key, value in self.tree.items():
            yield decode(key), NodeRecord.decode(value)
