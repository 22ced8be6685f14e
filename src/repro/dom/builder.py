"""Programmatic document construction: a write-only builder and specs.

A fresh document is built by a :class:`DocumentBuilder`; most tests
describe one as a nested Python *spec* rather than XML text.  A *spec* is::

    ("tag", {"attr": "value"}, [child_spec, ...])      # element
    ("tag", {"attr": "value"})                         # leaf element
    "character data"                                   # text node

The attribute dict and child list are each optional.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import DocumentError
from repro.splid import Splid
from repro.dom.document import ID_ATTRIBUTE, Document
from repro.storage.record import NodeRecord

Spec = Union[str, Tuple]


class DocumentBuilder:
    """Write-only appends to a fresh document, in document order.

    ``add_element`` / ``add_text`` / ``set_attribute`` issue exactly the
    writes of the :class:`Document` methods of the same names, in the same
    order, so the pages come out identical; but the builder remembers the
    last child and attribute of each open element (the last one created
    and its ancestors) instead of reading them back.  Only the pool's read
    counters and LRU order differ.  Runtime inserts keep the read-back
    path: there it is simulated I/O.
    """

    def __init__(self, document: Document):
        if len(document) != 1:
            raise DocumentError(f"{document.name!r} holds more than its root")
        self.document = document
        #: ``[element, last child, last attribute]`` per open element, indexed
        #: by depth (appends add one division per level, never overflow ones).
        self._open: List[list] = [[document.root, None, None]]

    def _entry(self, element: Splid) -> list:
        depth = len(element.divisions) - 1
        if depth >= len(self._open) or self._open[depth][0] != element:
            raise DocumentError(f"{element} is not an open element of this build")
        return self._open[depth]

    def _append_child(self, parent: Splid) -> Splid:
        entry = self._entry(parent)
        del self._open[len(parent.divisions):]
        entry[1] = splid = self.document.allocator.between(parent, entry[1], None)
        return splid

    def add_element(self, parent: Splid, name: str) -> Splid:
        document = self.document
        splid = self._append_child(parent)
        document.store.put(splid, NodeRecord.element(document.vocabulary.intern(name)))
        document.element_index.add(name, splid)
        self._open.append([splid, None, None])
        return splid

    def add_text(self, parent: Splid, content: str) -> Splid:
        splid = self._append_child(parent)
        self.document.store.put(splid, NodeRecord.text())
        self.document.store.put(splid.string_node, NodeRecord.string(content))
        return splid

    def set_attribute(self, element: Splid, name: str, value: str) -> Splid:
        """Append attribute ``name``; unlike :meth:`Document.set_attribute`
        this never updates, so each name is set once per element."""
        document = self.document
        entry = self._entry(element)
        attr_root = element.attribute_root
        if entry[2] is None:
            document.store.put(attr_root, NodeRecord.attribute_root())
        entry[2] = splid = document.allocator.between(attr_root, entry[2], None)
        document.store.put(splid, NodeRecord.attribute(document.vocabulary.intern(name)))
        document.store.put(splid.string_node, NodeRecord.string(value))
        if name == ID_ATTRIBUTE:
            document.id_index.add(value, element)
        return splid


def _parse_spec(spec: Spec) -> Tuple[str, Mapping[str, str], Sequence[Spec]]:
    if not isinstance(spec, tuple) or not spec or not isinstance(spec[0], str):
        raise DocumentError(f"malformed element spec: {spec!r}")
    name = spec[0]
    attrs: Mapping[str, str] = {}
    children: Sequence[Spec] = ()
    for part in spec[1:]:
        if isinstance(part, Mapping):
            attrs = part
        elif isinstance(part, (list, tuple)):
            children = part
        else:
            raise DocumentError(f"unexpected spec part {part!r} in {name!r}")
    return name, attrs, children


def build_children(target: Union[Document, DocumentBuilder], parent: Splid,
                   specs: Iterable[Spec]) -> None:
    """Append children described by ``specs`` below ``parent``, through a
    live :class:`Document` or a :class:`DocumentBuilder`."""
    for spec in specs:
        if isinstance(spec, str):
            target.add_text(parent, spec)
            continue
        name, attrs, children = _parse_spec(spec)
        element = target.add_element(parent, name)
        for attr_name, attr_value in attrs.items():
            target.set_attribute(element, attr_name, attr_value)
        build_children(target, element, children)


def build_document(spec: Spec, *, name: str = "document", **document_kwargs) -> Document:
    """Create a :class:`Document` whose root matches ``spec``."""
    if isinstance(spec, str):
        raise DocumentError("the document root must be an element spec")
    root_name, attrs, children = _parse_spec(spec)
    document = Document(name=name, root_element=root_name, **document_kwargs)
    builder = DocumentBuilder(document)
    for attr_name, attr_value in attrs.items():
        builder.set_attribute(document.root, attr_name, attr_value)
    build_children(builder, document.root, children)
    return document
