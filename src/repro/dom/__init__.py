"""taDOM document layer: storage model, builder, parser, serializer.

The lock-guarded DOM API (:class:`~repro.dom.node_manager.NodeManager`)
is exported lazily because it depends on the locking and transaction
packages.
"""

from repro.dom.builder import DocumentBuilder, build_children, build_document
from repro.dom.document import ID_ATTRIBUTE, Document
from repro.dom.parser import parse_document, parse_spec
from repro.dom.serializer import serialize_document, serialize_subtree

__all__ = [
    "Document",
    "DocumentBuilder",
    "ID_ATTRIBUTE",
    "build_children",
    "build_document",
    "parse_document",
    "parse_spec",
    "serialize_document",
    "serialize_subtree",
]
