"""taDOM document layer: storage model, builder, parser, serializer.

The lock-guarded DOM API (:class:`~repro.dom.node_manager.NodeManager`)
is not re-exported: it depends on the locking and transaction packages,
so it is imported from its own module.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".builder": ("DocumentBuilder", "build_children", "build_document"),
    ".document": ("ID_ATTRIBUTE", "Document"),
    ".parser": ("parse_document", "parse_spec"),
    ".serializer": ("serialize_document", "serialize_subtree"),
})

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
