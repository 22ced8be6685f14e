"""SPLID node labels (stable path labeling identifiers).

Public surface of the labeling scheme described in Section 3.2 of the
paper: the :class:`~repro.splid.splid.Splid` value type, the
:class:`~repro.splid.allocator.SplidAllocator` for gap-based initial
labeling and overflow insertion, and the order-preserving byte codec used
as the B*-tree key representation.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".allocator": ("DEFAULT_DIST", "SplidAllocator"),
    ".codec": ("average_stored_bytes", "common_prefix_length", "decode",
               "encode", "prefix_compress", "prefix_decompress"),
    ".splid": ("META_DIVISION", "Splid", "document_order"),
})

__all__ = [
    "DEFAULT_DIST",
    "META_DIVISION",
    "Splid",
    "SplidAllocator",
    "average_stored_bytes",
    "common_prefix_length",
    "decode",
    "document_order",
    "encode",
    "prefix_compress",
    "prefix_decompress",
]
