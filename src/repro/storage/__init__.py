"""Storage substrate: pages, buffer manager, B*-trees, and indexes.

Implements Section 3.1/3.2 of the paper: the document container and
document index as one B*-tree keyed by SPLID bytes, the element index
(name directory + node-reference indexes), the ID index for direct jumps,
the vocabulary of name surrogates, and an LRU buffer manager whose I/O
counters feed the TaMix cost model.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".bptree": ("BPTree", "prefix_upper_bound"),
    ".buffer": ("BufferManager", "IoStatistics", "PageFile",
                "make_buffered_store"),
    ".document_store": ("DocumentStore",),
    ".element_index": ("ElementIndex", "IdIndex"),
    ".page": ("DEFAULT_PAGE_SIZE", "Page", "entry_size"),
    ".record": ("NO_NAME", "NodeKind", "NodeRecord"),
    ".vocabulary": ("Vocabulary",),
})

__all__ = [
    "BPTree",
    "BufferManager",
    "DEFAULT_PAGE_SIZE",
    "DocumentStore",
    "ElementIndex",
    "IdIndex",
    "IoStatistics",
    "NO_NAME",
    "NodeKind",
    "NodeRecord",
    "Page",
    "PageFile",
    "Vocabulary",
    "entry_size",
    "make_buffered_store",
    "prefix_upper_bound",
]
