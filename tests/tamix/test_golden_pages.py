"""Seeded document builds pin the stored pages byte for byte.

``golden_pages.json`` holds, per generated document, the sha256 of its
storage state without the buffer pool: name, ``dist``, vocabulary, the
page size, every page (id, capacity, used bytes, chain pointers, keys and
values), the allocation mark, each B*-tree's root, entry count and leaf
ids, and the generator's id lists.  The pool's residency order and I/O
counters are left out: they record how a build *read* its pages, not
what it stored.  A change to how documents are built must leave every
entry unchanged.

Re-record (only when the stored document is *meant* to change) with::

    PYTHONPATH=src python tests/tamix/test_golden_pages.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.tamix.bibgen import generate_bib
from repro.tamix.xmark import generate_auction

GOLDEN_PATH = Path(__file__).parent / "golden_pages.json"

BUILDS = {
    "bib:0.02:31": lambda: generate_bib(0.02, seed=31),
    "bib:0.05:2006": lambda: generate_bib(0.05, seed=2006),
    "bib:0.1:2006": lambda: generate_bib(0.1, seed=2006),
    "auction:0.1": lambda: generate_auction(0.1),
}


def page_digest(document, id_lists=()) -> str:
    """sha256 over a document's pages and tree bookkeeping (no pool state)."""
    h = hashlib.sha256()

    def put(*values):
        h.update(repr(values).encode("utf-8"))

    put(document.name, document.allocator.dist)
    put(*(document.vocabulary.name_of(i) for i in range(len(document.vocabulary))))
    page_file = document.buffer.page_file
    put(page_file.page_size, page_file._next_id, len(page_file))
    for page in page_file._pages.values():
        put(page.page_id, page.capacity, page.used_bytes,
            page.next_page, page.prev_page)
        put(*page.entries())
    for tree in (document.store.tree, document.element_index.tree,
                 document.id_index.tree):
        put(tree.root_id, len(tree), *sorted(tree._leaf_ids))
    for ids in id_lists:
        put(*ids)
    return h.hexdigest()


def _digest(key) -> str:
    info = BUILDS[key]()
    if key.startswith("bib:"):
        ids = (info.book_ids, info.topic_ids, info.person_ids)
    else:
        ids = (info.item_ids, info.person_ids, info.auction_ids)
    return page_digest(info.document, ids)


GOLDEN = (json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
          if GOLDEN_PATH.exists() else None)


def test_golden_covers_every_build():
    assert sorted(GOLDEN) == sorted(BUILDS)


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_generated_pages_are_byte_identical(key):
    assert _digest(key) == GOLDEN[key]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({key: _digest(key) for key in BUILDS}, indent=1,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
