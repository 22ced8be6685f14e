"""The write-only DocumentBuilder against the runtime insert path.

``build_document`` builds through :class:`DocumentBuilder`; the reference
is a fresh :class:`Document`, the root's attributes set through
``Document.set_attribute`` and the rest through ``build_children`` on the
document itself -- the read-back path runtime inserts take.  Both must
store the same pages (every page, chain pointer and tree bookkeeping) and
the same logical document.  256-byte pages make even small documents
split pages at every tree level.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom import Document, DocumentBuilder, build_children, build_document
from repro.errors import DocumentError, StorageError
from repro.storage.buffer import make_buffered_store
from repro.verify import canonical_image
from tests.tamix.test_golden_pages import page_digest

TEXT = st.text(alphabet="ab <&é", max_size=12)
ATTRS = st.dictionaries(st.sampled_from(["id", "year", "lang"]), TEXT, max_size=3)
NAMES = st.sampled_from(["book", "title", "x"])
SPECS = st.recursive(
    TEXT | st.tuples(NAMES, ATTRS),
    lambda children: st.tuples(NAMES, ATTRS, st.lists(children, max_size=6)),
    max_leaves=60,
)
ROOTS = st.tuples(NAMES, ATTRS, st.lists(SPECS, max_size=8))


def unique_ids(spec, counter):
    """``spec`` with every ``id`` value replaced by a fresh one."""
    if isinstance(spec, str):
        return spec
    name, attrs, *rest = spec
    attrs = {key: (f"i{next(counter)}" if key == "id" else value)
             for key, value in attrs.items()}
    children = [unique_ids(child, counter) for child in (rest[0] if rest else [])]
    return (name, attrs, children)


def small_pages():
    return make_buffered_store(page_size=256, pool_size=8)


def runtime_build(spec):
    name, attrs, children = spec
    document = Document(name="document", root_element=name, buffer=small_pages())
    for attr_name, attr_value in attrs.items():
        document.set_attribute(document.root, attr_name, attr_value)
    build_children(document, document.root, children)
    return document


@settings(max_examples=80, deadline=None)
@given(ROOTS)
def test_builder_stores_what_the_runtime_path_stores(spec):
    spec = unique_ids(spec, itertools.count())
    built = build_document(spec, buffer=small_pages())
    reference = runtime_build(spec)
    assert page_digest(built) == page_digest(reference)
    assert canonical_image(built) == canonical_image(reference)
    assert len(built) == len(reference)


def test_small_pages_split():
    spec = ("bib", {"id": "r"}, [("book", {"id": f"b{i}"}, ["t" * 20]) for i in range(30)])
    built = build_document(spec, buffer=small_pages())
    assert built.store.tree.height() >= 3
    assert page_digest(built) == page_digest(runtime_build(spec))


@pytest.mark.parametrize("build", [build_document, runtime_build])
def test_duplicate_id_raises_on_both_paths(build):
    spec = ("bib", {}, [("book", {"id": "b1"}), ("book", {"id": "b1"})])
    with pytest.raises(StorageError, match="duplicate id"):
        build(spec)


def test_builder_refuses_a_document_holding_more_than_its_root():
    document = Document(root_element="bib")
    document.add_element(document.root, "book")
    with pytest.raises(DocumentError):
        DocumentBuilder(document)


def test_builder_refuses_parents_it_did_not_create_as_elements():
    document = Document(root_element="bib")
    builder = DocumentBuilder(document)
    book = builder.add_element(document.root, "book")
    text = builder.add_text(book, "Gray")
    attribute = builder.set_attribute(book, "id", "b1")
    for parent in (text, attribute, book.attribute_root, book.child(99)):
        with pytest.raises(DocumentError):
            builder.add_element(parent, "title")
        with pytest.raises(DocumentError):
            builder.add_text(parent, "x")
        with pytest.raises(DocumentError):
            builder.set_attribute(parent, "year", "1993")
    assert len(document) == 7  # root, book, text + string, attr root, attr + string


def test_builder_refuses_closed_elements():
    """Appends follow document order: once a later sibling exists, an
    element and its subtree are closed."""
    document = Document(root_element="bib")
    builder = DocumentBuilder(document)
    first = builder.add_element(document.root, "book")
    title = builder.add_element(first, "title")
    builder.add_element(document.root, "book")
    for closed in (first, title):
        with pytest.raises(DocumentError, match="not an open element"):
            builder.add_element(closed, "x")
        with pytest.raises(DocumentError, match="not an open element"):
            builder.set_attribute(closed, "id", "b9")
    assert len(document) == 4


def test_attribute_after_children_matches_the_runtime_path():
    """An attribute set after the element's children (as the auction
    generator does) lands where ``Document.set_attribute`` puts it."""
    built = Document(root_element="site", buffer=small_pages())
    builder = DocumentBuilder(built)
    reference = Document(root_element="site", buffer=small_pages())
    for target in (builder, reference):
        person = target.add_element(built.root, "person")
        target.set_attribute(person, "id", "p0")
        target.add_text(target.add_element(person, "name"), "Gray")
        target.set_attribute(person, "income", "42000")
    assert page_digest(built) == page_digest(reference)
    assert built.attributes_of(person) == {"id": "p0", "income": "42000"}
