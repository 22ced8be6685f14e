"""Generator for the bib library document (Section 4.3, Figure 5).

Full-scale composition as in the paper:

* 1000 person elements and 100 author elements,
* 2000 book elements equally distributed across 100 topic elements
  (20 per topic),
* each book owns 5 to 10 chapter elements,
* a history element owns with equal probability 9 or 10 lend elements.

The ``scale`` parameter shrinks everything proportionally (the paper notes
bib "is highly scalable and may range from a few Kbytes to several hundred
Mbytes"); generation is deterministic per seed.

:func:`generate_bib` is the pure generator.  Everything that merely
*needs* a pristine bib document calls :func:`load_bib`, which runs the
generator once per argument set and process, keeps the document's
page-exact image (:mod:`repro.storage.image`), and hands every later
caller a private copy loaded from it.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List

from repro.dom.document import Document
from repro.errors import BenchmarkError
from repro.storage import image
from repro.storage.buffer import make_buffered_store

_FIRST_NAMES = ("Jim", "Theo", "Pat", "Erhard", "Michael", "Don", "Andreas",
                "Sabine", "Konstantin", "Elke")
_LAST_NAMES = ("Gray", "Haerder", "O'Neil", "Rahm", "Haustein", "Chamberlin",
               "Reuter", "Mohan", "Luttenberger", "Schek")
_TITLE_WORDS = ("Transaction", "Processing", "Concepts", "Techniques", "XML",
                "Database", "Systems", "Concurrency", "Control", "Recovery",
                "Indexing", "Benchmark")


_BIB_MAGIC = b"XBIB"


@dataclass
class BibInfo:
    """Identifiers the TaMix transactions draw from."""

    document: Document
    book_ids: List[str] = field(default_factory=list)
    topic_ids: List[str] = field(default_factory=list)
    person_ids: List[str] = field(default_factory=list)

    @property
    def books(self) -> int:
        return len(self.book_ids)

    @property
    def topics(self) -> int:
        return len(self.topic_ids)

    def to_image(self) -> bytes:
        """The document's page-exact image plus the three id lists."""
        out = image.Writer()
        for ids in (self.book_ids, self.topic_ids, self.person_ids):
            out.texts(ids)
        out.blob(self.document.to_image())
        return image.seal(_BIB_MAGIC, out.getvalue())

    @classmethod
    def from_image(cls, data: bytes) -> "BibInfo":
        """Inverse of :meth:`to_image`; a private copy on every call.

        Raises :class:`~repro.errors.StorageError` on a damaged image.
        """
        reader = image.Reader(image.unseal(_BIB_MAGIC, data))
        book_ids, topic_ids, person_ids = (reader.texts() for _ in range(3))
        document = Document.from_image(reader.blob())
        reader.finish()
        return cls(document, book_ids, topic_ids, person_ids)


def generate_bib(
    scale: float = 1.0,
    *,
    seed: int = 2006,
    buffer_pool_pages: int = 8192,
    books_per_topic: int = 20,
) -> BibInfo:
    """Build the bib document at the given scale.

    ``scale=1.0`` is the paper's configuration (2000 books, 100 topics,
    1000 persons, 100 authors).
    """
    if scale <= 0:
        raise BenchmarkError(f"scale must be positive, got {scale}")
    rng = random.Random(seed)
    n_topics = max(1, round(100 * scale))
    n_books = n_topics * books_per_topic
    n_persons = max(1, round(1000 * scale))
    n_authors = max(1, round(100 * scale))

    document = Document(
        name=f"bib-{scale}", root_element="bib",
        buffer=make_buffered_store(pool_size=buffer_pool_pages),
    )
    info = BibInfo(document=document)
    root = document.root

    persons = document.add_element(root, "persons")
    for p in range(n_persons):
        person_id = f"p{p}"
        person = document.add_element(persons, "person")
        document.set_attribute(person, "id", person_id)
        name = document.add_element(person, "name")
        first = document.add_element(name, "first")
        document.add_text(first, rng.choice(_FIRST_NAMES))
        last = document.add_element(name, "last")
        document.add_text(last, rng.choice(_LAST_NAMES))
        info.person_ids.append(person_id)

    authors = document.add_element(root, "authors")
    for a in range(n_authors):
        author = document.add_element(authors, "author")
        document.set_attribute(author, "id", f"a{a}")
        document.add_text(author, rng.choice(_LAST_NAMES))

    topics = document.add_element(root, "topics")
    book_number = 0
    for t in range(n_topics):
        topic_id = f"t{t}"
        topic = document.add_element(topics, "topic")
        document.set_attribute(topic, "id", topic_id)
        info.topic_ids.append(topic_id)
        for _b in range(books_per_topic):
            book_id = f"b{book_number}"
            book_number += 1
            book = document.add_element(topic, "book")
            document.set_attribute(book, "id", book_id)
            document.set_attribute(book, "year", str(rng.randint(1985, 2006)))
            title = document.add_element(book, "title")
            document.add_text(
                title, " ".join(rng.sample(_TITLE_WORDS, 3))
            )
            author = document.add_element(book, "author")
            document.add_text(author, rng.choice(_LAST_NAMES))
            price = document.add_element(book, "price")
            document.add_text(price, f"{rng.randint(10, 200)}.{rng.randint(0,99):02d}")
            chapters = document.add_element(book, "chapters")
            for c in range(rng.randint(5, 10)):
                chapter = document.add_element(chapters, "chapter")
                ch_title = document.add_element(chapter, "title")
                document.add_text(ch_title, f"Chapter {c + 1}")
                summary = document.add_element(chapter, "summary")
                document.add_text(
                    summary, " ".join(rng.sample(_TITLE_WORDS, 4))
                )
            history = document.add_element(book, "history")
            for _l in range(rng.choice((9, 10))):
                lend = document.add_element(history, "lend")
                document.set_attribute(
                    lend, "person", f"p{rng.randrange(n_persons)}"
                )
                document.set_attribute(
                    lend, "return", f"2006-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                )
            info.book_ids.append(book_id)
    return info


#: Images kept by :func:`load_bib` (about 0.7 MB each at ``scale=0.1``);
#: the least recently used one is dropped beyond this.
_IMAGE_CACHE_SIZE = 8
_image_cache: "OrderedDict[tuple, bytes]" = OrderedDict()
_image_cache_lock = threading.Lock()


def load_bib(
    scale: float,
    *,
    seed: int = 2006,
    buffer_pool_pages: int = 8192,
    books_per_topic: int = 20,
) -> BibInfo:
    """A pristine bib document, generated at most once per process.

    The first call for an argument set runs :func:`generate_bib`, keeps
    the image of its result and returns the generated object; later calls
    return ``BibInfo.from_image(...)``.  Either way the caller owns the
    result: it is a private, mutable copy, byte-equal (as an image) to a
    fresh ``generate_bib`` with the same arguments.
    """
    # ``scale`` enters the document name as text, so 1 and 1.0 differ.
    key = (f"{scale}", seed, buffer_pool_pages, books_per_topic)
    with _image_cache_lock:
        data = _image_cache.get(key)
        if data is not None:
            _image_cache.move_to_end(key)
    if data is not None:
        return BibInfo.from_image(data)
    info = generate_bib(
        scale, seed=seed, buffer_pool_pages=buffer_pool_pages,
        books_per_topic=books_per_topic,
    )
    data = info.to_image()
    with _image_cache_lock:
        _image_cache[key] = data
        _image_cache.move_to_end(key)
        while len(_image_cache) > _IMAGE_CACHE_SIZE:
            _image_cache.popitem(last=False)
    return info
