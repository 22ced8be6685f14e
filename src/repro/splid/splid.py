"""Stable path labeling identifiers (SPLIDs).

SPLIDs are the prefix-based (Dewey / ORDPATH-style) node labels described in
Section 3.2 of the paper.  A SPLID is a sequence of integer *divisions*:

* the label of a node contains the label of its parent as a prefix;
* **odd** division values indicate a level transition;
* **even** division values are an overflow mechanism for labels inserted
  between existing siblings (they do not add a level);
* division value ``1`` at levels below the root labels the *virtually
  expanded* nodes of the taDOM storage model: attribute roots and string
  nodes (where sibling order does not matter).

Examples from the paper: ``1.3.3`` and ``1.3.5`` are consecutive nodes at
level 3; a node inserted between them receives ``1.3.4.3``.  Levels are
obtained by counting odd divisions, document order by plain division-wise
comparison, and the ancestor labels by truncating divisions -- all without
touching the stored document, which is what makes intention locking along
the ancestor path cheap.

The paper calls ancestor derivation performance-critical for intention
locking, so the value type is engineered as a hot-path kernel:

* instances are **interned** through a bounded canonicalizing cache keyed
  by the division tuple, so the labels a workload keeps re-deriving
  (ancestor paths, lock anchors) are materialized exactly once;
* ``level``, the hash, the ``parent`` link, the full ancestor chain and
  the encoded byte key (:func:`repro.splid.codec.encode`, which also
  enters the key in the same cache so a decode of it is a lookup) are
  **memoized** on the instance (``__slots__``-backed lazy fields) --
  the first ancestor walk pays O(depth), every later one is a tuple read;
* ``ancestor_at_level`` indexes the cached chain (each parent step drops
  exactly one level), turning the old per-call reparse into O(1) after
  the chain exists;
* derivations whose result is valid *by construction* (``parent``,
  ``child``, ``with_suffix``, codec decodes) use a trusted constructor
  that skips re-validation entirely.

This module implements the label value type.  Allocation of new labels
(including the ``dist`` gap parameter) lives in
:mod:`repro.splid.allocator`; order-preserving byte encoding in
:mod:`repro.splid.codec`.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import SplidError

#: Division value reserved for attribute roots and string nodes.
META_DIVISION = 1

#: Bound on the canonicalizing cache.  Eviction is FIFO in insertion
#: order; evicted labels keep working (equality and hashing are by
#: value), they just stop being canonical.
INTERN_CAPACITY = 1 << 16
_EVICT_BATCH = 1 << 10

#: division tuple or encoded byte key -> canonical instance (a tuple
#: never equals a ``bytes``, so the two kinds cannot collide; both count
#: against the capacity).  Reads take no lock: a lost race merely creates
#: a short-lived duplicate that compares equal to the canonical instance.
#: Writes hold ``_INTERN_LOCK``, because eviction iterates the dict and a
#: concurrent insert would break that iteration.
_INTERN: Dict[object, "Splid"] = {}
_INTERN_LOCK = threading.Lock()

_UNSET = object()  # sentinel: ``None`` is a valid parent (the root's)


def _intern(key: object, splid: "Splid") -> None:
    """Enter ``key -> splid``, evicting the oldest entries when full."""
    with _INTERN_LOCK:
        if len(_INTERN) >= INTERN_CAPACITY:
            for old in list(islice(_INTERN, _EVICT_BATCH)):
                del _INTERN[old]
        _INTERN[key] = splid


class Splid:
    """An immutable, order-comparable stable path labeling identifier.

    Instances are hashable and compare in *document order*: ancestors sort
    before their descendants, and siblings sort by their division values.
    """

    __slots__ = ("_divisions", "_hash", "_level", "_parent", "_ancestors", "_key")

    def __new__(cls, divisions: Sequence[int]):
        if type(divisions) is tuple:
            cached = _INTERN.get(divisions)
            if cached is not None:
                return cached
        divs = tuple(int(d) for d in divisions)
        cached = _INTERN.get(divs)
        if cached is not None:
            return cached
        if not divs:
            raise SplidError("a SPLID needs at least one division")
        if divs[0] != 1:
            raise SplidError(f"document root division must be 1, got {divs[0]}")
        for d in divs[1:]:
            if d < 1:
                raise SplidError(f"division values must be >= 1, got {d}")
        if divs[-1] % 2 == 0:
            raise SplidError(
                f"a SPLID must end with an odd division, got {divs!r}"
            )
        return cls._new_interned(divs)

    # -- construction ------------------------------------------------------

    @classmethod
    def _new_interned(cls, divs: Tuple[int, ...]) -> "Splid":
        self = object.__new__(cls)
        self._divisions = divs
        self._hash = hash(divs)
        self._level = None
        self._parent = _UNSET
        self._ancestors = None
        self._key = None
        _intern(divs, self)
        return self

    @classmethod
    def _from_divisions(cls, divs: Tuple[int, ...]) -> "Splid":
        """Trusted constructor: ``divs`` is already a valid division tuple
        (derived from an existing label or a verified decode)."""
        cached = _INTERN.get(divs)
        if cached is not None:
            return cached
        return cls._new_interned(divs)

    @classmethod
    def root(cls) -> "Splid":
        """The label of the document root element, ``1``."""
        return cls._from_divisions((1,))

    @classmethod
    def parse(cls, text: str) -> "Splid":
        """Parse the dotted notation used throughout the paper, e.g.
        ``"1.3.4.3"``.

        Parsing is strict: every division must be a plain run of ASCII
        digits, so ``"1."`` (empty division), ``" 1.3"`` (whitespace) and
        ``"1.+3"`` (sign) are rejected rather than silently normalized.
        """
        divisions = []
        for part in text.split("."):
            if not (part.isascii() and part.isdigit()):
                raise SplidError(
                    f"malformed SPLID text {text!r}: bad division {part!r}"
                )
            divisions.append(int(part))
        return cls(tuple(divisions))

    # -- interning introspection ------------------------------------------

    @classmethod
    def intern_info(cls) -> Dict[str, int]:
        """Size/capacity of the canonicalizing cache (for tests/benchmarks)."""
        return {"size": len(_INTERN), "capacity": INTERN_CAPACITY}

    @classmethod
    def clear_intern_cache(cls) -> None:
        """Drop all canonical instances (tests and memory pressure)."""
        with _INTERN_LOCK:
            _INTERN.clear()

    # -- basic accessors ---------------------------------------------------

    @property
    def divisions(self) -> Tuple[int, ...]:
        """The raw division tuple."""
        return self._divisions

    @property
    def level(self) -> int:
        """Tree level of the labeled node; the document root is level 0.

        The level is the number of odd divisions minus one -- even
        (overflow) divisions do not open a level.  Memoized.
        """
        level = self._level
        if level is None:
            level = sum(d & 1 for d in self._divisions) - 1
            self._level = level
        return level

    @property
    def is_root(self) -> bool:
        return self._divisions == (1,)

    @property
    def is_meta(self) -> bool:
        """True for attribute-root and string-node labels (division 1)."""
        return len(self._divisions) > 1 and self._divisions[-1] == META_DIVISION

    # -- tree relationships ------------------------------------------------

    @property
    def parent(self) -> Optional["Splid"]:
        """The SPLID of the parent node, or ``None`` for the root.

        The final (odd) division is removed together with any overflow
        (even) divisions in front of it, so the result again ends with an
        odd division.  Memoized; the result is interned.
        """
        parent = self._parent
        if parent is _UNSET:
            divs = self._divisions
            if divs == (1,):
                parent = None
            else:
                end = len(divs) - 1
                while divs[end - 1] % 2 == 0:
                    end -= 1
                parent = Splid._from_divisions(divs[:end])
            self._parent = parent
        return parent

    def _ancestor_chain(self) -> Tuple["Splid", ...]:
        """The memoized ancestor chain, parent first, root last."""
        chain = self._ancestors
        if chain is None:
            parent = self.parent
            chain = () if parent is None else (parent,) + parent._ancestor_chain()
            self._ancestors = chain
        return chain

    def ancestors(self) -> Iterator["Splid"]:
        """Yield the ancestor labels from the parent up to the root.

        This is the operation the paper calls performance-critical for
        intention locking: it needs *no* document access (and, after the
        first call, no computation either).
        """
        return iter(self._ancestor_chain())

    def ancestors_bottom_up(self) -> Tuple["Splid", ...]:
        """All ancestors, parent first, root last (materialized)."""
        return self._ancestor_chain()

    def ancestors_top_down(self) -> Tuple["Splid", ...]:
        """All ancestors, root first, parent last."""
        return tuple(reversed(self._ancestor_chain()))

    def ancestor_at_level(self, level: int) -> "Splid":
        """The ancestor-or-self label at the given tree level.

        Raises :class:`SplidError` if this node is above ``level`` or
        ``level`` is negative.  Used by the lock-depth mechanism: accesses
        below lock depth *n* are covered by a subtree lock on the level-*n*
        ancestor.

        Each parent step removes exactly one odd division, so the cached
        ancestor chain is indexed directly: O(1) once the chain exists.
        """
        own = self.level
        if not 0 <= level <= own:
            raise SplidError(
                f"{self} is at level {own}, cannot take ancestor at {level}"
            )
        if level == own:
            return self
        return self._ancestor_chain()[own - 1 - level]

    def is_ancestor_of(self, other: "Splid") -> bool:
        """Strict ancestor test via prefix comparison (no document access)."""
        mine = self._divisions
        theirs = other._divisions
        return len(mine) < len(theirs) and theirs[: len(mine)] == mine

    def is_descendant_of(self, other: "Splid") -> bool:
        return other.is_ancestor_of(self)

    def is_self_or_descendant_of(self, other: "Splid") -> bool:
        return self is other or self == other or other.is_ancestor_of(self)

    def common_ancestor(self, other: "Splid") -> "Splid":
        """The lowest common ancestor-or-self of two labels."""
        mine = self._divisions
        theirs = other._divisions
        shared = 0
        for a, b in zip(mine, theirs):
            if a != b:
                break
            shared += 1
        while shared and mine[shared - 1] % 2 == 0:
            shared -= 1
        if not shared:
            raise SplidError("labels do not share the document root")
        return Splid._from_divisions(mine[:shared])

    def child(self, division: int) -> "Splid":
        """Append a single (odd) division, producing a child label."""
        division = int(division)
        if division % 2 == 0:
            raise SplidError("child labels must use an odd division")
        if division < 1:
            raise SplidError(f"division values must be >= 1, got {division}")
        return Splid._from_divisions(self._divisions + (division,))

    def with_suffix(self, suffix: Sequence[int]) -> "Splid":
        """Append a division suffix (used by the allocator)."""
        tail = tuple(int(d) for d in suffix)
        if not tail:
            return self
        for d in tail:
            if d < 1:
                raise SplidError(f"division values must be >= 1, got {d}")
        if tail[-1] % 2 == 0:
            raise SplidError(
                f"a SPLID must end with an odd division, got "
                f"{self._divisions + tail!r}"
            )
        return Splid._from_divisions(self._divisions + tail)

    @property
    def attribute_root(self) -> "Splid":
        """Label of this element's attribute root (division 1 child)."""
        return Splid._from_divisions(self._divisions + (META_DIVISION,))

    @property
    def string_node(self) -> "Splid":
        """Label of the string node below a text or attribute node."""
        return Splid._from_divisions(self._divisions + (META_DIVISION,))

    def local_suffix(self, ancestor: "Splid") -> Tuple[int, ...]:
        """The division suffix of this label below ``ancestor``."""
        if not ancestor.is_ancestor_of(self):
            raise SplidError(f"{ancestor} is not an ancestor of {self}")
        return self._divisions[len(ancestor._divisions):]

    # -- ordering / identity -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions == other._divisions

    def __ne__(self, other: object) -> bool:
        if self is other:
            return False
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions != other._divisions

    def __lt__(self, other: "Splid") -> bool:
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions < other._divisions

    def __le__(self, other: "Splid") -> bool:
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions <= other._divisions

    def __gt__(self, other: "Splid") -> bool:
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions > other._divisions

    def __ge__(self, other: "Splid") -> bool:
        if not isinstance(other, Splid):
            return NotImplemented
        return self._divisions >= other._divisions

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return ".".join(map(str, self._divisions))

    def __repr__(self) -> str:
        return f"Splid({self})"

    def __reduce__(self):
        # Re-enter the interning constructor on unpickle (cached lazy
        # fields are recomputed, not shipped).
        return (Splid, (self._divisions,))


def document_order(labels: Sequence[Splid]) -> list:
    """Return the labels sorted in document order (convenience helper)."""
    return sorted(labels)
