"""Lock modes, compatibility matrices, conversion matrices, mode algebra.

Every lock protocol is driven by a :class:`ModeTable`: the set of its lock
modes, a *compatibility* relation (may two transactions hold these modes on
the same resource?), and a *conversion* function (which single mode replaces
a held + requested pair -- the paper keeps one lock per transaction and
node, Section 2.3).

Conversions may carry a **child action**: the paper's subscripted results
such as ``CX[NR]`` (the paper's CX_NR) mean "take CX on the node and NR on
every direct child".  The lock manager surfaces the child mode to the node manager,
which enumerates the children (a real document access) and locks them --
this fan-out is exactly the cost the taDOM2+/taDOM3+ combination modes
avoid.

Tables can be written out explicitly (URIX from Figure 2, taDOM2 from
Figures 3a/4) or *derived*: each mode carries a set of abstract privileges
(its *coverage*), and the conversion of two modes is the least mode whose
coverage includes both -- falling back to distributing level/subtree read
privileges to the children when no single mode suffices.  The derived
taDOM2 matrix is checked cell-by-cell against the paper's Figure 4 in the
test suite, which validates the algebra before it is used to build the
extended taDOM2+/taDOM3/taDOM3+ tables the paper could not print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import LockError

# -- privileges --------------------------------------------------------------

#: Abstract privileges used for coverage-based conversion derivation.
#: ``*_read``/``*_write`` describe what the holder may do; ``intent_*``
#: announce operations deeper in the tree.
PRIVILEGES = (
    "intent_read",
    "node_read",
    "level_read",
    "subtree_read",
    "intent_write",
    "child_exclusive",
    "subtree_update",
    "subtree_write",
    "node_update",
    "node_write",
)

#: Privileges that can be pushed down to the direct children when no single
#: mode covers the union (LR -> NR per child, SR -> SR per child).
_DISTRIBUTABLE = frozenset({"level_read", "subtree_read"})

#: Privileges that make a mode a *write* mode (kept long under every
#: isolation level except NONE).  Lives here so :class:`ModeTable` can
#: classify its modes once at construction; the lock manager re-exports it.
WRITE_PRIVILEGES = frozenset(
    {
        "intent_write",
        "child_exclusive",
        "subtree_update",
        "subtree_write",
        "node_update",
        "node_write",
    }
)

#: A request needing no more than these is a plain node read -- the only
#: requests a *level* read anchor (LR on the parent) can cover.
_PURE_READ_PRIVILEGES = frozenset({"intent_read", "node_read"})


@dataclass(frozen=True)
class Conversion:
    """Result of converting a held lock against a new request."""

    result: str
    child_mode: Optional[str] = None

    @property
    def has_fanout(self) -> bool:
        return self.child_mode is not None

    def __str__(self) -> str:
        if self.child_mode is None:
            return self.result
        return f"{self.result}[{self.child_mode}]"


class ModeTable:
    """Lock modes with compatibility and conversion semantics."""

    def __init__(
        self,
        name: str,
        modes: Sequence[str],
        compatibility: Mapping[Tuple[str, str], bool],
        conversions: Mapping[Tuple[str, str], Conversion],
        coverage: Mapping[str, FrozenSet[str]],
    ):
        self.name = name
        self.modes: Tuple[str, ...] = tuple(modes)
        self._mode_set = frozenset(modes)
        self._compat = dict(compatibility)
        self._convert = dict(conversions)
        self.coverage = {m: frozenset(coverage[m]) for m in modes}
        self._validate()
        # Hot-path caches: the meta-sync front end classifies modes and
        # compares coverages on every lock request, so the frozenset
        # algebra is flattened into per-table lookups once, here.
        #: Modes whose coverage intersects :data:`WRITE_PRIVILEGES`.
        self.write_modes = frozenset(
            m for m in modes if self.coverage[m] & WRITE_PRIVILEGES
        )
        #: Modes that demand nothing beyond a plain node read.
        self.pure_read_modes = frozenset(
            m for m in modes if self.coverage[m] <= _PURE_READ_PRIVILEGES
        )
        #: ``(held, requested)`` pairs where held coverage subsumes the
        #: requested coverage (the transaction-local lock-cache test).
        self._subsumes = frozenset(
            (held, requested)
            for held in modes
            for requested in modes
            if self.coverage[requested] <= self.coverage[held]
        )
        #: mode -> (grants subtree_write, subtree_read, level_read): the
        #: coverage-cache anchor classification of every granted mode.
        self.anchor_flags = {
            m: (
                "subtree_write" in self.coverage[m],
                "subtree_read" in self.coverage[m],
                "level_read" in self.coverage[m],
            )
            for m in modes
        }
        self._build_flat_tables()

    def _build_flat_tables(self) -> None:
        """Flatten the dict-based matrices into integer tables.

        The grant path (``repro.locking``) works on mode *indices*: a
        compatibility probe is one shift-and-mask against a per-requested-
        mode bitmask of compatible held modes, and a conversion is two
        reads from flattened ``n x n`` arrays.  Strings survive only at
        the API boundary (``GrantResult.mode``, tickets, tracing).
        """
        modes = self.modes
        n = len(modes)
        #: Total mode count (row stride of the flattened matrices).
        self.mode_count = n
        #: mode name -> dense index (the order of :attr:`modes`).
        self.mode_index: Dict[str, int] = {m: i for i, m in enumerate(modes)}
        index = self.mode_index
        #: ``compat_mask[r]``: bit ``h`` set iff a *held* mode ``h`` is
        #: compatible with a new request for mode ``r`` (paper matrix
        #: orientation: row = held, column = requested).
        compat_mask = [0] * n
        for (held, requested), ok in self._compat.items():
            if ok:
                compat_mask[index[requested]] |= 1 << index[held]
        self.compat_mask = tuple(compat_mask)
        #: ``conv_result[h * n + r]`` / ``conv_child[h * n + r]``: the
        #: conversion matrix in index form; child is -1 when the cell has
        #: no fan-out.
        conv_result = [0] * (n * n)
        conv_child = [-1] * (n * n)
        for (held, requested), conv in self._convert.items():
            flat = index[held] * n + index[requested]
            conv_result[flat] = index[conv.result]
            if conv.child_mode is not None:
                conv_child[flat] = index[conv.child_mode]
        self.conv_result = tuple(conv_result)
        self.conv_child = tuple(conv_child)
        #: ``subsume_mask[h]``: bit ``r`` set iff holding ``h`` already
        #: grants everything a request for ``r`` needs.
        subsume_mask = [0] * n
        for held, requested in self._subsumes:
            subsume_mask[index[held]] |= 1 << index[requested]
        self.subsume_mask = tuple(subsume_mask)
        #: Bitmask forms of :attr:`write_modes` / :attr:`pure_read_modes`.
        self.write_mask = sum(1 << index[m] for m in self.write_modes)
        self.pure_read_mask = sum(1 << index[m] for m in self.pure_read_modes)
        #: :attr:`anchor_flags` in index order.
        self.anchor_flags_idx = tuple(self.anchor_flags[m] for m in modes)
        self.anchor_any_idx = tuple(any(self.anchor_flags[m]) for m in modes)
        # Which requested modes have *monotone* coverage under this
        # table's lattice?  Bit r is set iff subsumption is reflexive for
        # r and every conversion away from a mode that subsumed r still
        # subsumes r.  For such a request, a lock that once covered it
        # keeps covering it for as long as the transaction releases
        # nothing -- conversions only widen coverage -- which lets the
        # lock manager memoize verified ancestor-chain prefixes (see
        # LockManager._batch_fast).  Not table-global on purpose: taDOM's
        # LR -> CX conversion legitimately drops level-read coverage, but
        # the intention modes used on ancestor paths stay monotone.
        mono = sum(1 << i for i in range(n) if (subsume_mask[i] >> i) & 1)
        for (held, _requested), conv in self._convert.items():
            held_covers = subsume_mask[index[held]]
            lost = held_covers & ~subsume_mask[index[conv.result]]
            mono &= ~lost
        self.chain_mono_mask = mono

    # -- queries -------------------------------------------------------------

    def __contains__(self, mode: str) -> bool:
        return mode in self._mode_set

    def compatible(self, held: str, requested: str) -> bool:
        """May ``requested`` (new transaction) join ``held`` (existing)?

        Matrix orientation follows the paper: row = held, column =
        requested.  Some paper matrices (URIX's U mode) are asymmetric.
        """
        try:
            return self._compat[(held, requested)]
        except KeyError:
            raise LockError(
                f"{self.name}: no compatibility for held={held}, "
                f"requested={requested}"
            ) from None

    def convert(self, held: str, requested: str) -> Conversion:
        """Single replacement mode for a transaction's held + new lock."""
        try:
            return self._convert[(held, requested)]
        except KeyError:
            raise LockError(
                f"{self.name}: no conversion for held={held}, "
                f"requested={requested}"
            ) from None

    def covers(self, mode: str, privileges: Iterable[str]) -> bool:
        return frozenset(privileges) <= self.coverage[mode]

    def subsumes(self, held: str, requested: str) -> bool:
        """Does holding ``held`` already grant everything ``requested``
        needs?  Precomputed for all mode pairs."""
        return (held, requested) in self._subsumes

    def format_compatibility(self) -> str:
        """Render the compatibility matrix in the paper's +/- style."""
        width = max(len(mode) for mode in self.modes) + 1
        header = " " * width + "".join(f"{m:>{width}}" for m in self.modes)
        lines = [f"{self.name} compatibility (row = held, column = requested)",
                 header]
        for held in self.modes:
            cells = "".join(
                f"{'+' if self.compatible(held, req) else '-':>{width}}"
                for req in self.modes
            )
            lines.append(f"{held:<{width}}" + cells)
        return "\n".join(lines)

    def format_conversions(self) -> str:
        """Render the conversion matrix (RESULT[CHILD] for fan-outs)."""
        cell_width = max(
            len(str(self.convert(a, b)))
            for a in self.modes for b in self.modes
        ) + 1
        head_width = max(len(mode) for mode in self.modes) + 1
        header = " " * head_width + "".join(
            f"{m:>{cell_width}}" for m in self.modes
        )
        lines = [f"{self.name} conversion (held + requested -> replacement)",
                 header]
        for held in self.modes:
            cells = "".join(
                f"{str(self.convert(held, req)):>{cell_width}}"
                for req in self.modes
            )
            lines.append(f"{held:<{head_width}}" + cells)
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    def _validate(self) -> None:
        for a in self.modes:
            for b in self.modes:
                if (a, b) not in self._compat:
                    raise LockError(f"{self.name}: missing compat ({a},{b})")
                if (a, b) not in self._convert:
                    raise LockError(f"{self.name}: missing conversion ({a},{b})")
        for (a, b), conv in self._convert.items():
            if conv.result not in self._mode_set:
                raise LockError(
                    f"{self.name}: conversion ({a},{b}) -> unknown {conv.result}"
                )
            if conv.child_mode is not None and conv.child_mode not in self._mode_set:
                raise LockError(
                    f"{self.name}: conversion ({a},{b}) -> unknown child mode "
                    f"{conv.child_mode}"
                )
        for mode, cover in self.coverage.items():
            unknown = cover - set(PRIVILEGES)
            if unknown:
                raise LockError(f"{self.name}: unknown privileges {unknown} in {mode}")


# -- construction helpers -------------------------------------------------------


def compat_from_rows(
    modes: Sequence[str], rows: Mapping[str, str]
) -> Dict[Tuple[str, str], bool]:
    """Parse a compatibility matrix written as '+'/'-' strings.

    ``rows[held]`` is a whitespace-separated string of '+'/'-' symbols, one
    per requested mode in ``modes`` order -- mirroring how the paper prints
    its matrices.
    """
    table: Dict[Tuple[str, str], bool] = {}
    for held in modes:
        symbols = rows[held].split()
        if len(symbols) != len(modes):
            raise LockError(f"row {held}: expected {len(modes)} entries")
        for requested, symbol in zip(modes, symbols):
            if symbol not in "+-":
                raise LockError(f"row {held}: bad symbol {symbol!r}")
            table[(held, requested)] = symbol == "+"
    return table


def conversions_from_rows(
    modes: Sequence[str], rows: Mapping[str, str]
) -> Dict[Tuple[str, str], Conversion]:
    """Parse a conversion matrix of mode names, ``RESULT[CHILD]`` for the
    paper's subscripted child-action cells (e.g. ``CX[NR]`` for CX_NR)."""
    table: Dict[Tuple[str, str], Conversion] = {}
    for held in modes:
        cells = rows[held].split()
        if len(cells) != len(modes):
            raise LockError(f"row {held}: expected {len(modes)} entries")
        for requested, cell in zip(modes, cells):
            if "[" in cell:
                result, child = cell[:-1].split("[")
                table[(held, requested)] = Conversion(result, child)
            else:
                table[(held, requested)] = Conversion(cell)
    return table


def derive_conversions(
    modes: Sequence[str],
    coverage: Mapping[str, FrozenSet[str]],
    *,
    overrides: Optional[Mapping[Tuple[str, str], Conversion]] = None,
) -> Dict[Tuple[str, str], Conversion]:
    """Derive the conversion matrix from mode coverage.

    Resolution order for held ``a`` + requested ``b`` with privilege union
    ``U = coverage[a] | coverage[b]``:

    1. a mode whose coverage is exactly ``U`` (no over-locking) -- e.g.
       NR + IX -> IX, or LR + IX -> LRIX when the combination mode exists;
    2. distribution: push the level/subtree-read privileges down to the
       children (NR or SR per child) if the rest of ``U`` is covered
       exactly -- the paper's CX_NR / IX_SR subscripted rules;
    3. the least mode covering all of ``U`` (a coarse jump such as
       SU + IX -> SX); no child action is needed since the result already
       covers the distributable privileges.
    """
    overrides = dict(overrides or {})
    result: Dict[Tuple[str, str], Conversion] = {}
    for a in modes:
        for b in modes:
            if (a, b) in overrides:
                result[(a, b)] = overrides[(a, b)]
                continue
            union = coverage[a] | coverage[b]
            exact = _exact_covering(modes, coverage, union)
            if exact is not None:
                result[(a, b)] = Conversion(exact)
                continue
            distributable = union & _DISTRIBUTABLE
            if distributable:
                remaining = union - _DISTRIBUTABLE
                node_mode = _exact_covering(modes, coverage, remaining)
                if node_mode is not None:
                    child_privs = (
                        frozenset({"intent_read", "node_read", "level_read",
                                   "subtree_read"})
                        if "subtree_read" in distributable
                        else frozenset({"intent_read", "node_read"})
                    )
                    child_mode = _least_covering(modes, coverage, child_privs)
                    if child_mode is None:
                        raise LockError(f"cannot derive child mode for ({a},{b})")
                    result[(a, b)] = Conversion(node_mode, child_mode)
                    continue
            coarse = _least_covering(modes, coverage, union)
            if coarse is None:
                raise LockError(f"cannot derive conversion ({a},{b})")
            result[(a, b)] = Conversion(coarse)
    return result


def _exact_covering(
    modes: Sequence[str],
    coverage: Mapping[str, FrozenSet[str]],
    privileges: FrozenSet[str],
) -> Optional[str]:
    for mode in modes:
        if coverage[mode] == privileges:
            return mode
    return None


def _least_covering(
    modes: Sequence[str],
    coverage: Mapping[str, FrozenSet[str]],
    privileges: FrozenSet[str],
) -> Optional[str]:
    best: Optional[str] = None
    for mode in modes:
        if privileges <= coverage[mode]:
            if best is None or len(coverage[mode]) < len(coverage[best]):
                best = mode
    return best


def extend_with_combinations(
    name: str,
    base_modes: Sequence[str],
    base_compat: Mapping[Tuple[str, str], bool],
    coverage: Mapping[str, FrozenSet[str]],
    combinations: Mapping[str, Tuple[str, str]],
    *,
    conversion_overrides: Optional[Mapping[Tuple[str, str], Conversion]] = None,
) -> ModeTable:
    """Build an extended table with combination modes (taDOM*+ family).

    A combination mode ``AB = (A, B)`` behaves like holding both parts:
    its coverage is the union, and it is compatible with ``m`` iff both
    parts are.  Conversions for the whole table are re-derived from
    coverage, so pairs such as held ``LR`` + requested ``IX`` now resolve
    to ``LRIX`` *without* a child fan-out.
    """
    parts: Dict[str, Tuple[str, ...]] = {m: (m,) for m in base_modes}
    full_coverage: Dict[str, FrozenSet[str]] = {
        m: frozenset(coverage[m]) for m in base_modes
    }
    for combo, (left, right) in combinations.items():
        if left not in parts or right not in parts:
            raise LockError(f"combination {combo} uses unknown parts")
        parts[combo] = (left, right)
        full_coverage[combo] = full_coverage[left] | full_coverage[right]
    modes = tuple(base_modes) + tuple(combinations)

    compat: Dict[Tuple[str, str], bool] = {}
    for a in modes:
        for b in modes:
            compat[(a, b)] = all(
                base_compat[(pa, pb)] for pa in parts[a] for pb in parts[b]
            )
    conversions = derive_conversions(
        modes, full_coverage, overrides=conversion_overrides
    )
    return ModeTable(name, modes, compat, conversions, full_coverage)
