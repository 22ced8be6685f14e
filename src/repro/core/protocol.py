"""Meta-synchronization: abstract lock requests and the protocol interface.

Section 3.3: the XTC node manager does not know lock modes.  It issues
*meta-lock requests* -- node/level/subtree/edge locks in read, update, or
exclusive flavour plus a release policy -- and the pluggable
:class:`LockProtocol` maps each request onto concrete lock acquisitions.
Exchanging the protocol object exchanges the complete XML locking
mechanism, which is how the paper runs 11 protocols in one system.

A protocol's :meth:`LockProtocol.plan` returns a :class:`LockPlan`:

* ``steps`` -- concrete ``(lock space, resource, mode)`` acquisitions, in
  order (ancestor intention locks first, context lock last);
* ``traverse_individually`` -- the protocol has no subtree locks, so the
  node manager must visit the subtree node by node (the *-2PL group);
* ``scan_ids`` -- before a subtree delete the protocol needs IDX locks on
  every ID-owning element inside (the *-2PL group's expensive CLUSTER2
  behaviour: the scan runs through the node manager and may hit disk).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.splid import Splid


class MetaOp(Enum):
    """The meta-lock request vocabulary of the node manager."""

    READ_NODE = "read_node"            # navigation / jump target read
    READ_CONTENT = "read_content"      # read a text/attribute value
    READ_LEVEL = "read_level"          # getChildNodes / getAttributes
    READ_SUBTREE = "read_subtree"      # getFragment, full subtree read
    UPDATE_NODE = "update_node"        # update intent (U-style lock)
    WRITE_CONTENT = "write_content"    # change a text/attribute value
    RENAME_NODE = "rename_node"        # DOM3 renameNode
    INSERT_CHILD = "insert_child"      # structural insert (target = new node)
    DELETE_SUBTREE = "delete_subtree"  # structural delete of a subtree
    READ_EDGE = "read_edge"            # traverse a navigation edge
    WRITE_EDGE = "write_edge"          # modify a navigation edge


#: Meta ops that only read; isolation levels *none*/*uncommitted* skip
#: their locks entirely, *committed* releases them at end of operation.
READ_OPS = frozenset(
    {
        MetaOp.READ_NODE,
        MetaOp.READ_CONTENT,
        MetaOp.READ_LEVEL,
        MetaOp.READ_SUBTREE,
        MetaOp.READ_EDGE,
    }
)


class EdgeRole(Enum):
    """The four logical navigation edges of Section 1."""

    FIRST_CHILD = "first_child"
    LAST_CHILD = "last_child"
    NEXT_SIBLING = "next_sibling"
    PREV_SIBLING = "prev_sibling"


class Access(Enum):
    """How the target node was reached -- the *-2PL group locks direct
    jumps (IDR/IDX) differently from navigated accesses (T-paths)."""

    NAVIGATION = "navigation"
    JUMP = "jump"


@dataclass(frozen=True)
class MetaRequest:
    """One abstract lock request from the node manager.

    A protocol's plan depends on the request only through its *shape*
    (op, access, role, whether there is an id value, the target's level,
    and the numbers of children and affected nodes); the labels and the
    id value only fill in the lock keys.  The lock manager relies on this
    to compile one plan template per shape.
    """

    op: MetaOp
    target: Splid
    access: Access = Access.NAVIGATION
    #: For edge requests: the edge (origin is ``target``, direction ``role``).
    role: Optional[EdgeRole] = None
    #: For READ_LEVEL: the children, so protocols without level locks can
    #: lock them individually (the fan-out taDOM's LR avoids).
    children: Tuple[Splid, ...] = ()
    #: For structural updates: the adjacent nodes whose neighbourhood
    #: changes (NO2PL locks exactly these).
    affected: Tuple[Splid, ...] = ()
    #: For direct jumps: the ID value used (IDR/IDX locks are keyed by
    #: value so they survive index-entry removal).
    id_value: Optional[str] = None

    @property
    def is_read(self) -> bool:
        return self.op in READ_OPS


# -- lock plans --------------------------------------------------------------

#: Lock spaces: independent resource namespaces with their own tables.
NODE_SPACE = "node"
STRUCT_SPACE = "struct"
CONTENT_SPACE = "content"
ID_SPACE = "id"
EDGE_SPACE = "edge"
#: Key-range locks on the ID index (serializable isolation, taDOM* only).
ID_KEY_SPACE = "idkey"


@dataclass(frozen=True)
class LockStep:
    """One concrete lock acquisition."""

    space: str
    key: object            # Splid, or (Splid, EdgeRole) in the edge space
    mode: str

    def __str__(self) -> str:
        return f"{self.mode}({self.space}:{self.key})"


@dataclass
class LockPlan:
    """The concrete acquisitions answering one meta request."""

    steps: List[LockStep] = field(default_factory=list)
    #: Subtree ops must be decomposed into per-node visits (*-2PL group).
    traverse_individually: bool = False
    #: Root of the subtree that must be scanned for ID-owning elements,
    #: IDX-locking each, before a delete (*-2PL group).
    scan_ids: Optional[Splid] = None

    def add(self, space: str, key: object, mode: str) -> None:
        self.steps.append(LockStep(space, key, mode))


class LockProtocol(ABC):
    """One of the paper's 11 protocols: meta requests -> lock plans."""

    #: Protocol name as used in the paper's figures.
    name: str = "abstract"
    #: Group label: "*-2PL", "MGL*", or "taDOM*".
    group: str = "abstract"
    #: Whether the lock-depth parameter applies (all but Node2PL/NO2PL/OO2PL).
    supports_lock_depth: bool = True
    #: Protocols without intention locks cannot protect direct jumps along
    #: the ancestor path; their node manager must reach targets by
    #: navigating from the document root (the *-2PL group).
    requires_root_navigation: bool = False
    #: Protocols without subtree locks decompose subtree reads into
    #: per-node visits (the *-2PL group).
    traverses_subtrees: bool = False
    #: Only the taDOM* group offers isolation level serializable
    #: (footnote 1 of the paper).
    supports_serializable: bool = False

    @abstractmethod
    def tables(self) -> dict:
        """Mapping of lock space -> :class:`ModeTable` used by this protocol."""

    @abstractmethod
    def plan(self, request: MetaRequest, lock_depth: int) -> LockPlan:
        """Concrete acquisitions for ``request`` under ``lock_depth``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def anchored_target(target: Splid, lock_depth: int) -> Tuple[Splid, bool]:
        """Apply the lock-depth parameter (footnote 2 of the paper).

        Individual locks are acquired for nodes up to level ``lock_depth``;
        anything deeper is covered by a subtree lock at the level-``depth``
        ancestor.  Returns ``(anchor, escalated)``.
        """
        if target.level <= lock_depth:
            return target, False
        return target.ancestor_at_level(lock_depth), True
