"""Node records: the serialized value part of a document-store entry.

A B*-tree entry is "the byte representation of the SPLID as the key part
and the byte representation of the actual node as the value part"
(Section 3.2).  A record carries the taDOM node kind, the vocabulary
surrogate of its name (elements/attributes), and the content payload
(string nodes).

The wire format is:  1 byte kind | 2 bytes surrogate | content bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.errors import StorageError


class NodeKind(IntEnum):
    """The node kinds of the taDOM storage model (Figure 5)."""

    ELEMENT = 1
    ATTRIBUTE_ROOT = 2
    ATTRIBUTE = 3
    TEXT = 4
    STRING = 5
    DOCUMENT = 6


#: Kind byte -> ``NodeKind``: a dict lookup, not the enum's value call.
KIND_BY_VALUE = {kind.value: kind for kind in NodeKind}

#: Surrogate placeholder for kinds that carry no name.
NO_NAME = 0xFFFF


@dataclass(frozen=True)
class NodeRecord:
    """One stored node: kind + name surrogate + content payload."""

    kind: NodeKind
    name_surrogate: int = NO_NAME
    content: bytes = b""

    def encode(self) -> bytes:
        if not 0 <= self.name_surrogate <= NO_NAME:
            raise StorageError(f"surrogate {self.name_surrogate} out of range")
        return (
            bytes((self.kind,))
            + self.name_surrogate.to_bytes(2, "big")
            + self.content
        )

    @classmethod
    def decode(cls, data: bytes) -> "NodeRecord":
        if len(data) < 3:
            raise StorageError(f"node record too short: {len(data)} bytes")
        kind = KIND_BY_VALUE.get(data[0])
        if kind is None:
            raise StorageError(f"unknown node kind {data[0]}")
        return cls(kind, (data[1] << 8) | data[2], bytes(data[3:]))

    # -- convenience constructors ------------------------------------------

    @classmethod
    def element(cls, surrogate: int) -> "NodeRecord":
        return cls(NodeKind.ELEMENT, surrogate)

    @classmethod
    def attribute_root(cls) -> "NodeRecord":
        return cls(NodeKind.ATTRIBUTE_ROOT)

    @classmethod
    def attribute(cls, surrogate: int) -> "NodeRecord":
        return cls(NodeKind.ATTRIBUTE, surrogate)

    @classmethod
    def text(cls) -> "NodeRecord":
        return cls(NodeKind.TEXT)

    @classmethod
    def string(cls, content: str) -> "NodeRecord":
        return cls(NodeKind.STRING, NO_NAME, content.encode("utf-8"))

    @property
    def text_content(self) -> Optional[str]:
        if self.kind is not NodeKind.STRING:
            return None
        return self.content.decode("utf-8")

    def renamed(self, surrogate: int) -> "NodeRecord":
        """Copy with a new name surrogate (DOM3 renameNode)."""
        return NodeRecord(self.kind, surrogate, self.content)

    def with_content(self, content: str) -> "NodeRecord":
        """Copy with replaced string content."""
        return NodeRecord(self.kind, self.name_surrogate, content.encode("utf-8"))
