"""The paper's primary contribution: 11 XML lock protocols.

* :mod:`repro.core.modes` -- mode tables, compatibility/conversion
  matrices, and the coverage algebra that derives the extended taDOM
  tables the paper could not print.
* :mod:`repro.core.tables` -- the concrete matrices (Figures 2, 3a, 4,
  verbatim) plus the reconstructed taDOM2+/taDOM3/taDOM3+ tables.
* :mod:`repro.core.protocol` -- the meta-synchronization interface
  (Section 3.3): abstract lock requests and the protocol contract.
* Protocol groups: :mod:`repro.core.node2pl` (*-2PL),
  :mod:`repro.core.node2pla`, :mod:`repro.core.mgl` (MGL*),
  :mod:`repro.core.tadom` (taDOM*).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".modes": ("Conversion", "ModeTable"),
    ".protocol": ("Access", "CONTENT_SPACE", "EDGE_SPACE", "EdgeRole",
                  "ID_SPACE", "LockPlan", "LockProtocol", "LockStep",
                  "MetaOp", "MetaRequest", "NODE_SPACE", "READ_OPS",
                  "STRUCT_SPACE"),
    ".registry": ("ALL_PROTOCOLS", "GROUPS", "depth_aware_protocols",
                  "get_protocol", "group_of", "protocol_names"),
})

__all__ = [
    "ALL_PROTOCOLS",
    "Access",
    "CONTENT_SPACE",
    "Conversion",
    "EDGE_SPACE",
    "EdgeRole",
    "GROUPS",
    "ID_SPACE",
    "LockPlan",
    "LockProtocol",
    "LockStep",
    "MetaOp",
    "MetaRequest",
    "ModeTable",
    "NODE_SPACE",
    "READ_OPS",
    "STRUCT_SPACE",
    "depth_aware_protocols",
    "get_protocol",
    "group_of",
    "protocol_names",
]
