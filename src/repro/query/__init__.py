"""Declarative queries mapped to the navigational access model.

An XPath-1.0 subset evaluated through the node manager, so the active
lock protocol isolates query results exactly like navigation (Section 1
of the paper: declarative languages must map to navigation for
fine-granular concurrency control).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".ast": ("Axis", "NodeTest", "Path", "Predicate", "Step", "TestKind"),
    ".engine": ("QueryProcessor", "evaluate_raw"),
    ".parser": ("QueryError", "parse_path"),
})

__all__ = [
    "Axis",
    "NodeTest",
    "Path",
    "Predicate",
    "QueryError",
    "QueryProcessor",
    "Step",
    "TestKind",
    "evaluate_raw",
    "parse_path",
]
