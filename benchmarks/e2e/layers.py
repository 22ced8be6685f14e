"""The module -> layer map, and folding a cProfile run into it.

The traced run installs ``cProfile`` from the benchmark's files (nothing
under ``src/`` is edited) and attributes every function's *self* time to
one layer by its source path.  C built-ins have no source path: their
self time goes to the layer of the Python function that called them,
except the blocking calls listed in :data:`IO_WAIT_BUILTINS`, which form
the ``io.wait`` layer.  Everything outside ``src/repro`` (stdlib,
asyncio, the benchmark's own driver code) is ``other``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

LAYERS: Tuple[str, ...] = (
    "splid", "core", "locking", "storage", "dom", "txn", "wal", "query",
    "sched", "tamix", "wire", "server", "client", "router", "transport",
    "shard", "obs", "verify", "io.wait", "other",
)

#: Paths relative to ``src/repro``.  A key ending in ``/`` covers a whole
#: package; a file key overrides the package it sits in.  A module that
#: matches no key is an error (``test_bench.py`` fails on it), so a new
#: module has to be given a layer before it can be measured.
MODULE_LAYERS: Dict[str, str] = {
    "splid/": "splid",
    "core/": "core",
    "locking/": "locking",
    "storage/": "storage",
    "dom/": "dom",
    "txn/": "txn",
    "txn/wal.py": "wal",
    "database.py": "txn",
    "session.py": "txn",
    "query/": "query",
    "sched/": "sched",
    "tamix/": "tamix",
    "net/__init__.py": "wire",
    "net/wire.py": "wire",
    "net/server.py": "server",
    "net/client.py": "client",
    "net/loadgen.py": "client",
    "shard/__init__.py": "router",
    "shard/router.py": "router",
    "shard/partition.py": "router",
    "shard/runner.py": "router",
    "shard/chaosrun.py": "router",
    "shard/transport.py": "transport",
    "shard/supervisor.py": "transport",
    "shard/chaos.py": "transport",
    "shard/shard.py": "shard",
    "shard/messages.py": "shard",
    "obs/": "obs",
    "verify/": "verify",
    "chaos/": "other",
    "cli.py": "other",
    "errors.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
}

#: Substrings of cProfile's names for C functions that block on a peer or
#: on the file system: socket and pipe traffic, readiness polling, the WAL
#: file write + rename, and sleeping out a retry backoff.
IO_WAIT_BUILTINS: Tuple[str, ...] = (
    "of '_socket.socket' objects>",
    "of 'select.epoll' objects>",
    "of 'select.poll' objects>",
    "select.select>",
    "posix.read>",
    "posix.write>",
    "posix.replace>",
    "posix.fsync>",
    "of '_io.BufferedWriter' objects>",
    "of '_io.FileIO' objects>",
    "method io.open>",
    "method _io.open>",
    "time.sleep>",
)


def layer_of_module(relative: str) -> str:
    """Layer of one ``src/repro``-relative module path (``KeyError`` if
    the map does not cover it)."""
    layer = MODULE_LAYERS.get(relative)
    if layer is None:
        layer = MODULE_LAYERS.get(relative.partition("/")[0] + "/")
    if layer is None:
        raise KeyError(f"src/repro/{relative} has no layer in MODULE_LAYERS")
    return layer


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> str:
    """Layer of a source file; anything outside ``src/repro`` is other."""
    try:
        relative = Path(filename).resolve().relative_to(PACKAGE)
    except (ValueError, OSError):
        return "other"
    return layer_of_module(relative.as_posix())


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def _is_io_wait(func: Tuple[str, int, str]) -> bool:
    name = func[2]
    return any(marker in name for marker in IO_WAIT_BUILTINS)


def _layer_of_func(func: Tuple[str, int, str]) -> Optional[str]:
    """Layer of a profiled function; ``None`` for a non-blocking C
    built-in, whose time belongs to whoever called it."""
    if _is_builtin(func):
        return "io.wait" if _is_io_wait(func) else None
    return layer_of_file(func[0])


def fold(profiles: Iterable[cProfile.Profile]) -> Dict[str, dict]:
    """Fold profiles into per-layer self time, call counts and the
    caller-layer -> callee-layer edge table (calls, cumulative s)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: Dict[str, Dict[str, float]] = {}
    profiles = list(profiles)
    stats = pstats.Stats(*profiles).stats if profiles else {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = _layer_of_func(func)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
        elif not callers:
            self_s["other"] += tt
        for caller, (edge_nc, _edge_cc, edge_tt, edge_ct) in callers.items():
            caller_layer = _layer_of_func(caller) or "other"
            if layer is None:
                # A plain built-in: its self time is its caller's.
                self_s[caller_layer] += edge_tt
            elif caller_layer != layer:
                edge = edges.setdefault(
                    f"{caller_layer}->{layer}", {"calls": 0, "cum_s": 0.0}
                )
                edge["calls"] += edge_nc
                edge["cum_s"] += edge_ct
    return {"self_s": self_s, "calls": calls, "edges": edges,
            "top": _top_functions(stats)}


def _top_functions(stats: dict, limit: int = 25) -> List[dict]:
    """The ``src/repro`` functions with the most cumulative time, so a
    layer's share can be traced to the function that caused it."""
    rows = [
        {"function": f"{Path(func[0]).resolve().relative_to(SRC)}:{func[2]}",
         "calls": nc, "self_s": tt, "cum_s": ct}
        for func, (_cc, nc, tt, ct, _callers) in stats.items()
        if not _is_builtin(func) and layer_of_file(func[0]) != "other"
    ]
    rows.sort(key=lambda row: -row["cum_s"])
    return rows[:limit]


def merge_folds(folds: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
    """Sum folds taken in different threads or processes."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: Dict[str, Dict[str, float]] = {}
    top: List[dict] = []
    for one in folds:
        top.extend(one["top"])
        for layer in LAYERS:
            self_s[layer] += one["self_s"][layer]
            calls[layer] += one["calls"][layer]
        for key, edge in one["edges"].items():
            into = edges.setdefault(key, {"calls": 0, "cum_s": 0.0})
            into["calls"] += edge["calls"]
            into["cum_s"] += edge["cum_s"]
    top.sort(key=lambda row: -row["cum_s"])
    return {"self_s": self_s, "calls": calls, "edges": edges, "top": top}


def shares(folded: Dict[str, dict]) -> Dict[str, float]:
    """Each layer's self time as a share of all traced self time."""
    total = sum(folded["self_s"].values())
    if total <= 0.0:
        return dict.fromkeys(LAYERS, 0.0)
    return {layer: folded["self_s"][layer] / total for layer in LAYERS}
