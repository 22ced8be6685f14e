"""Cold start: what a fresh interpreter loads to import, run or ask for help.

Every package resolves its exported names on first use, so an embedded
run loads only the layers it drives.  Each case runs in a fresh
interpreter and reads ``sys.modules`` there; the counts are exact and
no host load can move them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Layers an embedded sweep never drives.
FOREIGN_LAYERS = ("repro.net", "repro.shard", "repro.query", "repro.verify")
#: Modules of driven layers that only other commands need.
FOREIGN_MODULES = (
    "repro.chaos.engine", "repro.chaos.runner",
    "repro.obs.analysis", "repro.obs.prom", "repro.obs.spans",
    "repro.obs.timeseries",
    "repro.dom.parser", "repro.dom.serializer",
)
#: Standard-library modules of the server, shard and pool paths.
HEAVY_STDLIB = (
    "asyncio", "ssl", "socket", "selectors", "subprocess",
    "multiprocessing", "concurrent.futures", "logging",
)

SWEEP_RUN = """
from repro.tamix.sweep import SweepRunner, SweepSpec
SweepRunner(SweepSpec(protocols=("taDOM3+",), lock_depths=(4,), scale=0.02,
                      run_duration_ms=500.0, base_seed=7)).run()
"""
CLI_HELP = """
import runpy
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


def loaded_after(body: str) -> set:
    """The modules a fresh interpreter loads, past its own start-up, to
    run ``body``."""
    code = (
        f"import sys; started = set(sys.modules); "
        f"sys.path.insert(0, {str(SRC)!r})\n{body}\n"
        "print(' '.join(sorted(set(sys.modules) - started)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    return set(out.splitlines()[-1].split())


def repro_modules(modules: set) -> set:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def test_import_repro_loads_only_the_error_taxonomy():
    assert repro_modules(loaded_after("import repro")) == {
        "repro", "repro.errors"
    }


@pytest.mark.parametrize("body", [
    "import repro.tamix.sweep", SWEEP_RUN, CLI_HELP,
], ids=["import-sweep", "one-cell-sweep", "cli-help"])
def test_embedded_paths_leave_the_other_layers_unloaded(body):
    modules = loaded_after(body)
    foreign = sorted(
        m for m in repro_modules(modules)
        if m in FOREIGN_MODULES
        or any(m == layer or m.startswith(layer + ".")
               for layer in FOREIGN_LAYERS)
    )
    assert foreign == []
    assert sorted(m for m in HEAVY_STDLIB if m in modules) == []


def test_import_sweep_loads_at_most_55_repro_modules():
    assert len(repro_modules(loaded_after("import repro.tamix.sweep"))) <= 55
