"""Concurrency substrate: the deterministic discrete-event simulator."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".costs": ("DEFAULT_COSTS", "CostModel"),
    ".simulator": ("Delay", "SimulationError", "Simulator", "run_sync"),
})

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "Delay",
    "SimulationError",
    "Simulator",
    "run_sync",
]
