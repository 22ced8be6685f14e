"""Concurrency substrate: the deterministic discrete-event simulator."""

from repro.sched.costs import DEFAULT_COSTS, CostModel
from repro.sched.simulator import Delay, SimulationError, Simulator, run_sync

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "Delay",
    "SimulationError",
    "Simulator",
    "run_sync",
]
