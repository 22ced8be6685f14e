"""TaMix: the paper's XML benchmark framework (Section 4)."""

from repro.tamix.bibgen import BibInfo, generate_bib, load_bib
from repro.tamix.cluster import (
    CLUSTER1_MIX,
    make_database,
    run_cluster1,
    run_cluster2,
)
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.tamix.metrics import RunResult, TypeMetrics
from repro.tamix.sweep import SweepRunner, SweepSpec
from repro.tamix.transactions import TRANSACTION_TYPES

__all__ = [
    "BibInfo",
    "CLUSTER1_MIX",
    "RunResult",
    "SweepRunner",
    "SweepSpec",
    "TRANSACTION_TYPES",
    "TaMixConfig",
    "TaMixCoordinator",
    "TypeMetrics",
    "generate_bib",
    "load_bib",
    "make_database",
    "run_cluster1",
    "run_cluster2",
]
