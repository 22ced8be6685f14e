"""TaMix: the paper's XML benchmark framework (Section 4)."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".bibgen": ("BibInfo", "generate_bib", "load_bib"),
    ".cluster": ("CLUSTER1_MIX", "make_database", "run_cluster1",
                 "run_cluster2"),
    ".coordinator": ("TaMixConfig", "TaMixCoordinator"),
    ".metrics": ("RunResult", "TypeMetrics"),
    ".sweep": ("SweepRunner", "SweepSpec"),
    ".transactions": ("TRANSACTION_TYPES",),
})

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
