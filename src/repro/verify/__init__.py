"""repro.verify -- the correctness-verification subsystem.

The paper's contest measures *throughput*; this package checks that the
histories behind those numbers are actually correct.  Two halves:

* the **history oracle** (:mod:`repro.verify.history` +
  :mod:`repro.verify.oracle`): rebuild the operation/lock history of a
  run from its event trace (``op.access`` events, enabled via
  ``Observability(access_events=True)``) and assert
  conflict-serializability of the committed schedule, lock-protocol
  conformance of every data access, and two-phase discipline;
* the **crash-point fault-injection harness**
  (:mod:`repro.verify.faults`): simulate a crash at every log-prefix
  boundary (after BEGIN, mid-operation batch, after the COMMIT append
  but before lock release, mid-checkpoint) plus torn-tail byte
  truncations, run recovery, and assert the recovered document is
  bit-identical to the committed-prefix reference.

Both are wired into the ``repro`` CLI (``repro verify``) and the TaMix
sweep (``repro sweep --verify``); see ``docs/correctness.md``.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".faults": ("CrashPoint", "CrashReport", "canonical_image",
                "run_crash_suite"),
    ".history": ("Access", "RunHistory", "TxnRecord"),
    ".oracle": ("OracleReport", "Violation", "verify_history",
                "verify_trace"),
})

__all__ = [
    "Access",
    "RunHistory",
    "TxnRecord",
    "OracleReport",
    "Violation",
    "verify_history",
    "verify_trace",
    "CrashPoint",
    "CrashReport",
    "canonical_image",
    "run_crash_suite",
]
