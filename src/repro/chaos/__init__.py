"""repro.chaos -- deterministic fault injection and retry policies.

Three cooperating pieces:

* **schedules** (:mod:`repro.chaos.schedule`): declarative
  :class:`FaultSchedule`\\ s -- per-operation probabilities or scripted
  exact operation indices, per injection site (page reads, page writes,
  lock acquires), plus built-in named schedules (``ci-small``, ...);
* the **engine** (:mod:`repro.chaos.engine`): :class:`ChaosEngine`
  hooks into ``BufferManager``/``LockManager`` (``None`` hooks cost one
  attribute check when chaos is off) and fires faults deterministically
  from a seed;
* **policies** (:mod:`repro.chaos.retry`): :class:`RetryPolicy`
  (bounded exponential backoff + deterministic jitter, restart budgets)
  and :class:`AdmissionPolicy`/:class:`AdmissionController` (queue/shed
  new work under restart pressure).

:func:`run_chaos` ties it together: a seeded TaMix workload under a
fault schedule, on one node or on a shard plane, verified with the
history oracle and bit-identical WAL recovery.  See
``docs/robustness.md``.
"""

from repro import _lazy_exports

# run_chaos lives in repro.chaos.runner, which imports repro.tamix, whose
# coordinator imports repro.chaos.retry: resolving names on first use
# keeps this package importable from inside the coordinator.
__getattr__, __dir__ = _lazy_exports(__name__, {
    ".engine": ("ChaosEngine",),
    ".retry": ("ADMIT", "QUEUE", "SHED", "AdmissionController",
               "AdmissionPolicy", "RetryPolicy"),
    ".runner": ("ChaosReport", "run_chaos"),
    ".schedule": ("BUILTIN_SCHEDULES", "FaultRule", "FaultSchedule",
                  "load_schedule", "schedule_names"),
})

__all__ = [
    "FaultRule",
    "FaultSchedule",
    "BUILTIN_SCHEDULES",
    "load_schedule",
    "schedule_names",
    "ChaosEngine",
    "RetryPolicy",
    "AdmissionPolicy",
    "AdmissionController",
    "ADMIT",
    "QUEUE",
    "SHED",
    "ChaosReport",
    "run_chaos",
]
