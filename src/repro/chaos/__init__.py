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

from repro.chaos.engine import ChaosEngine
from repro.chaos.retry import (
    ADMIT,
    QUEUE,
    SHED,
    AdmissionController,
    AdmissionPolicy,
    RetryPolicy,
)
from repro.chaos.schedule import (
    BUILTIN_SCHEDULES,
    FaultRule,
    FaultSchedule,
    load_schedule,
    schedule_names,
)

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


def __getattr__(name):
    # run_chaos lives in repro.chaos.runner, which imports repro.tamix --
    # and repro.tamix.coordinator imports repro.chaos.retry.  Loading the
    # runner lazily (PEP 562) keeps this package importable from inside
    # the coordinator without a cycle.
    if name in ("run_chaos", "ChaosReport"):
        from repro.chaos import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
