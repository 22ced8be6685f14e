"""Deterministic discrete-event simulator for concurrent transactions.

This is the concurrency substitution documented in DESIGN.md: transactions
run as generator coroutines; simulated time advances only through the
effects they yield, so every run is exactly reproducible.

A process may yield two kinds of effects:

* :class:`Delay` -- simulated milliseconds pass (CPU work, disk I/O,
  client think time);
* a :class:`~repro.locking.lock_table.WaitTicket` -- the transaction is
  blocked in the lock table; the simulator parks it and resumes it at the
  simulated instant another process's release grants the request.

Everything a process does between two yields is atomic in simulated time,
which mirrors a latch-protected lock manager and makes the lock table safe
to share without real synchronization.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import LockTimeout, ReproError
from repro.locking.lock_table import WaitTicket


@dataclass(frozen=True)
class Delay:
    """Let ``ms`` simulated milliseconds pass."""

    ms: float


class SimulationError(ReproError):
    """A process yielded something the simulator does not understand."""


class _Process:
    __slots__ = ("generator", "name", "done")

    def __init__(self, generator: Generator, name: str):
        self.generator = generator
        self.name = name
        self.done = False


class _Timeout:
    """A scheduled lock-wait timeout check."""

    __slots__ = ("fire",)

    def __init__(self, fire: Callable[[], None]):
        self.fire = fire


class Simulator:
    """Event loop over (time, sequence, process) tuples."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, _Process]] = []
        self._seq = 0
        self._processes: List[_Process] = []

    # -- public API ----------------------------------------------------------

    def spawn(
        self, generator: Generator, *, name: str = "process", at: float = 0.0
    ) -> None:
        """Register a process; it first runs at simulated time ``at``."""
        process = _Process(generator, name)
        self._processes.append(process)
        self._schedule(max(at, self.now), process)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or ``until`` is passed.

        Returns the final simulated time.  Processes still alive when the
        horizon is reached are simply not resumed further (TaMix closes
        its run this way after the configured duration).
        """
        while self._heap:
            time, _seq, process = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            if isinstance(process, _Timeout):
                process.fire()
            else:
                self._step(process)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    # -- internals -----------------------------------------------------------------

    def _schedule(self, time: float, process: _Process) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, process))

    def _step(self, process: _Process) -> None:
        if process.done:
            return
        try:
            effect = next(process.generator)
        except StopIteration:
            process.done = True
            return
        self._handle_effect(process, effect)

    def _handle_effect(self, process: _Process, effect: Any) -> None:
        while True:
            if isinstance(effect, Delay):
                if effect.ms < 0:
                    raise SimulationError(f"negative delay {effect.ms}")
                self._schedule(self.now + effect.ms, process)
                return
            if isinstance(effect, WaitTicket):
                if effect.granted:
                    # Granted between request and yield: continue at once.
                    try:
                        effect = next(process.generator)
                    except StopIteration:
                        process.done = True
                        return
                    continue
                self._park(process, effect)
                return
            raise SimulationError(
                f"process {process.name} yielded {effect!r}; expected "
                "Delay or WaitTicket"
            )

    def _park(self, process: _Process, ticket: WaitTicket) -> None:
        settled = {"done": False}

        def on_grant(_ticket: WaitTicket) -> None:
            if settled["done"]:
                return
            settled["done"] = True
            self._schedule(self.now, process)

        ticket.on_grant = on_grant
        if ticket.timeout_ms is not None:
            self._schedule_timeout(process, ticket, settled)

    def _schedule_timeout(self, process: _Process, ticket: WaitTicket,
                          settled: dict) -> None:
        deadline = self.now + (ticket.timeout_ms or 0.0)

        def fire() -> None:
            if settled["done"] or ticket.granted or ticket.cancelled:
                return
            settled["done"] = True
            if ticket.cancel is not None:
                ticket.cancel()
            self._throw(process, LockTimeout(
                f"lock wait timed out after {ticket.timeout_ms} ms "
                f"on {ticket.resource}",
                resource=ticket.resource,
                timeout_ms=ticket.timeout_ms,
            ))

        self._seq += 1
        heapq.heappush(self._heap, (deadline, self._seq, _Timeout(fire)))

    def _throw(self, process: _Process, error: BaseException) -> None:
        if process.done:
            return
        try:
            effect = process.generator.throw(error)
        except StopIteration:
            process.done = True
            return
        self._handle_effect(process, effect)


def run_sync(generator: Generator) -> Tuple[Any, float]:
    """Drive a transaction generator without concurrency.

    Delays advance a local clock; a blocking lock wait is an error (there
    is no one to release the lock).  Returns ``(result, elapsed_ms)`` --
    used by single-user examples and by CLUSTER2-style measurements.
    """
    elapsed = 0.0
    try:
        effect = next(generator)
        while True:
            if isinstance(effect, Delay):
                elapsed += effect.ms
                effect = generator.send(None)
            elif isinstance(effect, WaitTicket):
                if not effect.granted:
                    raise SimulationError(
                        "transaction would block in single-user mode "
                        f"(waiting for {effect.resource})"
                    )
                effect = generator.send(None)
            else:
                raise SimulationError(f"unexpected effect {effect!r}")
    except StopIteration as stop:
        return stop.value, elapsed
