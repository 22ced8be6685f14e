"""The deterministic fault-injection engine.

:class:`ChaosEngine` sits behind the hooks the storage and locking
layers expose (``BufferManager.chaos`` / ``LockManager.chaos``; ``None``
by default, so an uninstalled engine costs one attribute check per
operation).  For every operation at an injection site it advances a
per-site operation counter, consults the :class:`FaultSchedule` (scripted
``at_ops`` first, then the per-site dice), and either lets the operation
through, delays it, or fails it.

Determinism
-----------
Each site owns a private ``random.Random`` seeded from ``(seed, site)``,
advanced exactly once per operation at that site.  Fault decisions are
therefore a pure function of the engine seed and each site's operation
sequence -- independent of wall clock, interleaving of *other* sites, and
tracing.  Two runs of the same seeded workload fire identical faults at
identical operations; :attr:`fault_log` and :meth:`fingerprint` make
that checkable.

Failure semantics
-----------------
* ``transient`` (and ``torn`` writes, whose retry rewrites the whole
  page): the access is retried up to ``retry.max_attempts`` times; each
  retry is a fresh operation at the site (it may fault again) and
  accrues the policy's backoff as simulated latency.  Exhausted retries
  raise :class:`~repro.errors.TransientStorageError` -- the *access*
  failed, but the enclosing transaction is still restartable.
* ``permanent``: raises :class:`~repro.errors.PermanentStorageError`
  immediately.
* ``latency``: the access succeeds after ``latency_ms`` extra simulated
  milliseconds (returned to the buffer manager, which charges it through
  the cost model into simulated time).
* ``timeout``/``deadlock`` (lock site): raises
  :class:`~repro.errors.LockTimeout` /
  :class:`~repro.errors.DeadlockAbort`, which flow through the exact
  abort paths real conflicts use.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from ..errors import (
    DeadlockAbort,
    LockTimeout,
    PermanentStorageError,
    TransientStorageError,
)
from ..obs import CHAOS_FAULT, Observability, txn_label
from .retry import RetryPolicy
from .schedule import SITES, FaultSchedule


class ChaosEngine:
    """Seeded fault injector for the storage and lock layers."""

    def __init__(
        self,
        schedule: FaultSchedule,
        seed: int = 0,
        *,
        retry: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
    ):
        self.schedule = schedule
        self.seed = seed
        self.retry = retry if retry is not None else RetryPolicy()
        self.obs = obs if obs is not None else Observability.disabled()
        self.tracer = self.obs.tracer
        #: Per-site 1-based operation counters.
        self.ops = {site: 0 for site in SITES}
        #: Per-site fault counters, keyed ``f"{site}:{kind}"``.
        self.faults: dict = {}
        #: Chronological record of every fired fault:
        #: ``(site, op_index, kind, detail)`` tuples.
        self.fault_log: list = []
        self._rules = {site: schedule.rules_for(site) for site in SITES}
        self._rngs = {
            site: random.Random(f"{seed}:{site}") for site in SITES
        }
        self._installed_on: list = []

    # -- wiring ---------------------------------------------------------------

    def install(self, database) -> None:
        """Hook the engine into a database's buffer pool and lock manager."""
        database.document.buffer.chaos = self
        database.locks.chaos = self
        self._installed_on.append(database)

    def uninstall(self) -> None:
        """Detach from every database this engine was installed on.

        Final verification (canonical images, checkpointing, recovery)
        must run fault-free, so runners detach the engine first.
        """
        for database in self._installed_on:
            database.document.buffer.chaos = None
            database.locks.chaos = None
        self._installed_on.clear()

    def bind_observability(self, obs: Observability) -> None:
        self.obs = obs
        self.tracer = obs.tracer

    def wants(self, site: str) -> bool:
        """Does the schedule target ``site`` at all?

        Hook installers (``BufferManager.chaos`` / ``LockManager.chaos``)
        consult this so rule-less sites keep their plain fast path: an
        engine scheduled only against storage leaves the lock grant path
        untouched, and vice versa.  A skipped site never reaches
        ``_decide``, so its op counter stays at zero -- fault decisions
        are unaffected because each site owns a private RNG.
        """
        return bool(self._rules.get(site))

    # -- decision core --------------------------------------------------------

    def _decide(self, site: str):
        """Advance the site one operation; return the rule that fires.

        The site RNG is advanced exactly once per operation regardless of
        how many probabilistic rules exist (one uniform draw compared
        against cumulative rule probabilities), so adding a rule never
        perturbs the firing pattern of an unrelated site.
        """
        self.ops[site] += 1
        op = self.ops[site]
        rules = self._rules[site]
        if not rules:
            return None, op
        scripted = None
        cumulative = 0.0
        draw = self._rngs[site].random()
        chosen = None
        for rule in rules:
            if scripted is None and op in rule.at_ops:
                scripted = rule
            if chosen is None and rule.probability:
                cumulative += rule.probability
                if draw < cumulative:
                    chosen = rule
        fired = scripted if scripted is not None else chosen
        return fired, op

    def _record(self, site: str, op: int, kind: str, **detail) -> None:
        key = f"{site}:{kind}"
        self.faults[key] = self.faults.get(key, 0) + 1
        self.fault_log.append((site, op, kind, tuple(sorted(detail.items()))))
        if self.tracer.enabled:
            self.tracer.emit(CHAOS_FAULT, site=site, fault=kind, op=op, **detail)

    # -- storage hooks --------------------------------------------------------

    def page_read(self, page_id: int) -> float:
        """Called by ``BufferManager.fix``; returns extra latency in ms."""
        return self._page_access("page.read", page_id)

    def page_write(self, page_id: int) -> float:
        """Called on dirty eviction and flush; returns extra latency in ms."""
        return self._page_access("page.write", page_id)

    def _page_access(self, site: str, page_id: int) -> float:
        delay = 0.0
        for attempt in range(1, self.retry.max_attempts + 1):
            rule, op = self._decide(site)
            if rule is None:
                return delay
            self._record(site, op, rule.kind, page=page_id)
            if rule.kind == "latency":
                return delay + rule.latency_ms
            if rule.kind == "permanent":
                raise PermanentStorageError(
                    f"injected permanent fault on {site} page {page_id} (op {op})"
                )
            # transient / torn: back off and retry the access.
            if attempt < self.retry.max_attempts:
                delay += self.retry.backoff_ms(attempt, self._rngs[site])
        raise TransientStorageError(
            f"injected transient fault on {site} page {page_id} persisted "
            f"past {self.retry.max_attempts} attempts"
        )

    # -- network/process hooks ------------------------------------------------

    def net_request(self, shard_id: int):
        """One shard-bound request frame; returns the fired rule (or None).

        Called by :class:`repro.shard.chaos.ChaosTransport` once per
        delivery attempt.  The *transport* applies the fault semantics
        (drop/torn retry with dedup, duplicate delivery, delay-as-cost);
        the engine only decides and records, so sim and process
        transports make byte-identical decisions.
        """
        return self._net("net.request", shard_id)

    def net_reply(self, shard_id: int):
        """One shard reply frame; returns the fired rule (or None)."""
        return self._net("net.reply", shard_id)

    def _net(self, site: str, shard_id: int):
        rule, op = self._decide(site)
        if rule is None:
            return None
        self._record(site, op, rule.kind, shard=int(shard_id))
        return rule

    def net_backoff_ms(self, site: str, attempt: int) -> float:
        """Backoff (as simulated latency) for a retried dropped frame.

        Drawn from the site's own RNG so retry jitter never perturbs
        another site's fault stream.
        """
        return self.retry.backoff_ms(attempt, self._rngs[site])

    def shard_kill(self, shard_id: int) -> bool:
        """One ``shard.crash`` decision point (per delivered EXEC frame).

        Returns True when the schedule kills the target shard; the
        transport's supervisor performs the actual kill + WAL restart.
        """
        rule, op = self._decide("shard.crash")
        if rule is None:
            return False
        self._record("shard.crash", op, rule.kind, shard=int(shard_id))
        return True

    # -- lock hook ------------------------------------------------------------

    def lock_request(self, txn: object, resource) -> None:
        """Called by ``LockManager._batch_fast`` for each uncovered step,
        before its ``lock.request`` event and table decision.

        ``resource`` is the step's ``(space, key)`` pair.
        """
        rule, op = self._decide("lock.acquire")
        if rule is None:
            return
        space, key = resource
        self._record("lock.acquire", op, rule.kind,
                     txn=txn_label(txn), resource=f"{space}:{key}")
        if rule.kind == "timeout":
            raise LockTimeout(
                f"injected lock timeout on {space}:{key}",
                resource=(space, str(key)),
            )
        raise DeadlockAbort(f"injected deadlock victim at {space}:{key}")

    # -- reporting ------------------------------------------------------------

    def injection_rates(self) -> dict:
        """Observed fault fraction per site (fired faults / operations)."""
        rates = {}
        for site in SITES:
            ops = self.ops[site]
            fired = sum(count for key, count in self.faults.items()
                        if key.startswith(site + ":"))
            rates[site] = fired / ops if ops else 0.0
        return rates

    def fingerprint(self) -> str:
        """SHA-256 over the chronological fault log (determinism check)."""
        digest = hashlib.sha256()
        for entry in self.fault_log:
            digest.update(repr(entry).encode("utf-8"))
        return digest.hexdigest()
