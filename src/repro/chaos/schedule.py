"""Declarative fault schedules for the deterministic chaos engine.

A :class:`FaultSchedule` is a list of :class:`FaultRule`\\ s.  Each rule
targets one injection *site* and describes one fault *kind*, fired either
probabilistically (``probability`` per operation at that site) or scripted
at exact operation counts (``at_ops``, 1-based per-site indices).  Given
the same schedule and engine seed, the chaos engine fires exactly the
same faults at exactly the same operations on every run.

Sites
-----
``page.read``
    A buffer fix (logical page read).  Kinds: ``transient`` (access
    fails, retryable), ``permanent`` (hard fault), ``latency`` (the read
    costs ``latency_ms`` extra simulated milliseconds).
``page.write``
    A physical page write (dirty eviction or flush).  Kinds:
    ``transient``, ``permanent``, ``latency``, and ``torn`` (the write
    is interrupted mid-page; the engine treats it as a transient failure
    whose retry rewrites the full page -- the page image is never left
    half-written because retries go through the same code path).
``lock.acquire``
    A lock-manager acquire step.  Kinds: ``timeout`` (inject a
    :class:`~repro.errors.LockTimeout`) and ``deadlock`` (the requesting
    transaction is declared a spurious deadlock victim via
    :class:`~repro.errors.DeadlockAbort`).
``net.request`` / ``net.reply``
    One shard-bound request frame / one shard reply frame on the shard
    transport (see :class:`repro.shard.chaos.ChaosTransport`).  Kinds:
    ``drop`` (the frame is lost; the transport retries with backoff-as-
    latency, deduplicated shard-side so retried ops stay at-most-once),
    ``torn`` (the frame is truncated and rejected by the receiver's
    codec; treated like a drop), ``duplicate`` (the frame is delivered
    twice; the duplicate's effect is absorbed by request-id dedup), and
    ``delay`` (``latency_ms`` extra simulated milliseconds on the
    round trip).
``shard.crash``
    A shard process boundary, consulted once per delivered ``EXEC``
    frame.  Kind: ``kill`` -- the target shard dies mid-transaction
    (real ``SIGKILL`` under the process transport, instance discard
    under the simulated one), losing all in-memory state; the
    supervisor restarts it from its persisted WAL.

Schedules serialize to/from plain dicts (and JSON) so they can live in
files next to sweep configs; a few named schedules ship built in
(``ci-small``, ``storage-heavy``, ``lock-storm``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import ChaosError

#: Valid injection sites.
SITES = (
    "page.read", "page.write", "lock.acquire",
    "net.request", "net.reply", "shard.crash",
)

#: The sites one database fires: :meth:`ChaosEngine.install` hooks its
#: buffer pool and lock manager.  The network and crash sites need a
#: shard plane (``repro.shard.SHARD_CHAOS_SITES``).
NODE_SITES = ("page.read", "page.write", "lock.acquire")

#: Valid fault kinds per site.
KINDS_BY_SITE = {
    "page.read": ("transient", "permanent", "latency"),
    "page.write": ("transient", "permanent", "latency", "torn"),
    "lock.acquire": ("timeout", "deadlock"),
    "net.request": ("drop", "delay", "duplicate", "torn"),
    "net.reply": ("drop", "delay", "duplicate", "torn"),
    "shard.crash": ("kill",),
}

#: Kinds whose rules must carry ``latency_ms > 0``.
_LATENCY_KINDS = ("latency", "delay")


@dataclass(frozen=True)
class FaultRule:
    """One fault source: a (site, kind) pair with a firing discipline.

    Exactly one of ``probability`` (per-op chance in [0, 1]) or
    ``at_ops`` (exact 1-based per-site op indices) should be non-trivial;
    both may be combined, in which case scripted ops fire regardless of
    the dice and the probability applies to every op.
    """

    site: str
    kind: str
    probability: float = 0.0
    at_ops: tuple = ()
    latency_ms: float = 0.0

    def __post_init__(self):
        if self.site not in SITES:
            raise ChaosError(f"unknown fault site {self.site!r}; expected one of {SITES}")
        if self.kind not in KINDS_BY_SITE[self.site]:
            raise ChaosError(
                f"fault kind {self.kind!r} invalid for site {self.site!r}; "
                f"expected one of {KINDS_BY_SITE[self.site]}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ChaosError(f"probability must be in [0, 1], got {self.probability}")
        if self.probability == 0.0 and not self.at_ops:
            raise ChaosError(f"rule {self.site}/{self.kind} fires never: "
                             "give it a probability or at_ops")
        if any((not isinstance(op, int)) or op < 1 for op in self.at_ops):
            raise ChaosError("at_ops must be 1-based operation indices")
        if self.kind in _LATENCY_KINDS and self.latency_ms <= 0.0:
            raise ChaosError(f"{self.kind} faults need latency_ms > 0")
        object.__setattr__(self, "at_ops", tuple(sorted(self.at_ops)))

    def to_dict(self) -> dict:
        data = {"site": self.site, "kind": self.kind}
        if self.probability:
            data["probability"] = self.probability
        if self.at_ops:
            data["at_ops"] = list(self.at_ops)
        if self.latency_ms:
            data["latency_ms"] = self.latency_ms
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultRule":
        unknown = set(data) - {"site", "kind", "probability", "at_ops", "latency_ms"}
        if unknown:
            raise ChaosError(f"unknown FaultRule fields: {sorted(unknown)}")
        try:
            return cls(
                site=data["site"],
                kind=data["kind"],
                probability=float(data.get("probability", 0.0)),
                at_ops=tuple(data.get("at_ops", ())),
                latency_ms=float(data.get("latency_ms", 0.0)),
            )
        except KeyError as exc:
            raise ChaosError(f"FaultRule missing required field {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of fault rules, applied together.

    Rule order matters for determinism: for each operation the engine
    evaluates rules in schedule order and fires the first that matches
    (scripted ``at_ops`` hits take precedence over dice rolls).
    """

    rules: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ChaosError(f"expected FaultRule, got {type(rule).__name__}")

    def __bool__(self) -> bool:
        return bool(self.rules)

    def rules_for(self, site: str) -> tuple:
        return tuple(rule for rule in self.rules if rule.site == site)

    def check_sites(self, allowed: Sequence[str], stack: str) -> None:
        """Refuse rules at sites ``stack`` cannot fire: they never would."""
        bad = sorted({rule.site for rule in self.rules} - set(allowed))
        if bad:
            raise ChaosError(
                f"{stack} fires only sites {tuple(allowed)}; "
                f"schedule {self.name or '<inline>'!r} also targets {bad}"
            )

    def to_dict(self) -> dict:
        data: dict = {"rules": [rule.to_dict() for rule in self.rules]}
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSchedule":
        if not isinstance(data, Mapping) or "rules" not in data:
            raise ChaosError("fault schedule must be an object with a 'rules' list")
        rules = tuple(FaultRule.from_dict(rule) for rule in data["rules"])
        return cls(rules=rules, name=str(data.get("name", "")))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ChaosError(f"fault schedule is not valid JSON: {exc}") from exc


def _builtin(name: str, rules: Iterable[FaultRule]) -> FaultSchedule:
    return FaultSchedule(rules=tuple(rules), name=name)


#: Named schedules available to the CLI (``repro chaos --schedule NAME``).
#: ``ci-small`` keeps every site at >= 1% injection so the CI smoke
#: exercises retries, torn-write recovery, and spurious victims while
#: still finishing quickly.
BUILTIN_SCHEDULES = {
    "ci-small": _builtin("ci-small", (
        FaultRule("page.read", "transient", probability=0.015),
        FaultRule("page.read", "latency", probability=0.01, latency_ms=4.0),
        FaultRule("page.write", "torn", probability=0.01),
        FaultRule("lock.acquire", "timeout", probability=0.01),
        FaultRule("lock.acquire", "deadlock", probability=0.005),
    )),
    "storage-heavy": _builtin("storage-heavy", (
        FaultRule("page.read", "transient", probability=0.05),
        FaultRule("page.read", "latency", probability=0.05, latency_ms=10.0),
        FaultRule("page.write", "transient", probability=0.03),
        FaultRule("page.write", "torn", probability=0.02),
    )),
    "lock-storm": _builtin("lock-storm", (
        FaultRule("lock.acquire", "timeout", probability=0.04),
        FaultRule("lock.acquire", "deadlock", probability=0.02),
    )),
    # The shard-plane acceptance schedule: one scripted mid-run shard
    # kill (supervised WAL restart) on a lightly lossy network.
    "shard-kill": _builtin("shard-kill", (
        FaultRule("shard.crash", "kill", at_ops=(40,)),
        FaultRule("net.request", "drop", probability=0.01),
        FaultRule("net.reply", "delay", probability=0.01, latency_ms=2.0),
    )),
    # Network-only shard schedule (no kills): drops, duplicates, torn
    # frames, and delays on both legs of every shard round trip.
    "shard-lossy-net": _builtin("shard-lossy-net", (
        FaultRule("net.request", "drop", probability=0.02),
        FaultRule("net.request", "duplicate", probability=0.01),
        FaultRule("net.request", "torn", probability=0.01),
        FaultRule("net.reply", "drop", probability=0.02),
        FaultRule("net.reply", "delay", probability=0.02, latency_ms=3.0),
    )),
}


def load_schedule(name_or_path: str) -> FaultSchedule:
    """Resolve a schedule by built-in name or JSON file path."""
    if name_or_path in BUILTIN_SCHEDULES:
        return BUILTIN_SCHEDULES[name_or_path]
    try:
        with open(name_or_path, "r", encoding="utf-8") as handle:
            return FaultSchedule.from_json(handle.read())
    except OSError as exc:
        raise ChaosError(
            f"unknown schedule {name_or_path!r}: not a built-in "
            f"({', '.join(sorted(BUILTIN_SCHEDULES))}) and not a readable file"
        ) from exc


def schedule_names() -> Sequence[str]:
    return tuple(sorted(BUILTIN_SCHEDULES))
