"""Unit tests for the deterministic chaos engine."""

from types import SimpleNamespace

import pytest

from repro import Database
from repro.chaos import ChaosEngine, FaultRule, FaultSchedule, RetryPolicy
from repro.errors import (
    DeadlockAbort,
    LockTimeout,
    PermanentStorageError,
    TransientStorageError,
)


def engine_for(*rules, seed=7, **retry_overrides):
    policy = RetryPolicy(**retry_overrides) if retry_overrides else RetryPolicy()
    return ChaosEngine(FaultSchedule(rules=tuple(rules)), seed, retry=policy)


def drive_reads(engine, count):
    """Run ``count`` page reads, swallowing injected failures."""
    outcomes = []
    for page in range(count):
        try:
            outcomes.append(("ok", engine.page_read(page)))
        except TransientStorageError:
            outcomes.append(("transient", None))
        except PermanentStorageError:
            outcomes.append(("permanent", None))
    return outcomes


class TestDeterminism:
    RULES = (
        FaultRule("page.read", "transient", probability=0.2),
        FaultRule("page.read", "latency", probability=0.1, latency_ms=4.0),
    )

    def test_same_seed_same_fault_log(self):
        a, b = engine_for(*self.RULES, seed=3), engine_for(*self.RULES, seed=3)
        assert drive_reads(a, 200) == drive_reads(b, 200)
        assert a.fault_log == b.fault_log
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_faults(self):
        a, b = engine_for(*self.RULES, seed=3), engine_for(*self.RULES, seed=4)
        drive_reads(a, 200)
        drive_reads(b, 200)
        assert a.fault_log != b.fault_log

    def test_sites_are_independent_streams(self):
        """Adding rules on one site never moves faults at another."""
        read_rule = FaultRule("page.read", "transient", probability=0.2)
        write_rule = FaultRule("page.write", "transient", probability=0.5)
        alone = engine_for(read_rule, seed=11)
        with_writes = engine_for(read_rule, write_rule, seed=11)
        for page in range(50):
            try:
                with_writes.page_write(page)
            except TransientStorageError:
                pass
        assert drive_reads(alone, 100) == drive_reads(with_writes, 100)
        reads_only = [e for e in with_writes.fault_log if e[0] == "page.read"]
        assert reads_only == alone.fault_log


class TestFaultKinds:
    def test_scripted_at_ops_fire_exactly(self):
        engine = engine_for(
            FaultRule("page.read", "latency", at_ops=(2, 5), latency_ms=3.0)
        )
        delays = [engine.page_read(0) for _ in range(6)]
        assert delays == [0.0, 3.0, 0.0, 0.0, 3.0, 0.0]
        assert [op for _site, op, _k, _d in engine.fault_log] == [2, 5]

    def test_latency_returns_extra_ms(self):
        engine = engine_for(
            FaultRule("page.read", "latency", probability=1.0, latency_ms=7.5)
        )
        assert engine.page_read(0) == 7.5

    def test_permanent_raises_immediately(self):
        engine = engine_for(FaultRule("page.write", "permanent", at_ops=(1,)))
        with pytest.raises(PermanentStorageError):
            engine.page_write(0)
        assert engine.ops["page.write"] == 1  # no retries burned

    def test_transient_retry_succeeds_and_accrues_backoff(self):
        # Only the first operation faults; the retry (op 2) goes through
        # and the returned delay carries the backoff.
        engine = engine_for(FaultRule("page.read", "transient", at_ops=(1,)))
        delay = engine.page_read(0)
        assert delay > 0.0
        assert engine.ops["page.read"] == 2
        assert engine.faults == {"page.read:transient": 1}

    def test_transient_budget_exhausted(self):
        engine = engine_for(
            FaultRule("page.read", "transient", probability=1.0),
            max_attempts=3,
        )
        with pytest.raises(TransientStorageError):
            engine.page_read(0)
        assert engine.ops["page.read"] == 3
        assert engine.faults["page.read:transient"] == 3

    def test_torn_write_behaves_like_transient(self):
        engine = engine_for(FaultRule("page.write", "torn", at_ops=(1,)))
        assert engine.page_write(9) > 0.0
        assert engine.faults == {"page.write:torn": 1}


class TestLockSite:
    RESOURCE = ("node", "1.3.5")

    def test_injected_timeout(self):
        engine = engine_for(FaultRule("lock.acquire", "timeout", at_ops=(1,)))
        with pytest.raises(LockTimeout) as excinfo:
            engine.lock_request("T1", self.RESOURCE)
        assert excinfo.value.reason == "timeout"
        assert excinfo.value.resource == ("node", "1.3.5")

    def test_injected_deadlock_victim(self):
        engine = engine_for(FaultRule("lock.acquire", "deadlock", at_ops=(2,)))
        engine.lock_request("T1", self.RESOURCE)  # op 1: clean
        with pytest.raises(DeadlockAbort) as excinfo:
            engine.lock_request("T1", self.RESOURCE)
        assert excinfo.value.reason == "deadlock"


class TestWiring:
    def fake_database(self):
        return SimpleNamespace(
            document=SimpleNamespace(buffer=SimpleNamespace(chaos=None)),
            locks=SimpleNamespace(chaos=None),
        )

    def test_install_uninstall(self):
        engine = engine_for(FaultRule("page.read", "transient", probability=0.1))
        db = self.fake_database()
        engine.install(db)
        assert db.document.buffer.chaos is engine
        assert db.locks.chaos is engine
        engine.uninstall()
        assert db.document.buffer.chaos is None
        assert db.locks.chaos is None

    def test_unwanted_sites_keep_their_plain_paths(self):
        """An installed engine binds a hook only at the sites its
        schedule targets; everywhere else the fast path stays as it is
        without an engine."""
        db = Database(root_element="bib")
        buffer = db.document.buffer
        ChaosEngine(FaultSchedule(), seed=1).install(db)
        assert buffer.fix == buffer._fix_plain
        assert db.locks._chaos_lock is None
        engine_for(FaultRule("lock.acquire", "timeout", at_ops=(1,))).install(db)
        assert buffer.fix == buffer._fix_plain
        assert db.locks._chaos_lock is not None
        engine_for(FaultRule("page.read", "latency", at_ops=(1,),
                             latency_ms=1.0)).install(db)
        assert buffer.fix == buffer._fix_chaos
        assert db.locks._chaos_lock is None

    def test_injection_rates(self):
        engine = engine_for(FaultRule("page.read", "latency",
                                      at_ops=(1, 2), latency_ms=1.0))
        for page in range(4):
            engine.page_read(page)
        rates = engine.injection_rates()
        assert rates["page.read"] == pytest.approx(0.5)
        assert rates["page.write"] == 0.0

    def test_empty_schedule_never_faults(self):
        engine = ChaosEngine(FaultSchedule(), seed=1)
        assert [engine.page_read(p) for p in range(50)] == [0.0] * 50
        engine.lock_request("T1", TestLockSite.RESOURCE)
        assert engine.fault_log == []
