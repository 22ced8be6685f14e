"""Unit tests for the lock manager (meta-synchronization layer)."""

import pytest

from repro.core import (
    LockStep,
    MetaOp,
    MetaRequest,
    NODE_SPACE,
    get_protocol,
)
from repro.errors import DeadlockAbort, LockError
from repro.locking import IsolationLevel, LockManager
from repro.locking.lock_manager import WRITE_PRIVILEGES
from repro.sched.simulator import run_sync
from repro.splid import Splid
from repro.tamix.cluster import CLUSTER1_MIX, make_database
from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator
from repro.txn import Transaction


def S(text):
    return Splid.parse(text)


def acquire(manager, txn, request):
    """Drive the acquire generator synchronously (must not block)."""
    report, _elapsed = run_sync(manager.acquire(txn, request))
    return report


@pytest.fixture
def manager():
    return LockManager(get_protocol("taDOM3+"), lock_depth=7)


@pytest.fixture
def txn():
    return Transaction("test", IsolationLevel.REPEATABLE)


BOOK = S("1.5.3.3")


class TestIsolationFiltering:
    def test_none_acquires_nothing(self, manager):
        txn = Transaction("t", IsolationLevel.NONE)
        report = acquire(manager, txn,
                         MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        assert report.lock_requests == 0
        assert manager.table.lock_count() == 0

    def test_uncommitted_skips_reads_only(self, manager):
        txn = Transaction("t", IsolationLevel.UNCOMMITTED)
        read = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        assert read.lock_requests == 0
        write = acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        assert write.lock_requests > 0

    def test_committed_releases_reads_at_end_of_operation(self, manager):
        txn = Transaction("t", IsolationLevel.COMMITTED)
        acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        assert manager.table.lock_count() > 0
        released = manager.end_operation(txn)
        assert released > 0
        assert manager.table.lock_count() == 0

    def test_committed_keeps_write_locks(self, manager):
        txn = Transaction("t", IsolationLevel.COMMITTED)
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        before = manager.table.lock_count()
        manager.end_operation(txn)
        assert manager.table.lock_count() == before

    def test_committed_keeps_converted_read_locks(self, manager):
        """A read lock converted to a write mode survives end-of-op."""
        txn = Transaction("t", IsolationLevel.COMMITTED)
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        manager.end_operation(txn)
        held = manager.table.mode_held(txn, (NODE_SPACE, BOOK))
        assert held == "SX"

    def test_urix_update_then_write_upgrades_via_u(self):
        manager = LockManager(get_protocol("URIX"), lock_depth=7)
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.UPDATE_NODE, BOOK))
        assert manager.table.mode_held(txn, (NODE_SPACE, BOOK)) == "U"
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        assert manager.table.mode_held(txn, (NODE_SPACE, BOOK)) == "X"

    def test_repeatable_keeps_everything(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        before = manager.table.lock_count()
        assert manager.end_operation(txn) == 0
        assert manager.table.lock_count() == before

    def test_write_privileges_constant(self):
        assert "node_read" not in WRITE_PRIVILEGES
        assert "subtree_write" in WRITE_PRIVILEGES
        assert "subtree_update" in WRITE_PRIVILEGES


class TestCoverageCache:
    def test_subtree_read_covers_descendants(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        inner = acquire(
            manager, txn, MetaRequest(MetaOp.READ_NODE, S("1.5.3.3.5.3"))
        )
        assert inner.lock_requests == 0
        assert inner.skipped_covered > 0

    def test_subtree_write_covers_writes_below(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        inner = acquire(
            manager, txn,
            MetaRequest(MetaOp.WRITE_CONTENT, S("1.5.3.3.5.3")),
        )
        assert inner.lock_requests == 0

    def test_subtree_read_does_not_cover_writes(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        write = acquire(
            manager, txn, MetaRequest(MetaOp.WRITE_CONTENT, S("1.5.3.3.5.3"))
        )
        assert write.lock_requests > 0

    def test_held_mode_fast_path(self, manager, txn):
        first = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        second = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        assert first.lock_requests > 0
        assert second.lock_requests == 0
        assert second.skipped_covered == first.lock_requests

    def test_sibling_not_covered(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        sibling = acquire(
            manager, txn, MetaRequest(MetaOp.READ_NODE, S("1.5.3.5"))
        )
        assert sibling.lock_requests > 0

    def test_release_clears_state(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        manager.release_transaction(txn)
        again = acquire(
            manager, txn, MetaRequest(MetaOp.READ_NODE, S("1.5.3.3.5"))
        )
        assert again.lock_requests > 0


class TestFanouts:
    def test_lr_to_cx_reports_fanout(self):
        manager = LockManager(get_protocol("taDOM2"), lock_depth=7)
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        # Delete a child: CX on BOOK converts the held LR -> CX[NR].
        report = acquire(
            manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, S("1.5.3.3.5"))
        )
        assert (BOOK, "NR") in report.fanouts

    def test_tadom3p_has_no_fanout(self):
        manager = LockManager(get_protocol("taDOM3+"), lock_depth=7)
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        report = acquire(
            manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, S("1.5.3.3.5"))
        )
        assert report.fanouts == []

    def test_acquire_children(self):
        manager = LockManager(get_protocol("taDOM2"), lock_depth=7)
        txn = Transaction("t")
        children = [S("1.5.3.3.3"), S("1.5.3.3.5")]
        report, _ = run_sync(manager.acquire_children(txn, children, "NR"))
        assert report.lock_requests == 2
        for child in children:
            assert manager.table.mode_held(txn, (NODE_SPACE, child)) == "NR"

    def test_acquire_steps(self, manager, txn):
        steps = [LockStep(NODE_SPACE, S("1.3"), "NR")]
        report, _ = run_sync(manager.acquire_steps(txn, steps))
        assert report.lock_requests == 1


class TestDeadlockIntegration:
    def test_requester_aborted_on_cycle(self):
        manager = LockManager(get_protocol("taDOM3+"), lock_depth=7)
        t1, t2 = Transaction("t1"), Transaction("t2")
        acquire(manager, t1, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        acquire(manager, t2, MetaRequest(MetaOp.READ_SUBTREE, BOOK))

        # t1 upgrades: blocks on t2's SR -> just waits (no cycle yet).
        gen = manager.acquire(t1, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        ticket = next(gen)
        assert not ticket.granted

        # t2 upgrades too: now a cycle exists; t2 is the victim.
        with pytest.raises(DeadlockAbort) as info:
            run_sync(manager.acquire(
                t2, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK)
            ))
        assert t1 in info.value.cycle
        manager.release_transaction(t2)
        # t1's conversion gets granted by the release.
        assert ticket.granted

    def test_statistics_exposed(self, manager, txn):
        acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, BOOK))
        stats = manager.lock_statistics()
        assert stats["requests"] > 0
        assert stats["deadlocks"] == 0
        assert stats["timeouts"] == 0


class TestConstruction:
    def test_negative_lock_depth_rejected(self):
        with pytest.raises(LockError):
            LockManager(get_protocol("taDOM3+"), lock_depth=-1)

    def test_managers_never_write_to_protocol_objects(self):
        """Plan templates live on the manager: a protocol object shared by
        several managers (sweep cells, benchmark units) stays untouched."""
        protocol = get_protocol("Node2PL")
        before = dict(vars(protocol))
        for depth in (0, 4):
            database, info = make_database(protocol, depth, "repeatable",
                                           scale=0.05)
            config = TaMixConfig(protocol="Node2PL", lock_depth=depth,
                                 isolation="repeatable",
                                 run_duration_ms=4000.0,
                                 mix=dict(CLUSTER1_MIX), seed=42)
            result = TaMixCoordinator(database, info, config).run()
            assert result.committed > 0
            assert database.locks.protocol is protocol
        assert vars(protocol) == before
