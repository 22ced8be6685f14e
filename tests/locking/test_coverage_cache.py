"""Tests for the lock manager's per-transaction coverage cache.

The cache answers requests already covered by a held subtree/level lock
without touching the lock table (the SPLID-powered cheapness of subtree
locks, Section 3.3).  These tests pin its three tricky paths:

* hit/miss classification in ``_batch_fast``'s coverage check (subtree
  read/write anchors, level-read anchors, the transaction-local lock
  cache);
* anchor *discard* when a conversion loses coverage (taDOM2's
  LR + CX -> CX[NR]: the level read moves to the children, so the anchor
  must go);
* anchor rebuild (``_refresh_state``) after COMMITTED isolation releases
  its short read locks at end of operation.
"""

import pytest

from repro.core import MetaOp, MetaRequest, NODE_SPACE, get_protocol
from repro.locking import IsolationLevel, LockManager
from repro.sched.simulator import run_sync
from repro.splid import Splid
from repro.txn import Transaction


def S(text):
    return Splid.parse(text)


def acquire(manager, txn, request):
    report, _elapsed = run_sync(manager.acquire(txn, request))
    return report


@pytest.fixture
def manager():
    return LockManager(get_protocol("taDOM3+"), lock_depth=7)


BOOK = S("1.5.3.3")
INSIDE = S("1.5.3.3.5.3")
OUTSIDE = S("1.5.5.3")


class TestSubtreeAnchors:
    def test_subtree_read_anchor_covers_descendant_read(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        requests_before = manager.table.requests
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert report.lock_requests == 0
        assert report.skipped_covered > 0
        assert manager.table.requests == requests_before  # no table access

    def test_subtree_read_anchor_misses_outside_node(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, OUTSIDE))
        assert report.lock_requests > 0

    def test_read_anchor_does_not_cover_writes(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        report = acquire(manager, txn, MetaRequest(MetaOp.WRITE_CONTENT, INSIDE))
        assert report.lock_requests > 0

    def test_subtree_write_anchor_covers_descendant_write(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        report = acquire(manager, txn, MetaRequest(MetaOp.WRITE_CONTENT, INSIDE))
        assert report.lock_requests == 0
        assert report.skipped_covered > 0

    def test_held_mode_covers_reissued_request(self, manager):
        """Transaction-local lock cache: an identical re-request is
        answered without a lock-table round trip."""
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        requests_before = manager.table.requests
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert report.lock_requests == 0
        assert manager.table.requests == requests_before

    def test_deep_descendant_probe_walks_ancestor_chain(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, S("1.5")))
        deep = S("1.5.3.3.5.4.3.7.1.3")
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, deep))
        assert report.lock_requests == 0
        assert report.skipped_covered > 0


class TestLevelReadAnchors:
    def test_level_anchor_covers_child_node_read(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        report = acquire(manager, txn,
                         MetaRequest(MetaOp.READ_NODE, S("1.5.3.3.5")))
        assert report.lock_requests == 0
        assert report.skipped_covered > 0

    def test_level_anchor_does_not_cover_grandchildren(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert report.lock_requests > 0

    def test_level_anchor_does_not_cover_subtree_reads(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        report = acquire(manager, txn,
                         MetaRequest(MetaOp.READ_SUBTREE, S("1.5.3.3.5")))
        assert report.lock_requests > 0


class TestConversionCoverageLoss:
    def test_lr_to_cx_conversion_discards_level_anchor(self):
        """taDOM2: LR + CX converts to CX with an NR child fan-out -- the
        level read privilege leaves the node, so child reads must stop
        being answered from the cache (``_note_grant``'s discard path)."""
        manager = LockManager(get_protocol("taDOM2"), lock_depth=7)
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        child = S("1.5.3.3.5")
        covered = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, child))
        assert covered.lock_requests == 0          # LR anchor active

        report = acquire(manager, txn,
                         MetaRequest(MetaOp.INSERT_CHILD, S("1.5.3.3.7")))
        assert (BOOK, "NR") in report.fanouts       # CX[NR] fan-out
        assert manager.table.mode_held(txn, (NODE_SPACE, BOOK)) == "CX"

        after = acquire(manager, txn,
                        MetaRequest(MetaOp.READ_NODE, S("1.5.3.3.9")))
        assert after.lock_requests > 0              # anchor is gone

    def test_tadom3p_combination_mode_keeps_anchor(self, manager):
        """taDOM3+: the same sequence resolves to the LRCX combination
        mode, which keeps the level read -- child reads stay cached (the
        fan-out cost the paper's combination modes exist to avoid)."""
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_LEVEL, BOOK))
        report = acquire(manager, txn,
                         MetaRequest(MetaOp.INSERT_CHILD, S("1.5.3.3.7")))
        assert report.fanouts == []
        assert manager.table.mode_held(txn, (NODE_SPACE, BOOK)) == "LRCX"
        after = acquire(manager, txn,
                        MetaRequest(MetaOp.READ_NODE, S("1.5.3.3.9")))
        assert after.lock_requests == 0


class TestRefreshAfterShortReadRelease:
    def test_committed_end_operation_drops_read_anchors(self, manager):
        txn = Transaction("t", IsolationLevel.COMMITTED)
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        covered = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert covered.lock_requests == 0

        released = manager.end_operation(txn)
        assert released > 0

        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert report.lock_requests > 0             # anchors were rebuilt

    def test_committed_end_operation_keeps_write_anchors(self, manager):
        txn = Transaction("t", IsolationLevel.COMMITTED)
        acquire(manager, txn, MetaRequest(MetaOp.DELETE_SUBTREE, BOOK))
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, S("1.7")))
        manager.end_operation(txn)
        report = acquire(manager, txn, MetaRequest(MetaOp.WRITE_CONTENT, INSIDE))
        assert report.lock_requests == 0            # SX anchor survived

    def test_release_transaction_clears_all_anchors(self, manager):
        txn = Transaction("t")
        acquire(manager, txn, MetaRequest(MetaOp.READ_SUBTREE, BOOK))
        manager.release_transaction(txn)
        report = acquire(manager, txn, MetaRequest(MetaOp.READ_NODE, INSIDE))
        assert report.lock_requests > 0
