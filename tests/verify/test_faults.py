"""Crash-point fault-injection tests."""

import pytest

from repro.database import Database
from repro.verify import canonical_image, run_crash_suite
from repro.verify.faults import _LIBRARY


@pytest.fixture(scope="module")
def suite():
    return run_crash_suite()


class TestCrashSuite:
    def test_suite_passes(self, suite):
        assert suite.ok, suite.failures[:5]
        assert suite.checks == {
            "prefix-crashes": "ok",
            "torn-tails": "ok",
            "wal-file": "ok",
            "fuzzy-checkpoint": "ok",
            "torn-checkpoint": "ok",
        }

    def test_all_crash_point_kinds_enumerated(self, suite):
        kinds = {point.kind for point in suite.points}
        assert {"baseline", "begin", "operation", "commit", "abort"} <= kinds

    def test_every_log_boundary_is_a_crash_point(self, suite):
        lsns = [point.lsn for point in suite.points]
        assert lsns == list(range(len(lsns)))
        assert len(lsns) > 10  # the workload logs a real mix of records

    def test_torn_tails_cover_every_byte(self, suite):
        # One probe per byte offset of the serialized log, plus the
        # empty and the full image.
        assert suite.torn_tails_checked > len(suite.points)

    def test_summary_mentions_outcome(self, suite):
        assert suite.summary().startswith("PASS")
        assert "crash_points" in suite.summary()


class TestCanonicalImage:
    def _db(self):
        db = Database(protocol="taDOM3+", lock_depth=4, root_element="bib",
                      enable_wal=True)
        db.load(_LIBRARY)
        return db

    def test_identical_builds_have_identical_images(self):
        assert canonical_image(self._db().document) == canonical_image(
            self._db().document
        )

    def test_mutation_changes_the_image(self):
        db = self._db()
        before = canonical_image(db.document)
        txn = db.begin("t")
        title = db.document.elements_by_name("title")[0]
        text = db.document.store.first_child(title)
        db.run(db.nodes.update_content(txn, text, "changed"))
        db.commit(txn)
        assert canonical_image(db.document) != before
