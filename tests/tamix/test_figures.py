"""The paper's evaluation (Section 4) as tier-1 checks.

Figures 7-10, the cost of isolation level serializable (footnote 1) and
the TaMix half of Section 4.1 read the two seeded sweeps checked in under
``experiments/`` and run no cell:

* ``cluster1.json`` -- all 11 protocols x lock depths 0-7, repeatable;
* ``isolation.json`` -- taDOM3+ x lock depths 0-7 x all five levels.

Their command lines head EXPERIMENTS.md, and CI reruns both and
byte-compares the output with the checked-in files.  Figure 11, the
ablations and the lock-mode profiles are cheap enough to run live.
"""

import json
from pathlib import Path

import pytest

from repro.core import ALL_PROTOCOLS, MetaOp, MetaRequest, get_protocol
from repro.core.tables import TADOM2_TABLE, TADOM2P_TABLE
from repro.splid import Splid, encode
from repro.storage import BPTree, make_buffered_store
from repro.tamix import (
    TaMixConfig,
    TaMixCoordinator,
    generate_bib,
    make_database,
    run_cluster2,
)

EXPERIMENTS = Path(__file__).resolve().parents[2] / "experiments"

#: The document scale both checked-in sweeps and the live runs use.
SCALE = 0.1
DEPTHS = tuple(range(8))
DEPTH_PROTOCOLS = (
    "Node2PLa", "IRX", "IRIX", "URIX",
    "taDOM2", "taDOM2+", "taDOM3", "taDOM3+",
)
STAR_2PL = ("Node2PL", "NO2PL", "OO2PL")
WRITERS = ("TAchapter", "TAlendAndReturn", "TArenameTopic")
GROUPS = {
    "*-2PL(a)": ("Node2PLa",),
    "MGL*": ("IRX", "IRIX", "URIX"),
    "taDOM*": ("taDOM2", "taDOM2+", "taDOM3", "taDOM3+"),
}


def _cells(name):
    rows = json.loads((EXPERIMENTS / name).read_text())
    return {
        (row["protocol"], row["lock_depth"], row["isolation"]): row
        for row in rows
    }


@pytest.fixture(scope="module")
def cluster1():
    return _cells("cluster1.json")


@pytest.fixture(scope="module")
def isolation():
    return _cells("isolation.json")


def over_depths(cells, protocol, level="repeatable"):
    return [cells[(protocol, depth, level)] for depth in DEPTHS]


def group_mean(cluster1, group, depth):
    members = GROUPS[group]
    return sum(
        cluster1[(name, depth, "repeatable")]["committed"] for name in members
    ) / len(members)


class TestCheckedInSweeps:
    def test_specs_cover_the_paper_matrix(self, cluster1, isolation):
        assert len(cluster1) == 3 + 8 * 8
        assert {key[0] for key in cluster1} == set(ALL_PROTOCOLS)
        assert len(isolation) == 8 * 5
        assert {key[2] for key in isolation} == {
            "none", "uncommitted", "committed", "repeatable", "serializable",
        }


class TestFigure7Isolation:
    """CLUSTER1 under taDOM3+ over lock depth, per isolation level."""

    def test_shape(self, isolation):
        repeatable = over_depths(isolation, "taDOM3+")
        none = over_depths(isolation, "taDOM3+", "none")
        # Depth 0 = document locks: far below the saturated throughput.
        assert repeatable[0]["committed"] < repeatable[-1]["committed"] * 0.5
        # Weaker isolation is never slower at the extremes.
        assert none[0]["committed"] >= repeatable[0]["committed"]
        assert none[-1]["committed"] >= repeatable[-1]["committed"] * 0.95
        # Deadlocks concentrate at low depths under repeatable read.
        low = sum(row["deadlocks"] for row in repeatable[:2])
        high = sum(row["deadlocks"] for row in repeatable[-2:])
        assert low > high
        # Isolation level none never deadlocks (it takes no locks).
        assert all(row["deadlocks"] == 0 for row in none)


class TestFigure8StarTwoPL:
    """CLUSTER1 under the *-2PL group (no lock-depth axis: depth 0)."""

    def test_shape(self, cluster1):
        node2pl, no2pl, oo2pl = (
            cluster1[(name, 0, "repeatable")] for name in STAR_2PL
        )
        # Finer granularity does not lose: OO2PL and NO2PL at or above Node2PL.
        assert oo2pl["committed"] >= node2pl["committed"]
        assert no2pl["committed"] >= node2pl["committed"] * 0.9
        for row in (node2pl, no2pl, oo2pl):
            # TArenameTopic collapses for the whole group.
            assert row["TArenameTopic"] <= max(5, row["committed"] * 0.05)
            # The group aborts transactions continuously.
            assert row["aborted"] > 0


class TestFigure9Synopsis:
    """All depth-aware protocols over lock depth, grouped as in the paper."""

    def test_every_protocol_rises_from_document_locks(self, cluster1):
        for name in DEPTH_PROTOCOLS:
            runs = over_depths(cluster1, name)
            assert runs[-1]["committed"] > runs[0]["committed"], name

    def test_group_gaps(self, cluster1):
        star = group_mean(cluster1, "*-2PL(a)", 7)
        mgl = group_mean(cluster1, "MGL*", 7)
        tadom = group_mean(cluster1, "taDOM*", 7)
        # The paper's group ordering with clear gaps.
        assert star < mgl < tadom
        # taDOM* gains on the order of the paper's ~100 % over Node2PLa.
        assert tadom / star > 1.5


class TestFigure10TransactionTypes:
    """Throughput and deadlock aborts per transaction type."""

    def test_readers_are_not_deadlock_victims(self, cluster1):
        rows = [row for name in DEPTH_PROTOCOLS
                for row in over_depths(cluster1, name)]
        readers = sum(row["TAqueryBook_deadlock_aborts"] for row in rows)
        writers = sum(row[f"{txn_type}_deadlock_aborts"]
                      for row in rows for txn_type in WRITERS)
        assert readers <= max(2, 0.02 * (readers + writers))

    def test_readers_dominate_at_depth_zero(self, cluster1):
        for name in ("taDOM3+", "URIX"):
            depth0 = cluster1[(name, 0, "repeatable")]
            assert depth0["TAqueryBook"] >= depth0["committed"] * 0.5
            assert depth0["TAqueryBook_deadlock_aborts"] == 0

    def test_renames(self, cluster1):
        # (d) Node2PLa fails on renames; taDOM3+ clearly beats the MGL* group.
        def renames(name):
            return cluster1[(name, 7, "repeatable")]["TArenameTopic"]

        assert renames("Node2PLa") <= max(2, renames("taDOM3+") * 0.05)
        assert renames("taDOM3+") >= renames("URIX") * 2


def test_serializable_cost(isolation):
    """Footnote 1: serializable costs at most a modest fraction."""
    def total(level):
        return sum(isolation[("taDOM3+", depth, level)]["committed"]
                   for depth in (3, 5, 7))

    assert total("serializable") > 0
    assert total("serializable") >= total("repeatable") * 0.7


def test_cluster1_separates_the_xmark_protocols(cluster1):
    """Section 4.1: TaMix separates the protocols XMark cannot
    (``tests/tamix/test_xmark.py`` holds the XMark half)."""
    counts = [cluster1[(name, 6, "repeatable")]["committed"]
              for name in ("Node2PLa", "URIX", "taDOM3+")]
    assert max(counts) > min(counts) * 1.5


def test_figure11_cluster2_delete_times():
    """CLUSTER2: *-2PL needs roughly twice the time of intention locks."""
    times = {}
    for seed in (7, 11, 13):
        for name in ALL_PROTOCOLS:
            times.setdefault(name, []).append(
                run_cluster2(name, scale=SCALE, seed=seed)
            )
    mean = {name: sum(values) / len(values) for name, values in times.items()}
    star = sum(mean[name] for name in STAR_2PL) / len(STAR_2PL)
    rest = [mean[name] for name in ALL_PROTOCOLS if name not in STAR_2PL]
    assert star / (sum(rest) / len(rest)) > 1.5
    # Every *-2PL protocol is slower than every intention-lock protocol.
    assert min(mean[name] for name in STAR_2PL) > max(rest)


class TestAblations:
    def test_splid_ancestor_derivation(self):
        """Ancestor IDs from SPLIDs cost no document access; pointer
        chasing pays an index lookup per ancestor."""
        doc = generate_bib(scale=SCALE).document
        deep_nodes = [splid for splid, _r in doc.walk()
                      if splid.level >= 4][:2000]
        parent_index = BPTree(make_buffered_store(pool_size=64))
        for splid, _record in doc.walk():
            if splid.parent is not None:
                parent_index.put(encode(splid), encode(splid.parent))

        def pointer_way():
            total = 0
            for node in deep_nodes:
                key = parent_index.get(encode(node))
                while key is not None:
                    total += 1
                    key = parent_index.get(key)
            return total

        baseline = pointer_way()
        io_before = parent_index.buffer.stats.snapshot()
        assert pointer_way() == baseline
        pointer_io = parent_index.buffer.stats.delta_since(io_before)
        splid_way = sum(len(node.ancestors_bottom_up()) for node in deep_nodes)
        assert splid_way == baseline
        assert pointer_io.logical_reads > 0

    def test_level_locks(self):
        """getChildNodes over 20 children: one LR vs. MGL's fan-out."""
        parent = Splid.parse("1.5.3.3")
        children = tuple(parent.child(2 * i + 3) for i in range(20))
        request = MetaRequest(MetaOp.READ_LEVEL, parent, children=children)
        tadom_steps = len(get_protocol("taDOM3+").plan(request, 7).steps)
        mgl_steps = len(get_protocol("URIX").plan(request, 7).steps)
        assert mgl_steps > tadom_steps + 10

    def test_combination_modes(self):
        """Conversion fan-outs over the 8x8 base-mode matrix."""
        modes = ("IR", "NR", "LR", "SR", "IX", "CX", "SU", "SX")

        def fanouts(table):
            return sum(1 for a in modes for b in modes
                       if table.convert(a, b).has_fanout)

        assert fanouts(TADOM2_TABLE) == 8   # Figure 4's subscripted cells
        assert fanouts(TADOM2P_TABLE) == 0  # absorbed by LRIX/LRCX/SRIX/SRCX

    def test_buffer_pool_cluster2(self):
        """The *-2PL CLUSTER2 delete is I/O-bound in a small pool."""
        times = {}
        for pool in (8192, 256, 64):
            info = generate_bib(scale=SCALE, buffer_pool_pages=pool)
            times[pool] = run_cluster2("Node2PL", scale=SCALE, info=info)
        assert times[64] >= times[8192]


@pytest.fixture(scope="module")
def mode_profiles():
    """Lock-mode usage of a 20 s CLUSTER1 slice at lock depth 6."""
    profiles = {}
    for name in ("Node2PL", "URIX", "taDOM3+"):
        database, info = make_database(name, 6, "repeatable", scale=SCALE)
        config = TaMixConfig(protocol=name, lock_depth=6,
                             run_duration_ms=20_000.0)
        TaMixCoordinator(database, info, config).run()
        profiles[name] = database.locks.mode_profile()
    return profiles


class TestModeProfiles:
    def test_tadom3_plus_uses_its_specialized_modes(self, mode_profiles):
        tadom = mode_profiles["taDOM3+"]
        assert tadom.get("node:NX", 0) > 0          # dedicated renames
        assert tadom.get("node:SR", 0) > 0          # subtree reads
        assert tadom.get("node:SX", 0) > 0          # subtree writes
        assert tadom.get("edge:EX", 0) > 0          # edge isolation

    def test_urix_stays_in_the_mgl_modes(self, mode_profiles):
        node_modes = {mode.split(":")[1] for mode in mode_profiles["URIX"]
                      if mode.startswith("node:")}
        assert node_modes <= {"IR", "IX", "R", "RIX", "U", "X"}

    def test_node2pl_lives_on_parent_and_content_locks(self, mode_profiles):
        node2pl = mode_profiles["Node2PL"]
        assert node2pl.get("struct:T", 0) > 0
        assert node2pl.get("struct:M", 0) > 0
        assert all(not key.startswith("node:") for key in node2pl)
