"""Unit tests for the SPLID value type (paper Section 3.2 examples)."""

import pytest

from repro.errors import SplidError
from repro.splid import Splid, decode, encode


class TestConstruction:
    def test_root(self):
        root = Splid.root()
        assert root.divisions == (1,)
        assert root.level == 0
        assert root.is_root

    def test_parse_round_trip(self):
        s = Splid.parse("1.3.4.3")
        assert str(s) == "1.3.4.3"
        assert s.divisions == (1, 3, 4, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(SplidError):
            Splid.parse("1.x.3")

    def test_rejects_empty(self):
        with pytest.raises(SplidError):
            Splid(())

    def test_rejects_non_root_start(self):
        with pytest.raises(SplidError):
            Splid((3, 3))

    def test_rejects_even_tail(self):
        with pytest.raises(SplidError):
            Splid((1, 3, 4))

    def test_rejects_nonpositive_division(self):
        with pytest.raises(SplidError):
            Splid((1, 0, 3))

    def test_repr_mentions_label(self):
        assert "1.3.3" in repr(Splid.parse("1.3.3"))


class TestStrictParse:
    """Dotted-notation parsing rejects anything ``int`` would quietly
    normalize: signs, whitespace, empty divisions, non-ASCII digits."""

    @pytest.mark.parametrize("text", [
        "", "1.", ".3", "1..3",          # empty divisions
        " 1.3", "1.3 ", "1. 3", "1.3\n",  # whitespace
        "1.+3", "+1", "1.-3",            # signs
        "1.x.3", "1,3",                  # non-digits
        "1.³", "1.๓",          # unicode digits int() disagrees on
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(SplidError):
            Splid.parse(text)

    def test_error_names_text_and_division(self):
        with pytest.raises(SplidError) as excinfo:
            Splid.parse("1.+3")
        message = str(excinfo.value)
        assert "1.+3" in message
        assert "+3" in message

    def test_error_names_empty_division(self):
        with pytest.raises(SplidError) as excinfo:
            Splid.parse("1.")
        assert "''" in str(excinfo.value)

    def test_still_validates_label_invariants(self):
        with pytest.raises(SplidError):
            Splid.parse("1.4")   # even tail
        with pytest.raises(SplidError):
            Splid.parse("3.3")   # non-root start


class TestInterning:
    def test_equal_labels_are_canonical(self):
        assert Splid.parse("1.3.4.3") is Splid((1, 3, 4, 3))

    def test_derived_labels_are_interned(self):
        node = Splid.parse("1.3.4.3")
        assert node.parent is Splid.parse("1.3")
        assert node.parent is node.parent          # memoized
        assert Splid.root().child(3) is Splid.parse("1.3")
        assert node.ancestor_at_level(0) is Splid.root()

    def test_ancestor_chain_cached_and_correct(self):
        node = Splid.parse("1.3.4.3.5")
        chain = node.ancestors_bottom_up()
        assert chain is node.ancestors_bottom_up()  # same tuple object
        assert [str(a) for a in chain] == ["1.3.4.3", "1.3", "1"]
        assert list(node.ancestors()) == list(chain)

    def test_invalid_labels_never_enter_the_cache(self):
        with pytest.raises(SplidError):
            Splid((1, 4))
        with pytest.raises(SplidError):
            Splid((1, 4))  # still rejected on the second attempt

    def test_cache_stays_bounded_and_evictees_stay_valid(self):
        from repro.splid.splid import _INTERN, INTERN_CAPACITY

        keep = Splid((1, 999_999))
        keep_key = encode(keep)
        for i in range(INTERN_CAPACITY + 2_000):
            decode(encode(Splid((1, 2 * i + 1))))
        # Byte keys share the one table and count against its capacity.
        info = Splid.intern_info()
        assert info["size"] <= info["capacity"]
        assert info["size"] == len(_INTERN)
        assert any(type(key) is bytes for key in _INTERN)
        # Evicted instances still compare and hash by value.
        again = Splid((1, 999_999))
        assert keep == again and hash(keep) == hash(again)
        assert encode(again) == keep_key and decode(keep_key) is again

    def test_only_the_canonical_instance_is_entered_under_its_key(self):
        stale = Splid((1, 12_345, 6_789, 4_321))   # a label no other test uses
        Splid.clear_intern_cache()
        canonical = Splid((1, 12_345, 6_789, 4_321))
        assert canonical is not stale
        key = encode(canonical)
        assert encode(stale) == key                # memoised on it, not entered
        assert decode(key) is canonical

    def test_concurrent_interning_survives_eviction(self, monkeypatch):
        import sys
        import threading

        import repro.splid.splid as splid_module

        monkeypatch.setattr(splid_module, "INTERN_CAPACITY", 64)
        monkeypatch.setattr(splid_module, "_EVICT_BATCH", 16)
        Splid.clear_intern_cache()
        errors = []

        def worker(offset):
            try:
                for i in range(3_000):
                    label = Splid((1, 2 * (offset + 8 * i) + 1))
                    assert decode(encode(label)) == label
            except Exception as exc:  # reported below, with the thread's label
                errors.append((offset, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            size = Splid.intern_info()["size"]
        finally:
            sys.setswitchinterval(interval)
            Splid.clear_intern_cache()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert size <= 64 + len(threads)

    def test_pickle_round_trips_through_intern(self):
        import pickle

        node = Splid.parse("1.5.3.3")
        clone = pickle.loads(pickle.dumps(node))
        assert clone is node


class TestLevels:
    def test_paper_level_example(self):
        # "d1=1.3.3 and d2=1.3.5 label two consecutive nodes at level 3"
        # (the paper counts the root as level 1; we count it as level 0,
        # so these nodes are at level 2 in our convention).
        assert Splid.parse("1.3.3").level == 2
        assert Splid.parse("1.3.5").level == 2

    def test_overflow_division_does_not_add_level(self):
        # 1.3.4.3 sits between 1.3.3 and 1.3.5 at the same level.
        assert Splid.parse("1.3.4.3").level == Splid.parse("1.3.3").level

    def test_deep_overflow(self):
        assert Splid.parse("1.3.4.2.3").level == 2

    def test_attribute_chain_levels(self):
        element = Splid.parse("1.3.3")
        attr_root = element.attribute_root
        assert attr_root.level == element.level + 1
        assert attr_root.is_meta


class TestParentAndAncestors:
    def test_parent_simple(self):
        assert Splid.parse("1.3.3").parent == Splid.parse("1.3")

    def test_parent_skips_overflow_divisions(self):
        # Paper: ancestor determination of 1.3.4.3 yields 1.3 and 1.
        assert Splid.parse("1.3.4.3").parent == Splid.parse("1.3")

    def test_parent_of_root(self):
        assert Splid.root().parent is None

    def test_ancestors_bottom_up(self):
        labels = [str(a) for a in Splid.parse("1.3.4.3.5").ancestors()]
        assert labels == ["1.3.4.3", "1.3", "1"]

    def test_ancestors_top_down(self):
        labels = [str(a) for a in Splid.parse("1.3.3.7.3").ancestors_top_down()]
        assert labels == ["1", "1.3", "1.3.3", "1.3.3.7"]

    def test_ancestor_at_level(self):
        s = Splid.parse("1.5.3.3.11.3")
        assert str(s.ancestor_at_level(0)) == "1"
        assert str(s.ancestor_at_level(2)) == "1.5.3"
        assert s.ancestor_at_level(s.level) is s

    def test_ancestor_at_level_too_deep(self):
        with pytest.raises(SplidError):
            Splid.parse("1.3").ancestor_at_level(5)

    def test_ancestor_at_level_negative(self):
        with pytest.raises(SplidError):
            Splid.parse("1.3.5").ancestor_at_level(-1)

    def test_is_ancestor_of(self):
        assert Splid.parse("1.3").is_ancestor_of(Splid.parse("1.3.4.3"))
        assert not Splid.parse("1.3").is_ancestor_of(Splid.parse("1.3"))
        assert not Splid.parse("1.3").is_ancestor_of(Splid.parse("1.5"))
        # Division prefix but not label prefix: 1.3 vs 1.33 style collision
        assert not Splid.parse("1.3").is_ancestor_of(Splid.parse("1.31"))

    def test_common_ancestor(self):
        a = Splid.parse("1.3.3.5")
        b = Splid.parse("1.3.5.7")
        assert str(a.common_ancestor(b)) == "1.3"
        assert a.common_ancestor(a) == a

    def test_common_ancestor_with_overflow(self):
        a = Splid.parse("1.3.4.3.5")
        b = Splid.parse("1.3.5")
        assert str(a.common_ancestor(b)) == "1.3"


class TestDocumentOrder:
    def test_paper_comparison_example(self):
        # Paper: d3 = 1.3.4.3 < d2 = 1.3.5
        assert Splid.parse("1.3.4.3") < Splid.parse("1.3.5")

    def test_ancestor_sorts_before_descendant(self):
        assert Splid.parse("1.3") < Splid.parse("1.3.3")

    def test_sibling_order(self):
        assert Splid.parse("1.3.3") < Splid.parse("1.3.5")

    def test_total_order_of_figure5_cutout(self):
        labels = [
            "1", "1.3", "1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.3.1.3.1",
            "1.3.3.3", "1.3.5", "1.5", "1.5.3", "1.5.3.3", "1.5.4.3",
            "1.5.4.5", "1.5.5",
        ]
        parsed = [Splid.parse(t) for t in labels]
        assert sorted(parsed) == parsed

    def test_hash_consistency(self):
        assert hash(Splid.parse("1.3.3")) == hash(Splid((1, 3, 3)))
        assert Splid.parse("1.3.3") in {Splid((1, 3, 3))}

    def test_cross_type_comparison(self):
        assert Splid.root() != "1"
        with pytest.raises(TypeError):
            _ = Splid.root() < "1"


class TestSuffixHelpers:
    def test_local_suffix(self):
        child = Splid.parse("1.3.4.3")
        assert child.local_suffix(Splid.parse("1.3")) == (4, 3)

    def test_local_suffix_requires_ancestor(self):
        with pytest.raises(SplidError):
            Splid.parse("1.3.3").local_suffix(Splid.parse("1.5"))

    def test_child_rejects_even_division(self):
        with pytest.raises(SplidError):
            Splid.root().child(4)

    def test_meta_labels(self):
        element = Splid.parse("1.5.3.3")
        assert str(element.attribute_root) == "1.5.3.3.1"
        text = Splid.parse("1.5.3.3.5.3")
        assert str(text.string_node) == "1.5.3.3.5.3.1"
