"""Tests for the XMark-style auction workload (Section 4.1 argument)."""

import random

import pytest

from repro.errors import BenchmarkError
from repro.query import evaluate_raw
from repro.tamix.xmark import (
    generate_auction,
    run_xmark,
    xmark_query_mix,
)


@pytest.fixture(scope="module")
def info():
    return generate_auction(scale=0.05, seed=3)


class TestGenerator:
    def test_structure(self, info):
        doc = info.document
        assert doc.name_of(doc.root) == "site"
        assert len(doc.elements_by_name("item")) == len(info.item_ids)
        assert len(doc.elements_by_name("person")) == len(info.person_ids)
        assert len(doc.elements_by_name("open_auction")) == len(info.auction_ids)
        assert len(info.item_ids) == 6 * 5  # six regions x round(100*0.05)

    def test_ids_resolve(self, info):
        doc = info.document
        for item_id in info.item_ids[:5]:
            assert doc.element_by_id(item_id) is not None
        for auction_id in info.auction_ids[:5]:
            assert doc.element_by_id(auction_id) is not None

    def test_itemrefs_point_at_items(self, info):
        doc = info.document
        for auction_id in info.auction_ids[:10]:
            auction = doc.element_by_id(auction_id)
            refs = [
                doc.attribute_value(child, "item")
                for child in doc.store.children(auction)
                if doc.name_of(child) == "itemref"
            ]
            assert refs
            assert all(ref in set(info.item_ids) for ref in refs)

    def test_deterministic(self):
        a = generate_auction(scale=0.02, seed=9)
        b = generate_auction(scale=0.02, seed=9)
        assert a.item_ids == b.item_ids
        assert len(a.document) == len(b.document)

    def test_invalid_scale(self):
        with pytest.raises(BenchmarkError):
            generate_auction(scale=-1)


class TestQueries:
    def test_mix_queries_are_valid_and_nonempty(self, info):
        rng = random.Random(4)
        seen_shapes = set()
        for _i in range(40):
            query = xmark_query_mix(info, rng)
            result = evaluate_raw(info.document, query)
            assert result, f"empty result for {query}"
            seen_shapes.add(query.split("(")[0][:12])
        assert len(seen_shapes) >= 3  # several different templates drawn


class TestRunner:
    def test_read_only_run(self, info):
        result = run_xmark("taDOM3+", info=info, clients=6,
                           run_duration_ms=5_000.0, think_ms=50.0)
        assert result.completed_queries > 0
        assert result.aborted == 0
        assert result.deadlocks == 0

    def test_protocol_choice_is_irrelevant(self):
        """Section 4.1: a read-only multi-user mix never deadlocks, and
        protocol choice moves its throughput by well under 10 %
        (``test_figures.py`` holds the TaMix half of the argument)."""
        counts = {}
        for protocol in ("Node2PLa", "URIX", "taDOM3+"):
            local = generate_auction(scale=0.05, seed=3)
            result = run_xmark(protocol, info=local, clients=6,
                               run_duration_ms=5_000.0, think_ms=50.0)
            assert result.deadlocks == 0, protocol
            counts[protocol] = result.completed_queries
        assert max(counts.values()) <= min(counts.values()) * 1.1
