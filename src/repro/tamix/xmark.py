"""An XMark-style workload -- and why it cannot judge lock protocols.

Section 4.1 of the paper reviews the existing XML benchmarks and finds
them unsuitable: "the scope of XMark is the XML query processor and
concentrates on single-user mode only" -- a concurrency-control study
needs multi-user operation and update transactions.

This module makes that argument executable.  It provides a simplified
XMark auction document generator and a read-only query mix (XMark-like
queries expressed in the :mod:`repro.query` XPath subset), plus a
multi-user runner.  The accompanying ablation benchmark shows that under
this workload every lock protocol performs identically and the lock
manager records essentially no waits -- whereas TaMix separates the
protocol groups decisively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.database import Database
from repro.dom.builder import DocumentBuilder
from repro.dom.document import Document
from repro.errors import BenchmarkError, TransactionAborted
from repro.query.engine import QueryProcessor
from repro.sched.simulator import Delay, Simulator
from repro.storage.buffer import make_buffered_store

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
_CATEGORIES = ("art", "books", "coins", "computers", "music", "stamps")
_NAMES = ("Ada", "Edgar", "Grace", "Jim", "Michael", "Pat", "Theo")


@dataclass
class AuctionInfo:
    """Identifiers the XMark-style queries draw from."""

    document: Document
    item_ids: List[str] = field(default_factory=list)
    person_ids: List[str] = field(default_factory=list)
    auction_ids: List[str] = field(default_factory=list)


def generate_auction(scale: float = 0.1, *, seed: int = 1999) -> AuctionInfo:
    """A simplified XMark auction-site document.

    ``scale=1.0`` yields roughly 600 items, 255 persons, and 120 open
    auctions (a miniature of XMark's factor-0.1 document -- large enough
    to exercise the same code paths without dominating the suite).
    """
    if scale <= 0:
        raise BenchmarkError(f"scale must be positive, got {scale}")
    rng = random.Random(seed)
    n_items_per_region = max(1, round(100 * scale))
    n_persons = max(2, round(255 * scale))
    n_auctions = max(1, round(120 * scale))

    document = Document(
        name=f"auction-{scale}", root_element="site",
        buffer=make_buffered_store(pool_size=4096),
    )
    info = AuctionInfo(document=document)
    builder = DocumentBuilder(document)
    root = document.root

    regions = builder.add_element(root, "regions")
    item_number = 0
    for region_name in _REGIONS:
        region = builder.add_element(regions, region_name)
        for _i in range(n_items_per_region):
            item_id = f"item{item_number}"
            item_number += 1
            item = builder.add_element(region, "item")
            builder.set_attribute(item, "id", item_id)
            name = builder.add_element(item, "name")
            builder.add_text(name, f"Lot {item_number}")
            category = builder.add_element(item, "incategory")
            builder.set_attribute(
                category, "category", rng.choice(_CATEGORIES)
            )
            quantity = builder.add_element(item, "quantity")
            builder.add_text(quantity, str(rng.randint(1, 5)))
            info.item_ids.append(item_id)

    people = builder.add_element(root, "people")
    for p in range(n_persons):
        person_id = f"person{p}"
        person = builder.add_element(people, "person")
        builder.set_attribute(person, "id", person_id)
        name = builder.add_element(person, "name")
        builder.add_text(name, rng.choice(_NAMES))
        if rng.random() < 0.6:
            builder.set_attribute(person, "income", str(rng.randint(20, 120) * 1000))
        info.person_ids.append(person_id)

    open_auctions = builder.add_element(root, "open_auctions")
    for a in range(n_auctions):
        auction_id = f"open_auction{a}"
        auction = builder.add_element(open_auctions, "open_auction")
        builder.set_attribute(auction, "id", auction_id)
        itemref = builder.add_element(auction, "itemref")
        builder.set_attribute(itemref, "item", rng.choice(info.item_ids))
        current = builder.add_element(auction, "current")
        builder.add_text(current, f"{rng.randint(1, 500)}.00")
        for _b in range(rng.randint(1, 5)):
            bid = builder.add_element(auction, "bidder")
            builder.set_attribute(bid, "person", rng.choice(info.person_ids))
        info.auction_ids.append(auction_id)
    return info


#: XMark-flavoured queries expressible in the XPath subset; each function
#: of the RNG picks concrete identifiers (like XMark's parameterization).
def xmark_query_mix(info: AuctionInfo, rng: random.Random) -> str:
    templates = (
        lambda: f"id('{rng.choice(info.person_ids)}')/name/text()",   # ~Q1
        lambda: "/site/regions/australia/item/name/text()",           # ~Q6
        lambda: f"id('{rng.choice(info.auction_ids)}')/bidder/@person",  # ~Q8ish
        lambda: "/site/open_auctions/open_auction/current/text()",    # ~Q18
        lambda: "/site/people/person[@income]/name/text()",           # ~Q10ish
        lambda: f"id('{rng.choice(info.item_ids)}')/incategory/@category",
    )
    return rng.choice(templates)()


@dataclass
class XmarkResult:
    protocol: str
    completed_queries: int = 0
    aborted: int = 0
    lock_waits: int = 0
    deadlocks: int = 0


def run_xmark(
    protocol: str,
    *,
    scale: float = 0.1,
    clients: int = 24,
    run_duration_ms: float = 30_000.0,
    think_ms: float = 200.0,
    lock_depth: int = 4,
    seed: int = 5,
    info: AuctionInfo = None,
) -> XmarkResult:
    """Multi-user, read-only XMark-style run (the unsuitable workload)."""
    if info is None:
        info = generate_auction(scale=scale)
    database = Database(
        protocol=protocol, lock_depth=lock_depth, document=info.document,
    )
    sim = Simulator()
    database.set_clock(lambda: sim.now)
    result = XmarkResult(protocol=protocol)
    rng = random.Random(seed)

    def client(client_rng):
        processor = QueryProcessor(database.nodes)
        yield Delay(client_rng.uniform(0.0, think_ms))
        while sim.now < run_duration_ms:
            txn = database.begin("xmark-query")
            try:
                yield from processor.evaluate(
                    txn, xmark_query_mix(info, client_rng)
                )
            except TransactionAborted:
                database.abort(txn)
                result.aborted += 1
                continue
            database.commit(txn)
            result.completed_queries += 1
            yield Delay(think_ms)

    for _c in range(clients):
        sim.spawn(client(random.Random(rng.randrange(2 ** 62))))
    sim.run(until=run_duration_ms)
    stats = database.locks.lock_statistics()
    result.lock_waits = stats["waits"]
    result.deadlocks = stats["deadlocks"]
    return result
