"""Direct-call rates: each layer's public functions timed on their own.

These are the ledger rows that say how fast a layer *can* go; the traced
workloads say how much of a transaction it *is*.  Every row calls public
functions only, does a fixed batch of work sized to tens of milliseconds,
and reports the median of three batches.  All fixtures use a small bib
document (``scale=0.02``, ~5 300 nodes) so the whole file runs in a few
seconds.
"""

from __future__ import annotations

import asyncio
import os
import socket
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.protocol import MetaOp, MetaRequest
from repro.core.registry import ALL_PROTOCOLS, get_protocol
from repro.database import Database
from repro.locking.lock_manager import LockManager
from repro.net import wire
from repro.net.client import WireConnection
from repro.net.server import LockServer, ServerConfig
from repro.obs import Observability
from repro.query.engine import QueryProcessor, evaluate_raw
from repro.sched.simulator import Delay, Simulator, run_sync
from repro.shard import (
    ProcessTransport,
    ShardedDatabase,
    ShardServer,
    SimTransport,
    messages,
    plan_partitions,
    shard_config,
)
from repro.splid import Splid, decode, encode
from repro.storage.bptree import BPTree
from repro.storage.buffer import make_buffered_store
from repro.tamix.bibgen import BibInfo, generate_bib
from repro.tamix.cluster import run_cluster1
from repro.txn.transaction import Transaction
from repro.txn.wal import WriteAheadLog, recover, take_checkpoint
from repro.verify import verify_trace

SMALL_SCALE = 0.02
DOC_SEED = 2006
REPS = 3
LARGE_FRAME_BYTES = 4 * 1024 * 1024

#: One batch of work: returns (operations done, seconds they took).
Batch = Callable[[], Tuple[float, float]]
clock = time.perf_counter


def median_rate(batch: Batch) -> float:
    rates = []
    for _ in range(REPS):
        ops, seconds = batch()
        rates.append(ops / seconds)
    return statistics.median(rates)


def timed(work: Callable[[], float]) -> Batch:
    """A batch that times all of ``work``, which returns its op count."""
    def batch() -> Tuple[float, float]:
        started = clock()
        ops = work()
        return ops, clock() - started
    return batch


def small_bib() -> BibInfo:
    return generate_bib(scale=SMALL_SCALE, seed=DOC_SEED)


def small_database(info: BibInfo, **kwargs) -> Database:
    return Database("taDOM3+", lock_depth=4, document=info.document, **kwargs)


def drive(generator):
    """Run a lock-manager generator that never blocks (single user)."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


# -- splid, core, locking -----------------------------------------------------


def bench_splid(info: BibInfo) -> Dict[str, float]:
    labels = [splid for splid, _record in info.document.walk()][::2]
    texts = [str(label) for label in labels]
    encoded = [encode(label) for label in labels]

    def each(fn, items, loops: int = 4):
        def work() -> float:
            for _ in range(loops):
                for item in items:
                    fn(item)
            return loops * len(items)
        return timed(work)

    return {
        "splid.parse_per_s": median_rate(each(Splid.parse, texts)),
        "splid.encode_per_s": median_rate(each(encode, labels)),
        "splid.decode_per_s": median_rate(each(decode, encoded)),
        "splid.ancestors_per_s": median_rate(
            each(Splid.ancestors_bottom_up, labels, loops=60)
        ),
    }


def lock_targets(info: BibInfo) -> List[Splid]:
    """Chapter-level elements spread over the first books."""
    document = info.document
    targets: List[Splid] = []
    for book_id in info.book_ids[:20]:
        book = document.element_by_id(book_id)
        for child in document.store.children(book):
            targets.extend(document.store.children(child))
    return targets[:200]


def bench_core(info: BibInfo) -> Dict[str, float]:
    targets = lock_targets(info)[:50]
    ops = (MetaOp.READ_NODE, MetaOp.READ_CONTENT, MetaOp.READ_LEVEL,
           MetaOp.READ_SUBTREE, MetaOp.UPDATE_NODE, MetaOp.WRITE_CONTENT,
           MetaOp.RENAME_NODE)
    requests = [MetaRequest(op, target) for target in targets for op in ops]
    protocols = [get_protocol(name) for name in ALL_PROTOCOLS]

    def work() -> float:
        for protocol in protocols:
            plan = protocol.plan
            for request in requests:
                plan(request, 4)
        return len(protocols) * len(requests)

    return {"core.plan_per_s": median_rate(timed(work))}


def bench_locking(info: BibInfo) -> Dict[str, float]:
    protocol = get_protocol("taDOM3+")
    targets = lock_targets(info)
    rounds = 12

    def acquire_all(op: MetaOp, *, cover: bool = False, obs=None) -> Batch:
        def work() -> float:
            for _ in range(rounds):
                manager = LockManager(protocol, lock_depth=8, obs=obs and obs())
                txn = Transaction("bench")
                if cover:
                    drive(manager.acquire(
                        txn, MetaRequest(MetaOp.READ_SUBTREE, Splid.root())
                    ))
                for target in targets:
                    drive(manager.acquire(txn, MetaRequest(op, target)))
                manager.release_transaction(txn)
            return rounds * len(targets)
        return timed(work)

    def release() -> Tuple[float, float]:
        seconds = 0.0
        for _ in range(rounds * 4):
            manager = LockManager(protocol, lock_depth=8)
            txn = Transaction("bench")
            for target in targets:
                drive(manager.acquire(
                    txn, MetaRequest(MetaOp.READ_NODE, target)
                ))
            started = clock()
            manager.release_transaction(txn)
            seconds += clock() - started
        return rounds * 4, seconds

    plain = median_rate(acquire_all(
        MetaOp.WRITE_CONTENT, obs=Observability.disabled
    ))
    tracing = median_rate(acquire_all(
        MetaOp.WRITE_CONTENT, obs=lambda: Observability.enabled(capacity=4096)
    ))
    return {
        "locking.acquire_cold_per_s": median_rate(
            acquire_all(MetaOp.READ_NODE)
        ),
        "locking.acquire_covered_per_s": median_rate(
            acquire_all(MetaOp.READ_NODE, cover=True)
        ),
        "locking.acquire_write_per_s": plain,
        "locking.release_txn_per_s": median_rate(release),
        "obs.tracing_enabled_ratio": plain / tracing,
    }


# -- storage, dom, txn, query -------------------------------------------------


def bench_storage(info: BibInfo) -> Dict[str, float]:
    keys = [encode(splid) for splid, _record in info.document.walk()]
    value = b"v" * 16

    def fix(pool_size: int, page_count: int, loops: int) -> Batch:
        buffer = make_buffered_store(pool_size=pool_size)
        pages = [buffer.allocate().page_id for _ in range(page_count)]

        def work() -> float:
            for _ in range(loops):
                for page_id in pages:
                    buffer.fix(page_id)
            return loops * len(pages)
        return timed(work)

    def insert() -> float:
        tree = BPTree(make_buffered_store(pool_size=4096))
        for key in keys:
            tree.put(key, value)
        return len(keys)

    tree = BPTree(make_buffered_store(pool_size=4096))
    for key in keys:
        tree.put(key, value)

    def get() -> float:
        for key in keys:
            tree.get(key)
        return len(keys)

    return {
        "storage.fix_hit_per_s": median_rate(fix(256, 128, 300)),
        # 256 pages cycled through a 64-page LRU pool: every fix misses.
        "storage.fix_miss_per_s": median_rate(fix(64, 256, 40)),
        "storage.bptree_get_per_s": median_rate(timed(get)),
        "storage.bptree_insert_per_s": median_rate(timed(insert)),
    }


def bench_dom_txn_query(info: BibInfo) -> Dict[str, float]:
    database = small_database(info)
    document = info.document
    nodes = database.nodes
    books = [document.element_by_id(book_id) for book_id in info.book_ids]
    lend = ("lend", {"person": "p1", "return": "2006-01-01"}, [])

    def read_subtree() -> float:
        txn = database.begin("read")
        visited = 0
        for book in books:
            visited += len(database.run(nodes.read_subtree(txn, book))[0])
        database.commit(txn)
        return visited

    def histories(txn) -> List[Splid]:
        return [database.run(nodes.get_last_child(txn, book))[0]
                for book in books]

    def insert_tree() -> Tuple[float, float]:
        txn = database.begin("insert")
        targets = histories(txn)
        started = clock()
        for history in targets:
            database.run(nodes.insert_tree(txn, history, lend))
        seconds = clock() - started
        database.abort(txn)
        return len(targets), seconds

    def finish(commit: bool) -> Batch:
        def batch() -> Tuple[float, float]:
            seconds = 0.0
            for history in histories_now:
                txn = database.begin("finish")
                database.run(nodes.insert_tree(txn, history, lend))
                started = clock()
                if commit:
                    database.commit(txn)
                else:
                    database.abort(txn)
                seconds += clock() - started
            return len(histories_now), seconds
        return batch

    probe = database.begin("probe")
    histories_now = histories(probe)
    database.commit(probe)

    processor = QueryProcessor(nodes)
    paths = [f"id('{book_id}')/chapters/chapter/summary"
             for book_id in info.book_ids]

    def locked_eval() -> float:
        txn = database.begin("query")
        for path in paths:
            database.run(processor.evaluate(txn, path))
        database.commit(txn)
        return len(paths)

    def raw_eval() -> float:
        for path in paths:
            evaluate_raw(document, path)
        return len(paths)

    return {
        "dom.read_subtree_nodes_per_s": median_rate(timed(read_subtree)),
        "dom.insert_tree_per_s": median_rate(insert_tree),
        # Rollback first: commits would grow every history for it.
        "txn.rollback_per_s": median_rate(finish(commit=False)),
        "txn.commit_per_s": median_rate(finish(commit=True)),
        "query.locked_eval_per_s": median_rate(timed(locked_eval)),
        "query.raw_eval_per_s": median_rate(timed(raw_eval)),
    }


# -- wal ----------------------------------------------------------------------


def _log_of(commits: int) -> WriteAheadLog:
    """A log shaped like the TaMix one: ~4 records per committed leg."""
    log = WriteAheadLog()
    target = Splid.parse("1.5.3.3.5.3")
    for txn_id in range(1, commits + 1):
        log.log_begin(txn_id)
        log.log_content(txn_id, target, "old summary text", "new summary text")
        log.log_rename(txn_id, target, "topic", "subject")
        log.log_commit(txn_id)
    return log


def bench_wal(info: BibInfo, scratch: Path) -> Dict[str, float]:
    def append() -> float:
        return len(_log_of(2_000))

    image_log = _log_of(2_000)
    image_mb = len(image_log.to_bytes()) / 1e6

    def to_bytes() -> float:
        image_log.to_bytes()
        return image_mb

    def persist_ms(commits: int) -> float:
        """The flush policy as found in ``ShardServer._flush_wal``: the
        whole image to a temp file, then ``os.replace``; no ``fsync``."""
        log = _log_of(commits)
        path = scratch / "bench.wal"
        tmp = scratch / "bench.wal.tmp"
        samples = []
        for _ in range(REPS):
            started = clock()
            tmp.write_bytes(log.to_bytes())
            os.replace(tmp, path)
            samples.append((clock() - started) * 1000.0)
        path.unlink()
        return statistics.median(samples)

    database = small_database(info, enable_wal=True)
    base = take_checkpoint(info.document, database.wal)
    summaries = evaluate_raw(
        info.document, f"id('{info.book_ids[0]}')/chapters/chapter/summary"
    )
    for round_number in range(60):
        txn = database.begin("log")
        for summary in summaries:
            text = database.run(database.nodes.get_first_child(txn, summary))[0]
            database.run(database.nodes.update_content(
                txn, text, f"revision {round_number}"
            ))
        database.commit(txn)
    image = database.wal.to_bytes()

    def recover_log() -> float:
        log = WriteAheadLog.from_bytes(image)
        recover(base, log)
        return len(log)

    return {
        "wal.append_per_s": median_rate(timed(append)),
        "wal.to_bytes_mb_per_s": median_rate(timed(to_bytes)),
        "wal.persist_ms_at_1k_commits": persist_ms(1_000),
        "wal.persist_ms_at_4k_commits": persist_ms(4_000),
        "wal.recover_records_per_s": median_rate(timed(recover_log)),
    }


# -- wire, server -------------------------------------------------------------


@contextmanager
def large_frame_peer() -> Iterator[int]:
    """A peer that answers the handshake, then every request with one
    4 MiB RESULT frame; yields its port."""
    listener = socket.create_server(("127.0.0.1", 0))
    welcome = wire.encode_frame(wire.OP_WELCOME, wire.WIRE_VERSION, {})
    reply = wire.encode_frame(wire.OP_RESULT, b"x" * LARGE_FRAME_BYTES, 0.0)

    def serve() -> None:
        peer, _address = listener.accept()
        with peer:
            stream = peer.makefile("rb")
            answer = welcome
            while True:
                header = stream.read(4)
                if len(header) < 4:
                    return
                stream.read(wire.split_frame(header)[0])
                peer.sendall(answer)
                answer = reply

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        thread.join()
        listener.close()


@contextmanager
def served_in_thread(server: LockServer) -> Iterator[int]:
    """Run ``server`` on its own event loop in a thread; yields the port."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever)
    thread.start()
    try:
        _host, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop
        ).result(30.0)
        try:
            yield port
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30.0)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


def bench_wire_server(info: BibInfo) -> Dict[str, float]:
    database = small_database(info)
    book = info.document.element_by_id(info.book_ids[0])
    txn = database.begin("payload")
    subtree = database.run(database.nodes.read_subtree(txn, book))[0]
    database.commit(txn)
    result_frame = wire.encode_frame(wire.OP_RESULT, subtree, 0.25)
    loops = 100

    def encode_frames() -> float:
        for _ in range(loops):
            wire.encode_frame(wire.OP_RESULT, subtree, 0.25)
        return loops

    def decode_frames() -> float:
        for _ in range(loops):
            wire.decode_frame(result_frame)
        return loops

    results = {
        "wire.encode_frame_per_s": median_rate(timed(encode_frames)),
        "wire.decode_frame_per_s": median_rate(timed(decode_frames)),
    }

    with large_frame_peer() as port:
        conn = WireConnection("127.0.0.1", port, client_name="e2e-direct")
        try:
            def large() -> float:
                for _ in range(4):
                    conn.request(wire.OP_PING)
                return 4 * LARGE_FRAME_BYTES / 1e6
            results["wire.large_frame_mb_per_s"] = median_rate(timed(large))
        finally:
            conn.close()

    server = LockServer(database, config=ServerConfig(port=0), info=info)
    with served_in_thread(server) as port:
        conn = WireConnection("127.0.0.1", port, client_name="e2e-direct")
        try:
            def pings() -> float:
                for _ in range(500):
                    conn.ping()
                return 500
            results["server.ping_per_s"] = median_rate(timed(pings))
        finally:
            conn.close()
    return results


# -- shard plane ----------------------------------------------------------------


def _small_shard_config() -> Dict[str, object]:
    return shard_config("taDOM3+", 4, "repeatable", scale=SMALL_SCALE,
                        doc_seed=DOC_SEED)


def bench_shard_plane(info: BibInfo) -> Dict[str, float]:
    results: Dict[str, float] = {}
    ping = messages.encode_ping(0.0)

    def pings(transport, count: int) -> Batch:
        def work() -> float:
            for _ in range(count):
                transport.request(0, ping)
            return count
        return timed(work)

    for name, factory, count in (
        ("sim", SimTransport, 5_000), ("process", ProcessTransport, 2_000),
    ):
        transport = factory([_small_shard_config()])
        try:
            transport.request(0, ping)  # the shard has built its stack
            results[f"transport.ping_per_s_{name}"] = median_rate(
                pings(transport, count)
            )
        finally:
            transport.close()

    server = ShardServer(0, _small_shard_config())
    book_ids = info.book_ids

    def handle_exec() -> float:
        for book_id in book_ids:
            server.handle(messages.encode_exec(
                0.0, "T1:bench", "bench", "repeatable",
                "get_element_by_id", (book_id,),
            ))
        server.handle(messages.encode_abort(0.0, "T1:bench", "rollback"))
        return len(book_ids)

    results["shard.handle_exec_per_s"] = median_rate(timed(handle_exec))

    for shards in (1, 2, 4):
        transport = SimTransport([_small_shard_config()] * shards)
        try:
            database = ShardedDatabase(
                plan_partitions(info.document, shards), transport, info,
                protocol="taDOM3+", rtt_ms=0.1,
            )

            def routed() -> float:
                txn = database.begin("bench")
                for book_id in book_ids:
                    run_sync(database.nodes.get_element_by_id(txn, book_id))
                database.abort(txn)
                return len(book_ids)

            results[f"router.exec_per_s_{shards}"] = median_rate(timed(routed))
        finally:
            transport.close()
    return results


# -- sched, tamix, verify -------------------------------------------------------


def bench_sched_tamix_verify() -> Dict[str, float]:
    def steps() -> float:
        simulator = Simulator()

        def process():
            for _ in range(200):
                yield Delay(1.0)

        for _ in range(72):
            simulator.spawn(process())
        simulator.run()
        return 72 * 200

    def bibgen() -> float:
        return len(small_bib().document)

    obs = Observability.enabled(capacity=None, access_events=True)
    run_cluster1("taDOM3+", run_duration_ms=8_000, seed=42, info=small_bib(),
                 observability=obs)
    events = obs.tracer.events()

    def oracle() -> float:
        if not verify_trace(events).ok:
            raise RuntimeError("the history oracle rejected a clean run")
        return len(events)

    return {
        "sched.steps_per_s": median_rate(timed(steps)),
        "tamix.bibgen_nodes_per_s": median_rate(timed(bibgen)),
        "verify.events_per_s": median_rate(timed(oracle)),
    }


def run_all(scratch_root: Path) -> Dict[str, float]:
    """Every direct-call rate, by metric name."""
    scratch_root.mkdir(exist_ok=True)
    results: Dict[str, float] = {}
    read_only = small_bib()  # shared by the benches that change nothing
    results.update(bench_splid(read_only))
    results.update(bench_core(read_only))
    results.update(bench_locking(read_only))
    results.update(bench_storage(read_only))
    results.update(bench_wire_server(read_only))
    results.update(bench_shard_plane(read_only))
    results.update(bench_dom_txn_query(small_bib()))
    with tempfile.TemporaryDirectory(prefix="direct-", dir=scratch_root) as tmp:
        results.update(bench_wal(small_bib(), Path(tmp)))
    results.update(bench_sched_tamix_verify())
    return results
