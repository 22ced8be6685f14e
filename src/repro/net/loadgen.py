"""Open-loop TaMix load generator (``repro loadgen``).

Thousands of simulated clients replay the paper's transaction types
against a lock server, open-loop: every client draws its next arrival
time from a Poisson (or fixed-rate) process *independently of whether
the previous transaction finished*, so a slow server accumulates
queueing delay instead of silently throttling the offered load --
latency is measured from the **scheduled** arrival, which makes the
p99/p999 tail coordinated-omission aware.

Document hotspots are zipfian: book/topic picks rank-weight the ID
space with exponent ``zipf_s`` (0 disables), so a small set of hot
subtrees absorbs most of the traffic -- the regime where lock-protocol
choice actually matters.

Two executors drive the same client-slot generators:

* **live** -- one thread per client over TCP, through the public client
  (:class:`~repro.net.client.RemoteDatabase`): each transaction is one
  :class:`~repro.net.client.RemoteSession` leased from a capped
  connection pool (a thousand clients share ~64 sockets; pool queueing
  counts into open-loop latency).
* **sim** -- the discrete-event :class:`~repro.sched.simulator
  .Simulator` driving the server's own
  :class:`~repro.net.server.RequestHandler` in-process: every request
  and reply still crosses the :mod:`repro.net.wire` codec as a frame.
  Simulated clocks only: a fixed seed produces a byte-identical report.

Client slots yield :class:`Think`/:class:`Begin`/:class:`Op`/
:class:`Qry`/:class:`Commit` effects; the executor owns transport,
transaction handles, and the clock.  Transient failures (deadlock
victim, lock timeout, admission shed) are retried client-side through
a :class:`~repro.chaos.retry.RetryPolicy`; the report counts
retries, sheds, and give-ups per transaction type next to the
p50/p99/p999 latency SLOs.
"""

from __future__ import annotations

import bisect
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.retry import AdmissionPolicy, RetryPolicy
from repro.database import Database
from repro.errors import (
    AdmissionRejected,
    BenchmarkError,
    ProtocolError,
    ReproError,
    TransactionAborted,
    TransientError,
)
from repro.net import wire
from repro.net.client import RemoteDatabase, RemoteSession
from repro.net.server import RequestHandler, ServerConfig
from repro.sched.simulator import Delay, Simulator
from repro.tamix.bibgen import load_bib
from repro.tamix.cluster import CLUSTER1_MIX
from repro.tamix.metrics import latency_slo


# -- effects ------------------------------------------------------------------


class Think:
    """Client think time / pacing wait.  Resumes with ``now_ms``."""

    __slots__ = ("ms",)

    def __init__(self, ms: float):
        self.ms = max(0.0, ms)


class Begin:
    """Open a transaction.  Resumes with ``now_ms``."""

    __slots__ = ("txn_type",)

    def __init__(self, txn_type: str):
        self.txn_type = txn_type


class Op:
    """One node-manager CALL.  Resumes with ``(now_ms, value)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Any, ...]):
        self.name = name
        self.args = args


class Qry:
    """One XPath QUERY.  Resumes with ``(now_ms, value)``."""

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path


class Commit:
    """Commit the open transaction.  Resumes with ``now_ms``."""

    __slots__ = ()


# -- configuration ------------------------------------------------------------


@dataclass
class LoadGenConfig:
    """One ``repro loadgen`` invocation."""

    mode: str = "sim"  # "sim" | "live"
    clients: int = 100
    duration_ms: float = 10_000.0
    #: Total offered load, transactions/second across all clients.
    rate_tps: float = 100.0
    arrival: str = "poisson"  # "poisson" | "uniform"
    #: Mean think time per visited node (the paper's waitAfterOperation).
    think_ms: float = 5.0
    think_dist: str = "exponential"  # "fixed" | "uniform" | "exponential"
    #: Zipf exponent for book/topic hotspots (0 = uniform access).
    zipf_s: float = 1.1
    seed: int = 2006
    mix: Dict[str, int] = field(default_factory=lambda: dict(CLUSTER1_MIX))
    #: Client-side restart policy for transient failures; None gives up
    #: on the first abort/shed.
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    isolation: Optional[str] = None
    # live mode
    host: str = "127.0.0.1"
    port: int = 7420
    #: Max concurrent sockets (0 -> min(clients, 64)).
    pool_size: int = 0
    # sim mode (the in-process server)
    protocol: str = "taDOM3+"
    lock_depth: int = 4
    scale: float = 0.1
    doc_seed: int = 2006
    #: Simulated-ms lock-wait timeout for the in-process database.
    wait_timeout_ms: Optional[float] = 5_000.0
    admission: Optional[AdmissionPolicy] = None
    #: Sim-mode telemetry sampling window (simulated ms; 0 disables the
    #: windowed series in the report).  Live runs scrape the *server's*
    #: series instead.
    telemetry_window_ms: float = 1_000.0

    def __post_init__(self):
        # An empty run would end at once with a report that looks clean.
        for name in ("clients", "duration_ms", "rate_tps"):
            if getattr(self, name) <= 0:
                raise BenchmarkError(
                    f"{name} must be > 0 (got {getattr(self, name)})"
                )

    def resolved_pool_size(self) -> int:
        return self.pool_size if self.pool_size > 0 else min(self.clients, 64)

    def mean_interarrival_ms(self) -> float:
        return self.clients * 1000.0 / self.rate_tps


# -- zipfian hotspots ---------------------------------------------------------


class ZipfSampler:
    """Rank-weighted index sampling via a precomputed CDF + bisect."""

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError("need at least one item to sample")
        self.n = n
        self._cdf: Optional[List[float]] = None
        if s > 0.0:
            weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
            total = sum(weights)
            cdf, running = [], 0.0
            for w in weights:
                running += w
                cdf.append(running / total)
            cdf[-1] = 1.0
            self._cdf = cdf

    def pick(self, rng: random.Random) -> int:
        if self._cdf is None:
            return rng.randrange(self.n)
        return min(bisect.bisect_left(self._cdf, rng.random()), self.n - 1)


# -- statistics ---------------------------------------------------------------


#: The per-type counters, in report order.
_COUNTS = ("issued", "committed", "aborted", "retries", "sheds", "gave_up")


class _TypeStats:
    __slots__ = _COUNTS + ("latencies",)

    def __init__(self):
        self.issued = 0
        self.committed = 0
        self.aborted = 0
        self.retries = 0
        self.sheds = 0
        self.gave_up = 0
        self.latencies: List[float] = []


class LoadStats:
    """Client-observed counters, per transaction type."""

    def __init__(self):
        self.by_type: Dict[str, _TypeStats] = {}
        self.protocol_errors = 0

    def of(self, txn_type: str) -> _TypeStats:
        stats = self.by_type.get(txn_type)
        if stats is None:
            stats = self.by_type[txn_type] = _TypeStats()
        return stats

    def merge(self, other: "LoadStats") -> None:
        """Add ``other``'s counters and latencies to this one's."""
        self.protocol_errors += other.protocol_errors
        for txn_type, theirs in other.by_type.items():
            ours = self.of(txn_type)
            for key in _COUNTS:
                setattr(ours, key, getattr(ours, key) + getattr(theirs, key))
            ours.latencies.extend(theirs.latencies)


# -- client-side transaction programs ----------------------------------------


@dataclass
class ProgramContext:
    """Workload handles shared by every client slot."""

    book_ids: Sequence[str]
    topic_ids: Sequence[str]
    person_ids: Sequence[str]
    book_sampler: ZipfSampler
    topic_sampler: ZipfSampler
    think_ms: float
    think_dist: str

    def pick_book(self, rng: random.Random) -> str:
        return self.book_ids[self.book_sampler.pick(rng)]

    def pick_topic(self, rng: random.Random) -> str:
        return self.topic_ids[self.topic_sampler.pick(rng)]

    def pick_person(self, rng: random.Random) -> str:
        return rng.choice(self.person_ids) if self.person_ids else "p0"

    def think(self, rng: random.Random, units: int) -> Think:
        if self.think_ms <= 0.0 or units <= 0:
            return Think(0.0)
        if self.think_dist == "fixed":
            base = self.think_ms
        elif self.think_dist == "uniform":
            base = rng.uniform(0.0, 2.0 * self.think_ms)
        else:  # exponential
            base = rng.expovariate(1.0 / self.think_ms)
        return Think(base * units)


def lg_query_book(ctx: ProgramContext, rng: random.Random):
    """TAqueryBook: jump to a hot book, read its whole subtree."""
    book = yield Op("get_element_by_id", (ctx.pick_book(rng),))
    yield ctx.think(rng, 1)
    if book is None:
        return
    entries = yield Op("read_subtree", (book,))
    yield ctx.think(rng, len(entries))


def lg_chapter(ctx: ProgramContext, rng: random.Random):
    """TAchapter: read a book, then rewrite one chapter summary."""
    book_id = ctx.pick_book(rng)
    book = yield Op("get_element_by_id", (book_id,))
    yield ctx.think(rng, 1)
    if book is None:
        return
    entries = yield Op("read_subtree", (book,))
    yield ctx.think(rng, len(entries))
    summaries = yield Qry(f"id('{book_id}')/chapters/chapter/summary")
    if not summaries:
        return
    text = yield Op("get_first_child", (rng.choice(list(summaries)),))
    if text is None:
        return
    yield Op("update_content",
             (text, f"revised summary {rng.randrange(10_000)}"))
    yield ctx.think(rng, 1)


def lg_del_book(ctx: ProgramContext, rng: random.Random):
    """TAdelBook: scan a topic's books, delete one subtree (jump)."""
    topic = yield Op("get_element_by_id", (ctx.pick_topic(rng),))
    yield ctx.think(rng, 1)
    if topic is None:
        return
    books = yield Op("get_child_nodes", (topic,))
    yield ctx.think(rng, len(books))
    if not books:
        return
    book = rng.choice(list(books))
    entries = yield Op("read_subtree", (book,))
    yield ctx.think(rng, len(entries))
    yield Op("delete_subtree", (book, "jump"))
    yield ctx.think(rng, 1)


def lg_lend_and_return(ctx: ProgramContext, rng: random.Random):
    """TAlendAndReturn: walk into a book's history, return + lend."""
    book = yield Op("get_element_by_id", (ctx.pick_book(rng),))
    yield ctx.think(rng, 1)
    if book is None:
        return
    history = yield Op("get_last_child", (book,))
    yield ctx.think(rng, 1)
    if history is None:
        return
    lends = yield Op("get_child_nodes", (history,))
    yield ctx.think(rng, len(lends) + 1)
    if lends and rng.random() < 0.5:
        yield Op("delete_subtree", (lends[0],))
        yield ctx.think(rng, 1)
    person = ctx.pick_person(rng)
    lend_date = f"2006-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    yield Op("insert_tree",
             (history, ("lend", {"person": person, "return": lend_date}, [])))
    yield ctx.think(rng, 1)


def lg_rename_topic(ctx: ProgramContext, rng: random.Random):
    """TArenameTopic: jump to a hot topic and rename it."""
    topic = yield Op("get_element_by_id", (ctx.pick_topic(rng),))
    yield ctx.think(rng, 1)
    if topic is None:
        return
    name = rng.choice(("topic", "subject", "category", "area"))
    yield Op("rename_element", (topic, name))
    yield ctx.think(rng, 1)


#: Client-side programs, keyed by the paper's transaction-type names.
PROGRAMS = {
    "TAqueryBook": lg_query_book,
    "TAchapter": lg_chapter,
    "TAdelBook": lg_del_book,
    "TAlendAndReturn": lg_lend_and_return,
    "TArenameTopic": lg_rename_topic,
}


class _MixPicker:
    """Weighted transaction-type choice with a precomputed CDF."""

    def __init__(self, mix: Dict[str, int]):
        items = [(name, weight) for name, weight in mix.items() if weight > 0]
        if not items:
            raise ValueError("transaction mix is empty")
        for name, _weight in items:
            if name not in PROGRAMS:
                raise ValueError(f"unknown transaction type {name!r}")
        self.names = [name for name, _w in items]
        total = float(sum(w for _n, w in items))
        cdf, running = [], 0.0
        for _name, weight in items:
            running += weight / total
            cdf.append(running)
        cdf[-1] = 1.0
        self._cdf = cdf

    def pick(self, rng: random.Random) -> str:
        index = min(bisect.bisect_left(self._cdf, rng.random()),
                    len(self.names) - 1)
        return self.names[index]


# -- the client slot ----------------------------------------------------------


def client_slot(cfg: LoadGenConfig, ctx: ProgramContext, picker: _MixPicker,
                stats: LoadStats, rng: random.Random, deadline_ms: float):
    """One open-loop client: arrivals, programs, client-side retry.

    Yields effects; the executor resumes with the current time (and the
    reply value for ``Op``/``Qry``) or throws the typed error in.
    """
    mean_ia = cfg.mean_interarrival_ms()

    def interarrival() -> float:
        if cfg.arrival == "uniform":
            return mean_ia
        return rng.expovariate(1.0 / mean_ia)

    # Desynchronize client phases across the first arrival period; a
    # client whose first arrival misses the deadline issues nothing.
    first = rng.uniform(0.0, mean_ia)
    if first >= deadline_ms:
        return
    now = yield Think(first)
    next_arrival = now + interarrival()
    while next_arrival < deadline_ms:
        if now < next_arrival:
            now = yield Think(next_arrival - now)
        scheduled = next_arrival
        next_arrival = scheduled + interarrival()
        txn_type = picker.pick(rng)
        st = stats.of(txn_type)
        st.issued += 1
        restarts = 0
        while True:
            program = PROGRAMS[txn_type](ctx, rng)
            failure = None
            try:
                now = yield Begin(txn_type)
                value = None
                while True:
                    try:
                        effect = program.send(value)
                    except StopIteration:
                        break
                    if isinstance(effect, Think):
                        now = yield effect
                        value = None
                    else:
                        now, value = yield effect
                now = yield Commit()
            except AdmissionRejected:
                st.sheds += 1
                failure = "shed"
            except (TransactionAborted, TransientError):
                st.aborted += 1
                failure = "transient"
            except ProtocolError:
                stats.protocol_errors += 1
                break
            except ReproError:
                st.aborted += 1
                failure = "permanent"
            if failure is None:
                st.committed += 1
                st.latencies.append(now - scheduled)
                break
            if failure == "permanent" or cfg.retry is None or \
                    not cfg.retry.allows_restart(restarts):
                st.gave_up += 1
                break
            restarts += 1
            st.retries += 1
            now = yield Think(cfg.retry.backoff_ms(restarts, rng))


# -- effects on the wire ------------------------------------------------------


class _Session:
    """One simulated client's open transaction: which request frame an
    effect stands for, and what its reply resumes the slot with."""

    __slots__ = ("isolation", "txn_id")

    def __init__(self, isolation: Optional[str]):
        self.isolation = isolation
        self.txn_id: Optional[int] = None

    def request(self, effect) -> Tuple[Any, ...]:
        """``(opcode, *fields)`` of the request frame for ``effect``."""
        if isinstance(effect, Op):
            return (wire.OP_CALL, self.txn_id, effect.name,
                    tuple(effect.args))
        if isinstance(effect, Qry):
            return wire.OP_QUERY, self.txn_id, effect.path
        if isinstance(effect, Begin):
            return wire.OP_BEGIN, effect.txn_type, self.isolation
        if isinstance(effect, Commit):
            return wire.OP_COMMIT, self.txn_id
        raise ProtocolError(f"unknown effect {effect!r}")

    def resume(self, effect, body: Tuple[Any, ...], now_ms: float):
        """The value the slot resumes with, given the reply ``body``."""
        if isinstance(effect, (Op, Qry)):
            return now_ms, body[0]
        self.txn_id = int(body[0]) if isinstance(effect, Begin) else None
        return now_ms


# -- sim executor -------------------------------------------------------------


def _sim_process(slot, handler: RequestHandler, sim: Simulator,
                 isolation: Optional[str]):
    """Drive one client slot as a Simulator process.

    A loopback connection to the server's own request handler: every
    request and reply crosses the wire codec as a frame, and whatever
    the handler blocks on (admission back-off, lock waits, cost-model
    delays) is yielded on to the simulator.
    """
    conn = handler.connect()
    session = _Session(isolation)
    resume, value = slot.send, None
    try:
        while True:
            try:
                effect = resume(value)
            except StopIteration:
                return
            resume, value = slot.send, None
            try:
                if isinstance(effect, Think):
                    if effect.ms > 0.0:
                        yield Delay(effect.ms)
                    value = sim.now
                    continue
                opcode, body = wire.decode_frame(
                    wire.encode_frame(*session.request(effect))
                )
                reply = handler.dispatch(conn, opcode, body)
                if not isinstance(reply, bytes):
                    reply = yield from reply
                opcode, body = wire.decode_frame(reply)
                if opcode == wire.OP_ERROR:
                    raise wire.decode_error(body)
                value = session.resume(effect, body, sim.now)
            except ReproError as exc:
                # The server aborts the transaction on any failed
                # operation.
                session.txn_id = None
                resume, value = slot.throw, exc
    finally:
        handler.abandon(conn)


def run_sim(cfg: LoadGenConfig) -> Dict[str, Any]:
    """The deterministic executor: byte-identical report per seed."""
    info = load_bib(cfg.scale, seed=cfg.doc_seed)
    database = Database(
        protocol=cfg.protocol,
        lock_depth=cfg.lock_depth,
        isolation=cfg.isolation or "repeatable",
        document=info.document,
        wait_timeout_ms=cfg.wait_timeout_ms,
    )
    sim = Simulator()
    handler = RequestHandler(
        database,
        clock=lambda: sim.now,
        config=ServerConfig(admission=cfg.admission, telemetry=False),
    )
    stats = LoadStats()
    ctx = _make_context(cfg, info.book_ids, info.topic_ids, info.person_ids)
    picker = _MixPicker(cfg.mix)
    series = None
    if cfg.telemetry_window_ms > 0.0:
        # The sim-clock twin of the live server's sampler task: one
        # deterministic process ticking the windowed series, so a fixed
        # seed renders a byte-identical telemetry payload.
        from repro.obs import WindowedSeries

        series = WindowedSeries(
            database.obs.metrics,
            window_ms=cfg.telemetry_window_ms,
            clock=lambda: sim.now,
        )

        def _sampler(s=series, window_ms=cfg.telemetry_window_ms):
            while True:
                yield Delay(window_ms)
                s.tick()

        sim.spawn(_sampler(), name="telemetry-sampler")
    master = random.Random(cfg.seed)
    for index in range(cfg.clients):
        rng = random.Random(master.randrange(2 ** 62))
        slot = client_slot(cfg, ctx, picker, stats, rng, cfg.duration_ms)
        sim.spawn(
            _sim_process(slot, handler, sim, cfg.isolation),
            name=f"client-{index}",
        )
    sim.run(until=cfg.duration_ms)
    telemetry = series.to_dict() if series is not None else None
    return build_report(cfg, stats, cfg.duration_ms, telemetry=telemetry)


# -- live executor ------------------------------------------------------------


def _end_session(session: RemoteSession) -> None:
    """Roll ``session`` back unless it is already over; either way its
    connection goes back to the pool (a dead one is discarded)."""
    try:
        session.abort()
    except ReproError:
        pass  # already finished, or the link is gone


def _live_slot(slot, db: RemoteDatabase, t0: float,
               isolation: Optional[str]) -> None:
    """Drive one client slot against the live server, on its own thread.

    Each transaction is one :class:`~repro.net.client.RemoteSession`:
    ``Begin`` leases a pooled connection (a wait for a free one counts
    into open-loop latency) and ``Commit`` or a failed request returns it.
    """
    session: Optional[RemoteSession] = None
    resume, value = slot.send, None
    try:
        while True:
            try:
                effect = resume(value)
            except StopIteration:
                return
            result = None
            try:
                if isinstance(effect, Think):
                    if effect.ms > 0.0:
                        time.sleep(effect.ms / 1000.0)
                elif isinstance(effect, Begin):
                    session = db.session(effect.txn_type, isolation)
                elif isinstance(effect, Commit):
                    session, finished = None, session
                    finished.commit()
                elif isinstance(effect, Qry):
                    result = session.run(session.query(effect.path))
                else:
                    result = session.run(
                        getattr(session.nodes, effect.name)(*effect.args)
                    )
            except (ReproError, OSError) as exc:
                if session is not None:
                    session, failed = None, session
                    _end_session(failed)
                # A socket error the client leaves untyped (the socket
                # timeout) reaches the slot as a protocol error.
                if not isinstance(exc, ReproError):
                    exc = ProtocolError(f"{type(exc).__name__}: {exc}")
                resume, value = slot.throw, exc
                continue
            now = (time.monotonic() - t0) * 1000.0
            resume = slot.send
            value = (now, result) if isinstance(effect, (Op, Qry)) else now
    finally:
        if session is not None:
            _end_session(session)


def run_live(cfg: LoadGenConfig) -> Dict[str, Any]:
    """Drive the configured load against a live server over TCP.

    One thread per client slot, all leasing from one
    :class:`~repro.net.client.RemoteDatabase` pool of
    ``cfg.resolved_pool_size()`` connections.
    """
    with RemoteDatabase(
        cfg.host, cfg.port, pool_size=cfg.resolved_pool_size(),
        client_name="repro-loadgen",
    ) as db:
        info = db.info()
        ctx = _make_context(
            cfg,
            info.get("book_ids", ()),
            info.get("topic_ids", ()),
            info.get("person_ids", ()),
        )
        picker = _MixPicker(cfg.mix)
        master = random.Random(cfg.seed)
        # One LoadStats per slot: no counter is shared across threads.
        slot_stats = [LoadStats() for _index in range(cfg.clients)]
        t0 = time.monotonic()
        with ThreadPoolExecutor(max_workers=cfg.clients) as executor:
            futures = [
                executor.submit(
                    _live_slot,
                    client_slot(cfg, ctx, picker, stats,
                                random.Random(master.randrange(2 ** 62)),
                                cfg.duration_ms),
                    db, t0, cfg.isolation,
                )
                for stats in slot_stats
            ]
        for future in futures:
            future.result()  # a slot that died raises here
        duration_ms = (time.monotonic() - t0) * 1000.0
        stats = LoadStats()
        for one in slot_stats:
            stats.merge(one)
        server_stats = server_telemetry = None
        try:
            server_stats = db.stats()
            server_telemetry = db.telemetry()
        except ReproError:
            pass  # telemetry disabled server-side: report without it
    return build_report(
        cfg, stats, duration_ms,
        server=server_stats, telemetry=server_telemetry,
    )


def run(cfg: LoadGenConfig) -> Dict[str, Any]:
    if cfg.mode == "sim":
        return run_sim(cfg)
    if cfg.mode == "live":
        return run_live(cfg)
    raise ValueError(f"unknown loadgen mode {cfg.mode!r}")


# -- reporting ----------------------------------------------------------------


def _make_context(cfg: LoadGenConfig, book_ids, topic_ids,
                  person_ids) -> ProgramContext:
    book_ids = list(book_ids)
    topic_ids = list(topic_ids)
    if not book_ids or not topic_ids:
        raise ValueError(
            "the served document carries no bib workload handles "
            "(book_ids/topic_ids) -- loadgen needs a bib document"
        )
    return ProgramContext(
        book_ids=book_ids,
        topic_ids=topic_ids,
        person_ids=list(person_ids),
        book_sampler=ZipfSampler(len(book_ids), cfg.zipf_s),
        topic_sampler=ZipfSampler(len(topic_ids), cfg.zipf_s),
        think_ms=cfg.think_ms,
        think_dist=cfg.think_dist,
    )


def build_report(cfg: LoadGenConfig, stats: LoadStats, duration_ms: float,
                 *, server: Optional[Dict[str, Any]] = None,
                 telemetry: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The loadgen report: config echo, per-type SLOs, overload counts."""
    by_type: Dict[str, Any] = {}
    pooled: List[float] = []
    totals = dict.fromkeys(_COUNTS, 0)
    for name in sorted(stats.by_type):
        st = stats.by_type[name]
        counts = {key: getattr(st, key) for key in _COUNTS}
        by_type[name] = dict(counts, latency=latency_slo(st.latencies))
        pooled.extend(st.latencies)
        for key in _COUNTS:
            totals[key] += counts[key]
    report: Dict[str, Any] = {
        "config": {
            "mode": cfg.mode,
            "clients": cfg.clients,
            "duration_ms": cfg.duration_ms,
            "rate_tps": cfg.rate_tps,
            "arrival": cfg.arrival,
            "think_ms": cfg.think_ms,
            "think_dist": cfg.think_dist,
            "zipf_s": cfg.zipf_s,
            "seed": cfg.seed,
            "mix": dict(cfg.mix),
            "retry": None if cfg.retry is None else {
                "max_restarts": cfg.retry.max_restarts,
                "base_backoff_ms": cfg.retry.base_backoff_ms,
                "max_backoff_ms": cfg.retry.max_backoff_ms,
            },
        },
        "duration_ms": duration_ms,
        "by_type": by_type,
        "overall": dict(totals, latency=latency_slo(pooled)),
        "protocol_errors": stats.protocol_errors,
    }
    if cfg.mode == "sim":
        report["config"]["protocol"] = cfg.protocol
        report["config"]["lock_depth"] = cfg.lock_depth
        report["config"]["scale"] = cfg.scale
    if server is not None:
        report["server"] = server
    if telemetry is not None:
        report["telemetry"] = telemetry
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, so equal runs are equal bytes."""
    return json.dumps(report, sort_keys=True, indent=2)
