"""``served-closed``: a fresh ``LockServer`` child driven by a closed loop.

Each client owns one blocking ``WireConnection`` and sends its next
request only after the previous reply arrived (TaMix clients wait for
each reply, so the loop is closed; think time is zero).  A deadlock or
timeout victim restarts the same program under ``RetryPolicy()``; giving
up, a protocol error or an unexpected exception is a failure.
"""

from __future__ import annotations

import cProfile
import json
import random
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
from repro.chaos.retry import RetryPolicy
from repro.errors import (
    ProtocolError,
    ReproError,
    TransactionAborted,
    TransientError,
)
from repro.net import wire
from repro.net.client import WireConnection
from repro.net.loadgen import (
    PROGRAMS,
    Op,
    ProgramContext,
    Qry,
    Think,
    ZipfSampler,
)
from repro.tamix.cluster import CLUSTER1_MIX

ZIPF_S = 1.1
SERVER_CHILD = Path(__file__).with_name("server_child.py")
SERVER_START_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """The benchmark's launcher for one server child."""

    def __init__(self, *, traced: bool):
        self._proc = subprocess.Popen(
            [sys.executable, str(SERVER_CHILD), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = 0
        try:
            self.port = int(self._read_message(SERVER_START_TIMEOUT_S)["port"])
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise

    def _read_message(self, timeout_s: float) -> dict:
        """One JSON line from the child, bounded so a wedged child fails
        the run instead of hanging it."""
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout_s)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"server child sent nothing within {timeout_s:.0f} s "
                f"(exit code {self._proc.poll()})"
            )
        return json.loads(line)

    def stop(self) -> dict:
        """Close the child's stdin, collect its final message, reap it."""
        try:
            self._proc.stdin.close()
            final = self._read_message(SERVER_STOP_TIMEOUT_S)
            self._proc.wait(SERVER_STOP_TIMEOUT_S)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        finally:
            self._proc.stdout.close()
        if self._proc.returncode != 0:
            raise RuntimeError(
                f"server child exited with code {self._proc.returncode}"
            )
        return final


class ClientResult:
    """What one closed-loop client observed."""

    def __init__(self):
        self.issued = 0
        self.committed = 0
        self.aborted = 0
        self.failed = 0
        self.protocol_errors = 0
        self.errors: List[str] = []
        self.txn_ms: List[float] = []
        self.commit_at: List[float] = []
        self.req_ms: Dict[str, List[float]] = {
            "BEGIN": [], "CALL": [], "QUERY": [], "COMMIT": [],
        }
        self.wait_s = 0.0
        self.started = 0.0
        self.finished = 0.0
        self.profile: Optional[cProfile.Profile] = None


def _run_client(
    port: int, seed: int, transactions: int, barrier: threading.Barrier,
    result: ClientResult, traced: bool,
) -> None:
    if traced:
        result.profile = cProfile.Profile()
        result.profile.enable()
    try:
        _client_loop(port, seed, transactions, barrier, result)
    except threading.BrokenBarrierError:
        pass  # the other client failed first and reported why
    except Exception as exc:  # boundary: the thread must report, not die
        barrier.abort()
        result.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if result.profile is not None:
            result.profile.disable()


def _client_loop(
    port: int, seed: int, transactions: int, barrier: threading.Barrier,
    result: ClientResult,
) -> None:
    rng = random.Random(seed)
    retry = RetryPolicy()
    mix = [name for name, weight in CLUSTER1_MIX.items() for _ in range(weight)]
    conn = WireConnection("127.0.0.1", port, client_name="e2e-bench")
    try:
        info = conn.server_info
        ctx = ProgramContext(
            book_ids=list(info["book_ids"]),
            topic_ids=list(info["topic_ids"]),
            person_ids=list(info["person_ids"]),
            book_sampler=ZipfSampler(len(info["book_ids"]), ZIPF_S),
            topic_sampler=ZipfSampler(len(info["topic_ids"]), ZIPF_S),
            think_ms=0.0,
            think_dist="fixed",
        )
        clock = time.perf_counter

        def request(kind: str, opcode: int, *fields):
            sent = clock()
            try:
                return conn.request(opcode, *fields)[1]
            finally:
                elapsed = clock() - sent
                result.wait_s += elapsed
                result.req_ms[kind].append(elapsed * 1000.0)

        barrier.wait()
        result.started = clock()
        for _ in range(transactions):
            txn_type = rng.choice(mix)
            result.issued += 1
            restarts = 0
            while True:
                program = PROGRAMS[txn_type](ctx, rng)
                begun = clock()
                try:
                    txn_id = request("BEGIN", wire.OP_BEGIN, txn_type, None)[0]
                    value = None
                    while True:
                        try:
                            effect = program.send(value)
                        except StopIteration:
                            break
                        if isinstance(effect, Think):
                            value = None
                        elif isinstance(effect, Qry):
                            value = request(
                                "QUERY", wire.OP_QUERY, txn_id, effect.path
                            )[0]
                        elif isinstance(effect, Op):
                            value = request(
                                "CALL", wire.OP_CALL, txn_id, effect.name,
                                tuple(effect.args),
                            )[0]
                        else:
                            raise ProtocolError(f"unknown effect {effect!r}")
                    request("COMMIT", wire.OP_COMMIT, txn_id)
                except (TransactionAborted, TransientError):
                    # The server rolled the victim back; restart the
                    # same program after the policy's backoff.
                    result.aborted += 1
                    if not retry.allows_restart(restarts):
                        result.failed += 1
                        break
                    restarts += 1
                    time.sleep(retry.backoff_ms(restarts, rng) / 1000.0)
                    continue
                except ProtocolError as exc:
                    result.protocol_errors += 1
                    result.failed += 1
                    result.errors.append(f"ProtocolError: {exc}")
                    return  # the connection is unusable
                except ReproError as exc:
                    result.failed += 1
                    result.errors.append(f"{type(exc).__name__}: {exc}")
                    break
                done = clock()
                result.committed += 1
                result.txn_ms.append((done - begun) * 1000.0)
                result.commit_at.append(done)
                break
    finally:
        result.finished = time.perf_counter()
        conn.close()


def drive(port: int, seed: int, clients: int, transactions: int,
          *, traced: bool) -> List[ClientResult]:
    """Run ``clients`` closed-loop clients to completion."""
    barrier = threading.Barrier(clients)
    master = random.Random(seed)
    results = [ClientResult() for _ in range(clients)]
    threads = [
        threading.Thread(
            target=_run_client,
            args=(port, master.randrange(2 ** 62), transactions, barrier,
                  result, traced),
        )
        for result in results
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def scrape(port: int) -> dict:
    """The server's STATS payload and its metric gauges (lock and buffer
    counters), read over a fresh connection."""
    conn = WireConnection("127.0.0.1", port, client_name="e2e-bench-stats")
    try:
        stats = conn.request(wire.OP_STATS)[1][0]
        telemetry = conn.request(wire.OP_TELEMETRY)[1][0]
    finally:
        conn.close()
    return {"stats": stats, "gauges": telemetry["snapshot"]["gauges"]}


def client_folds(results: List[ClientResult]) -> Dict[str, dict]:
    return layers.fold(
        result.profile for result in results if result.profile is not None
    )
