"""Shard transports: simulated-network and real multiprocessing.

Both transports move *encoded wire frames* (the exact bytes of
:mod:`repro.shard.messages`) and expose the same blocking
``request(shard_id, frame) -> frame`` call, so the router is transport-
agnostic and the message protocol is exercised end-to-end either way.

:class:`SimTransport` keeps the shard servers in-process.  Every request
still round-trips through the codec -- encode, "deliver", decode,
handle, encode, "deliver", decode -- so a seeded simulated run covers
the same protocol surface as a process run, byte-identically across
repeats.

:class:`ProcessTransport` runs each shard as a real
:mod:`multiprocessing` process connected by a duplex pipe.  The child
rebuilds its replica stack from the primitive-only config, then serves
a strict one-request/one-reply loop until ``SHUTDOWN``.  Because the
router is synchronous and shards derive all timing from message-carried
clocks, process-mode results are deterministic too -- identical to the
simulated-network mode for the same seed.

Crash tolerance
---------------
Both transports expose ``kill(shard_id)`` / ``restart(shard_id)`` so a
supervisor (:class:`repro.shard.supervisor.ShardSupervisor`) can crash a
shard and bring it back.  A kill is a real ``SIGKILL`` under the process
transport and an instance discard under the simulated one -- either way
all in-memory shard state is lost, and the replacement rebuilds itself
from the config (replaying its persisted WAL when ``wal_path`` is set),
so the two transports converge on the same recovered state.  A request
to a dead (or freshly crashed) shard raises the *transient*
:class:`~repro.errors.ShardUnavailableError`, and the process transport
reaps the corpse immediately rather than leaving a zombie until
``close()``.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence

from repro.errors import ShardUnavailableError
from repro.shard import messages
from repro.shard.shard import ShardServer


class SimTransport:
    """In-process shards behind the wire codec (deterministic default)."""

    def __init__(self, configs: Sequence[Dict[str, object]]):
        self.configs = [dict(config) for config in configs]
        self.servers: List[Optional[ShardServer]] = [
            ShardServer(shard_id, config)
            for shard_id, config in enumerate(self.configs)
        ]

    @property
    def shards(self) -> int:
        return len(self.servers)

    def request(self, shard_id: int, frame: bytes) -> bytes:
        server = self.servers[shard_id]
        if server is None:
            raise ShardUnavailableError(
                f"shard {shard_id} is down", shard_id=shard_id
            )
        return server.handle(bytes(frame))

    def kill(self, shard_id: int) -> None:
        """Crash the shard: discard the instance and all in-memory state.

        Its file handle goes the way a killed process's descriptors do.
        """
        server = self.servers[shard_id]
        if server is not None:
            server.close()
        self.servers[shard_id] = None

    def restart(self, shard_id: int) -> None:
        """Replace a crashed shard; it recovers itself from ``wal_path``."""
        self.servers[shard_id] = ShardServer(
            shard_id, self.configs[shard_id]
        )

    def alive(self, shard_id: int) -> bool:
        return self.servers[shard_id] is not None

    def close(self) -> None:
        for server in self.servers:
            if server is not None and not server.stopped:
                server.handle(messages.encode_shutdown())


def shard_main(conn, shard_id: int, config: Dict[str, object]) -> None:
    """Child-process entry point: serve one shard over a pipe."""
    server = ShardServer(shard_id, config)
    try:
        while not server.stopped:
            try:
                data = conn.recv_bytes()
            except EOFError:
                break
            conn.send_bytes(server.handle(data))
    finally:
        server.close()
        conn.close()


class ProcessTransport:
    """One real OS process per shard, speaking frames over pipes.

    ``request_timeout_s`` bounds each request round trip: a shard that
    does not answer in time is declared dead (killed, reaped) and the
    request raises :class:`~repro.errors.ShardUnavailableError`.  The
    default of ``None`` blocks forever, matching the pre-crash-tolerance
    behaviour.  ``close_timeout_s`` bounds the shutdown handshake per
    shard so one wedged child cannot hang the whole teardown.
    """

    def __init__(
        self,
        configs: Sequence[Dict[str, object]],
        *,
        request_timeout_s: Optional[float] = None,
        close_timeout_s: float = 10.0,
    ):
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.configs = [dict(config) for config in configs]
        self.request_timeout_s = request_timeout_s
        self.close_timeout_s = float(close_timeout_s)
        self._pipes: List[Optional[object]] = []
        self._procs: List[Optional[object]] = []
        try:
            for shard_id, config in enumerate(self.configs):
                self._pipes.append(None)
                self._procs.append(None)
                self._spawn(shard_id)
        except BaseException:
            self.close()
            raise

    def _spawn(self, shard_id: int) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_main,
            args=(child, shard_id, dict(self.configs[shard_id])),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._pipes[shard_id] = parent
        self._procs[shard_id] = proc

    @property
    def shards(self) -> int:
        return len(self._procs)

    def request(self, shard_id: int, frame: bytes) -> bytes:
        pipe = self._pipes[shard_id]
        if pipe is None:
            raise ShardUnavailableError(
                f"shard {shard_id} is down", shard_id=shard_id
            )
        try:
            pipe.send_bytes(frame)
            if self.request_timeout_s is not None:
                if not pipe.poll(self.request_timeout_s):
                    # The child is wedged or dying: a healthy shard
                    # answers synchronously. Put it out of its misery so
                    # the reply can never arrive late and desequence the
                    # one-request/one-reply pipe discipline.
                    self._reap(shard_id, kill=True)
                    raise ShardUnavailableError(
                        f"shard {shard_id} timed out after "
                        f"{self.request_timeout_s}s",
                        shard_id=shard_id,
                    )
            return pipe.recv_bytes()
        except (EOFError, OSError) as exc:
            # Reap the corpse now -- waiting for close() would leak the
            # dead process (and its pipe fds) for the rest of the run.
            self._reap(shard_id, kill=True)
            raise ShardUnavailableError(
                f"shard {shard_id} process died mid-request: {exc}",
                shard_id=shard_id,
            ) from exc

    def kill(self, shard_id: int) -> None:
        """SIGKILL the shard process and reap it immediately."""
        self._reap(shard_id, kill=True)

    def restart(self, shard_id: int) -> None:
        """Start a replacement process; it recovers from ``wal_path``."""
        self._reap(shard_id, kill=True)
        self._spawn(shard_id)

    def alive(self, shard_id: int) -> bool:
        proc = self._procs[shard_id]
        return proc is not None and proc.is_alive()

    def _reap(self, shard_id: int, *, kill: bool) -> None:
        proc = self._procs[shard_id]
        pipe = self._pipes[shard_id]
        if pipe is not None:
            pipe.close()
        if proc is not None:
            if kill and proc.is_alive():
                proc.kill()
            proc.join(timeout=self.close_timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._pipes[shard_id] = None
        self._procs[shard_id] = None

    def close(self) -> None:
        for shard_id, pipe in enumerate(self._pipes):
            if pipe is None:
                continue
            try:
                pipe.send_bytes(messages.encode_shutdown())
                # Bounded handshake: a dead or wedged child must not
                # hang teardown on a blocking recv.
                if pipe.poll(self.close_timeout_s):
                    pipe.recv_bytes()
            except (EOFError, OSError):
                pass
        for shard_id in range(len(self._procs)):
            self._reap(shard_id, kill=False)
