"""Network front door: wire protocol, asyncio server, client, loadgen.

The embedded :class:`~repro.database.Database` stays the kernel; this
package puts a socket in front of it.  :mod:`repro.net.wire` defines the
length-prefixed binary frame codec, :mod:`repro.net.server` serves one
database over it on asyncio, :mod:`repro.net.client` provides the one
client library (:class:`RemoteDatabase` / :class:`RemoteSession` mirror
the embedded surface), and :mod:`repro.net.loadgen` replays TaMix
transaction types open-loop from thousands of clients -- live, one
thread per client on that client library, or simulated in-process.
"""

from repro.net import wire
from repro.net.client import (
    ClientPool,
    RemoteDatabase,
    RemoteSession,
    WireConnection,
)
from repro.net.server import (
    LockServer,
    ServerConfig,
    SloTracker,
    run_server,
)

__all__ = [
    "wire",
    "ClientPool",
    "RemoteDatabase",
    "RemoteSession",
    "WireConnection",
    "LockServer",
    "ServerConfig",
    "SloTracker",
    "run_server",
]
