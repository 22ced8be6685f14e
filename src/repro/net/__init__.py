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

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".wire": ("wire",),
    ".client": ("ClientPool", "RemoteDatabase", "RemoteSession",
                "WireConnection"),
    ".server": ("LockServer", "ServerConfig", "SloTracker", "run_server"),
})

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
