"""The ``served-closed`` server process.

Started by :mod:`served` with ``python server_child.py <trace 0|1>``.  It
builds a ``LockServer`` with the defaults of ``repro serve`` on an
ephemeral port, prints one JSON line ``{"port": ...}`` once the socket is
bound, serves until its stdin closes (so it cannot outlive the benchmark),
then prints one JSON line with its peak RSS and, when traced, its folded
profile.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import resource
import sys

import layers

sys.path.insert(0, str(layers.SRC))

from repro.net.server import LockServer, ServerConfig  # noqa: E402


async def _serve(server: LockServer) -> None:
    _host, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop()


def main() -> int:
    traced = sys.argv[1:] == ["1"]
    server = LockServer.from_config(ServerConfig(port=0))
    profile = cProfile.Profile() if traced else None
    if profile is not None:
        profile.enable()
    try:
        asyncio.run(_serve(server))
    finally:
        if profile is not None:
            profile.disable()
    print(json.dumps({
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fold": layers.fold([profile]) if profile is not None else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
