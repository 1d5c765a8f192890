"""The host process of the wire workloads.

Started by the load generator (``run.py``) as a separate process, so the
program under test has its own interpreter and core.  It brings the
topology up and down through the public API only (``SketchServer``,
``ClusterRouter``, ``start_tcp``) and takes one JSON command per line on
stdin, answering each with one JSON line on stdout:

* ``{"cmd": "up", "members": n, "router": bool, "seed": s}`` — start
  ``n`` servers (behind a router when ``router``), reply ``{"addr": [h, p]}``;
* ``{"cmd": "down"}`` — stop everything ``up`` started;
* ``{"cmd": "trace", "on": bool}`` — install or remove the span wrappers;
* ``{"cmd": "reading", "on": bool}`` — book what follows as reads (or ingest);
* ``{"cmd": "exit"}`` — stop, reply with the ledger, peak RSS and import
  time, and exit.

Usage: ``python host.py --root <checkout> [--inject LAYER:SECONDS]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checkout import import_repro  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Host:
    def __init__(self, import_s: float) -> None:
        from ledger import Tracer

        self.import_s = import_s
        self.tracer = Tracer(side="server")
        self.servers: list = []
        self.router = None

    async def up(self, members: int, router: bool, seed: int) -> dict:
        from repro import ClusterRouter, Member, SketchServer

        endpoints = []
        for index in range(members):
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            self.servers.append(server)
            endpoints.append(Member(f"m{index}", host, port))
        if not router:
            return {"addr": [endpoints[0].host, endpoints[0].port]}
        self.router = ClusterRouter(endpoints, seed=seed)
        host, port = await self.router.start_tcp("127.0.0.1", 0)
        return {"addr": [host, port]}

    async def down(self) -> dict:
        if self.router is not None:
            await self.router.stop()
            self.router = None
        for server in self.servers:
            await server.stop()
        self.servers.clear()
        return {"down": True}

    async def handle(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "up":
            return await self.up(
                int(command["members"]), bool(command["router"]), int(command["seed"])
            )
        if cmd == "down":
            return await self.down()
        if cmd == "trace":
            if command["on"]:
                self.tracer.install()
            else:
                self.tracer.uninstall()
            return {"trace": bool(command["on"])}
        if cmd == "reading":
            self.tracer.reading = bool(command["on"])
            return {"reading": self.tracer.reading}
        if cmd == "exit":
            await self.down()
            return {
                "ledger": self.tracer.snapshot(),
                "peak_rss_mb": peak_rss_mb(),
                "import_s": self.import_s,
            }
        raise ValueError(f"unknown host command {cmd!r}")


async def serve(host: Host) -> None:
    loop = asyncio.get_running_loop()
    lines: asyncio.Queue = asyncio.Queue()

    def pump() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(lines.put_nowait, line)
        loop.call_soon_threadsafe(lines.put_nowait, "")

    threading.Thread(target=pump, daemon=True).start()
    while True:
        line = await lines.get()
        if not line:  # the generator went away: stop cleanly
            await host.down()
            return
        command = json.loads(line)
        reply = await host.handle(command)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if command.get("cmd") == "exit":
            return


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--inject", default=None)
    args = parser.parse_args()
    import_s = import_repro(args.root)
    if args.inject:
        from ledger import inject_cost

        layer, seconds = args.inject.rsplit(":", 1)
        inject_cost(layer, float(seconds))
    host = Host(import_s)
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    asyncio.run(serve(host))


if __name__ == "__main__":
    main()
