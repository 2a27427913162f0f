"""Run a sharded HRDM deployment: ``python -m repro.sharding``.

Usage::

    python -m repro.sharding worker PATH [--host H] [--port P]
                                         [--shard-id N]
                                         [--coordinator HOST:PORT]
                                         [--sync always|batch|never]
                                         [--wal-batch-size N]
    python -m repro.sharding coordinator PATH
                                         --shard HOST:PORT[,REPLICA...]
                                         [--shard ...]
                                         [--host H] [--port P]
                                         [--broadcast NAME ...]
                                         [--name NAME]

Start the workers first (each over its own durable directory), then
the coordinator with one ``--shard`` per worker — the shard list's
*order* defines shard ids, and reopening an existing coordinator
directory with a different shard count is refused (the durable catalog
pins it). Each ``--shard`` may list failover replicas after the leader,
comma-separated. Both subcommands print one ``listening on HOST:PORT``
line once they accept connections (drivers parse the real port from it
under ``--port 0``) and shut down gracefully on SIGINT / SIGTERM.

Clients connect to the coordinator exactly as to a plain server::

    python -m repro.query --connect HOST:PORT
"""

from __future__ import annotations

import argparse
import sys

from repro.server.frames import serve_cli
from repro.storage.wal import SYNC_POLICIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sharding",
        description="Run a shard worker or the shard coordinator.")
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser(
        "worker", help="serve one shard (a durable database directory)")
    worker.add_argument("path",
                        help="this shard's durable directory "
                             "(created if missing)")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0,
                        help="TCP port (default: ephemeral)")
    worker.add_argument("--shard-id", type=int, default=0,
                        help="this shard's id (its index in the "
                             "coordinator's --shard list)")
    worker.add_argument("--coordinator", default=None,
                        metavar="HOST:PORT",
                        help="coordinator address to poll for in-doubt "
                             "2PC resolution")
    worker.add_argument("--sync", default="batch", choices=SYNC_POLICIES,
                        help="WAL fsync policy")
    worker.add_argument("--wal-batch-size", type=int, default=64,
                        help="group-commit window under --sync batch")

    coord = sub.add_parser(
        "coordinator", help="route clients across the shard workers")
    coord.add_argument("path",
                       help="coordinator directory for the shard catalog "
                            "and 2PC decision log (created if missing)")
    coord.add_argument("--shard", action="append", default=[],
                       metavar="HOST:PORT[,REPLICA...]",
                       help="one shard's address set, leader first; "
                            "repeat per shard — order defines shard ids")
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=7700,
                       help="TCP port (0 binds an ephemeral port)")
    coord.add_argument("--broadcast", action="append", default=[],
                       metavar="RELATION",
                       help="relation created without an explicit "
                            "placement that should default to broadcast")
    coord.add_argument("--name", default="sharded",
                       help="catalog name reported to clients")
    args = parser.parse_args(argv)

    if args.command == "worker":
        from repro.sharding.worker import ShardWorker

        return serve_cli(
            lambda: ShardWorker(args.path, shard_id=args.shard_id,
                                host=args.host, port=args.port,
                                coordinator=args.coordinator,
                                sync=args.sync,
                                wal_batch_size=args.wal_batch_size),
            lambda node: f"shard {node.shard_id} serving {args.path!r}",
            "shard worker stopped")

    if not args.shard:
        coord.error("give at least one --shard HOST:PORT")
    from repro.sharding.coordinator import Coordinator

    return serve_cli(
        lambda: Coordinator(args.path, args.shard, name=args.name,
                            host=args.host, port=args.port,
                            broadcast=args.broadcast),
        lambda node: (f"coordinating {node.n_shards} shard(s) "
                      f"as {node.name!r}"),
        "coordinator stopped")


if __name__ == "__main__":
    sys.exit(main())
