"""Run a read replica: ``python -m repro.replication``.

Usage::

    python -m repro.replication PATH --primary HOST:PORT
                                [--host H] [--port P]
                                [--replica-id ID]
                                [--sync always|batch|never]
                                [--wal-batch-size N]

``PATH`` is the replica's own durable directory (created if missing) —
its local mirror of the primary's history, recovered on restart like
any database directory. ``--primary`` names the primary server to
subscribe to. The process prints one ``listening on HOST:PORT`` line
once its read-only query port is bound (drivers spawning it as a
subprocess parse the real port from that line under ``--port 0``), then
syncs forever: snapshot bootstrap when needed, streamed WAL apply,
reconnect with exponential backoff when the primary goes away.
SIGINT / SIGTERM shut down gracefully.

Read from it with :func:`repro.client.connect` (directly, or as a
``replicas=[...]`` entry of a routed client), or from the HRQL shell
via ``\\connect PRIMARY,REPLICA``.
"""

from __future__ import annotations

import argparse
import sys

from repro.replication.replica import ReplicaServer
from repro.server.frames import serve_cli
from repro.storage.wal import SYNC_POLICIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication",
        description="Run a read replica of a served historical database.")
    parser.add_argument("path",
                        help="replica database directory (created if missing)")
    parser.add_argument("--primary", required=True,
                        help="the primary server, HOST:PORT")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="read-only query port (0 binds an ephemeral one)")
    parser.add_argument("--replica-id", default=None,
                        help="stable identity in the primary's lag registry")
    parser.add_argument("--sync", default="batch", choices=SYNC_POLICIES,
                        help="local WAL fsync policy")
    parser.add_argument("--wal-batch-size", type=int, default=64,
                        help="local group-commit window under --sync batch")
    args = parser.parse_args(argv)
    return serve_cli(
        lambda: ReplicaServer(
            args.path, args.primary, host=args.host, port=args.port,
            replica_id=args.replica_id, sync=args.sync,
            wal_batch_size=args.wal_batch_size),
        lambda replica: f"replica of {args.primary}", "replica stopped")


if __name__ == "__main__":
    sys.exit(main())
