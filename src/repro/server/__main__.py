"""Serve a historical database over TCP: ``python -m repro.server``.

Usage::

    python -m repro.server PATH [--host H] [--port P]
                                [--sync always|batch|never]
                                [--wal-batch-size N]
    python -m repro.server --demo [--host H] [--port P]

``PATH`` is a durable database directory (created if missing) opened
with the given WAL sync policy; ``--demo`` serves the HRQL shell's
ephemeral demo catalog instead (relation ``EMP``). The server prints
one ``listening on HOST:PORT`` line once it accepts connections —
drivers that spawn it as a subprocess (tests, benchmarks) parse the
real port from that line when ``--port 0`` asked for an ephemeral one.
SIGINT / SIGTERM shut down gracefully: in-flight requests finish, the
database flushes and closes.

Connect with :func:`repro.client.connect`, or from the HRQL shell via
``\\connect HOST:PORT``.
"""

from __future__ import annotations

import argparse
import sys

from repro.database import HistoricalDatabase
from repro.server import DatabaseServer
from repro.server.frames import serve_cli
from repro.storage.wal import SYNC_POLICIES


class _OwningServer(DatabaseServer):
    """The CLI's server opened its database, so it also closes it."""

    def _after_stopping(self) -> None:
        self.db.close()


def _demo_database() -> HistoricalDatabase:
    from repro.workloads import PersonnelConfig, generate_personnel

    db = HistoricalDatabase("demo")
    emp = generate_personnel(PersonnelConfig(n_employees=20, seed=7))
    db.create_relation(emp.scheme, emp.tuples)
    return db


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a historical database over TCP.")
    parser.add_argument("path", nargs="?", default=None,
                        help="durable database directory (created if missing)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7707,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--sync", default="batch", choices=SYNC_POLICIES,
                        help="WAL fsync policy for a durable database")
    parser.add_argument("--wal-batch-size", type=int, default=64,
                        help="group-commit window under --sync batch")
    parser.add_argument("--demo", action="store_true",
                        help="serve the ephemeral demo catalog (EMP)")
    args = parser.parse_args(argv)
    if args.path is None and not args.demo:
        parser.error("give a database directory PATH, or --demo")

    def build() -> DatabaseServer:
        if args.path is not None:
            db = HistoricalDatabase(path=args.path, sync=args.sync,
                                    wal_batch_size=args.wal_batch_size)
        else:
            db = _demo_database()
        return _OwningServer(db, args.host, args.port)

    return serve_cli(build, lambda server: f"serving {server.db.name!r}",
                     "server stopped")


if __name__ == "__main__":
    sys.exit(main())
