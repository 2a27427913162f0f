"""Node launcher: ``python -m benchmarks.account.node server|worker PATH``.

The stock CLIs (``python -m repro.server`` / ``repro.sharding worker``)
cannot be used for the nodes that *commit*: integrity constraints are
neither persisted in the manifest nor registrable over the wire, so a
stock node would skip the constraint sweep that dominates an embedded
commit and the topology ladder would compare unlike things. This
launcher builds the same ``DatabaseServer`` / ``ShardWorker`` objects
those CLIs build, installs the scenario's constraints, and prints the
same ``listening on HOST:PORT`` line. With ``--trace FILE`` it also
installs the benchmark's span wrappers in this process and writes the
spans to FILE at shutdown. Replicas and the coordinator run no sweep
and use the stock CLIs.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro import faults
from repro.database import HistoricalDatabase
from repro.database.integrity import Constraint
from repro.server import DatabaseServer
from repro.sharding.worker import ShardWorker
from repro.workloads import get_scenario

from benchmarks.account import trace as trace_mod
from benchmarks.account.config import SCENARIO, SYNC
from benchmarks.account.streams import KNOBS


class WhenPresent(Constraint):
    """*inner*, enforced from the moment its relation exists — the node
    starts on an empty directory and is loaded over the wire."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def check(self, db) -> None:
        if self.inner.relation in db:
            self.inner.check(db)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.account.node")
    parser.add_argument("role", choices=("server", "worker"))
    parser.add_argument("path")
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    if faults.active() is not None:
        raise SystemExit("a fault schedule is installed; the account "
                         "measures the fault-free path only")
    tracer = None
    if args.trace:
        tracer = trace_mod.Tracer()
        trace_mod.install(tracer)
    if args.role == "server":
        db = HistoricalDatabase(path=args.path, sync=SYNC)
        node = DatabaseServer(db, "127.0.0.1", 0)
        stop = lambda: (node.stop(), db.close())
    else:
        node = ShardWorker(args.path, shard_id=args.shard_id, sync=SYNC)
        db = node.db
        stop = node.stop
    for constraint in get_scenario(SCENARIO).constraints(KNOBS):
        db.add_constraint(WhenPresent(constraint))

    def shut_down(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, shut_down)
    signal.signal(signal.SIGTERM, shut_down)
    host, port = node.address
    print(f"{args.role} {args.path!r} — listening on {host}:{port}", flush=True)
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop()
        if tracer is not None:
            tracer.write(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
