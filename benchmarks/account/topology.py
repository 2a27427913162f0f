"""The four topologies, each booted fresh for every epoch.

``embedded`` is an in-process durable ``HistoricalDatabase``. The other
three spawn their nodes as subprocesses (``--port 0``, the real port
parsed from the ``listening on`` line) so the load generator's
interpreter lock is not in the measurement: committing nodes through
:mod:`benchmarks.account.node` (which installs the scenario constraint),
replicas and the coordinator through their stock CLIs. Every durable
directory uses ``sync="always"`` and lives under the epoch's work
directory inside the checkout. ``close()`` always runs terminate → wait
→ kill, whatever happened before it.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.client import Client, connect
from repro.core.errors import HRDMError
from repro.database import HistoricalDatabase
from repro.workloads import get_scenario

from benchmarks.account import ROOT, SRC
from benchmarks.account.config import OP_TIMEOUT, SCENARIO, SHARDS, SYNC
from benchmarks.account.streams import KNOBS

BOOT_TIMEOUT = 30.0
STOP_TIMEOUT = 10.0


class Node:
    """One spawned node process."""

    def __init__(self, module: str, args: List[str], log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, ROOT, env.get("PYTHONPATH")) if p)
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=self._log)
        #: Peak resident set of the exited process, KiB.
        self.maxrss_kb = 0
        try:
            self.address = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(BOOT_TIMEOUT):
                raise RuntimeError("node did not start listening in time")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on " not in line:
            raise RuntimeError(f"node failed to start: {line!r}")
        return line.rsplit("listening on ", 1)[1].strip()

    def stop(self) -> None:
        """terminate → wait → kill; records the child's peak RSS.

        Signals and reaps through ``os`` directly: ``wait4`` is what
        returns the child's own ``ru_maxrss``, and ``Popen`` would reap
        the zombie first if asked to poll.
        """
        proc = self.proc
        if proc.returncode is None:
            os.kill(proc.pid, signal.SIGTERM)
            deadline = time.monotonic() + STOP_TIMEOUT
            pid = 0
            while not pid and time.monotonic() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if not pid:
                    time.sleep(0.005)
            if not pid:
                os.kill(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = usage.ru_maxrss
            proc.stdout.close()
            self._log.close()


class Topology:
    """Base: boot, hand out sessions, tear down."""

    def __init__(self, workdir: str, trace: bool = False):
        self.workdir = workdir
        self.trace = trace
        self.nodes: List[Node] = []
        self.sessions: list = []
        #: Durable directories holding committed user data.
        self.data_dirs: List[str] = []
        self.db: Optional[HistoricalDatabase] = None
        os.makedirs(workdir)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _spawn(self, module: str, args: List[str], name: str) -> Node:
        node = Node(module, args, self._path(f"{name}.log"))
        self.nodes.append(node)
        return node

    def _committing_node(self, role: str, name: str, extra=()) -> Node:
        args = [role, self._path(name), *extra]
        if self.trace:
            args += ["--trace", self.trace_path(name)]
        self.data_dirs.append(self._path(name))
        return self._spawn("benchmarks.account.node", args, name)

    def trace_path(self, name: str) -> str:
        return self._path(f"{name}.trace.jsonl")

    def trace_files(self) -> List[str]:
        """Span files the nodes wrote at shutdown (call after close)."""
        return [p for p in (self.trace_path(os.path.basename(d))
                            for d in self.data_dirs) if os.path.exists(p)]

    def _load(self, session) -> None:
        get_scenario(SCENARIO).bootstrap(
            session, KNOBS, storage="disk",
            constraints=self.db is not None)

    def _plain(self, address: str) -> Client:
        """A plain (unrouted) session the topology closes at teardown."""
        session = connect(address, timeout=OP_TIMEOUT)
        self.sessions.append(session)
        return session

    def session(self):
        """A new client session (the embedded database itself in-process)."""
        return self._plain(self.front.address)

    def children_maxrss_kb(self) -> int:
        return sum(node.maxrss_kb for node in self.nodes)

    def close(self) -> None:
        for session in self.sessions:
            try:
                session.close()
            except (HRDMError, OSError):
                pass  # a dead node's socket; the node is stopped below
        for node in reversed(self.nodes):
            node.stop()
        if self.db is not None and not self.db.closed:
            self.db.close()


class Embedded(Topology):
    topology = "embedded"

    def open(self) -> None:
        path = self._path("db")
        self.data_dirs.append(path)
        self.db = HistoricalDatabase(SCENARIO, path=path, sync=SYNC)
        self._load(self.db)

    def session(self):
        return self.db


class Server(Topology):
    topology = "server"

    def open(self) -> None:
        #: The node clients talk to.
        self.front = self._committing_node("server", "primary")
        self.primary_session = self._plain(self.front.address)
        self._load(self.primary_session)


class Replicated(Server):
    topology = "replicated"

    def open(self) -> None:
        super().open()
        self.replica = self._spawn("repro.replication", [
            self._path("replica"), "--primary", self.front.address,
            "--port", "0", "--sync", SYNC], "replica")
        self.replica_session = self._plain(self.replica.address)
        self.await_replica()

    def await_replica(self) -> None:
        """Block until the replica has applied everything committed."""
        target = self.primary_session.status()["lsn"]
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.replica_session.status().get("lsn", -1) < target:
            if time.monotonic() > deadline:
                raise RuntimeError("replica never caught up")
            time.sleep(0.002)

    def session(self):
        session = connect(self.front.address, timeout=OP_TIMEOUT,
                          replicas=[self.replica.address])
        self.sessions.append(session)
        return session


class Sharded(Topology):
    topology = "sharded"

    def open(self) -> None:
        workers = [self._committing_node("worker", f"shard{i}",
                                         ["--shard-id", str(i)])
                   for i in range(SHARDS)]
        args = ["coordinator", self._path("coordinator"), "--port", "0"]
        for worker in workers:
            args += ["--shard", worker.address]
        self.front = self._spawn("repro.sharding", args, "coordinator")
        self._load(self._plain(self.front.address))


TOPOLOGIES = {cls.topology: cls
              for cls in (Embedded, Server, Replicated, Sharded)}
