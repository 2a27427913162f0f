"""Run epochs of one workload, check every answer, collect the samples.

An epoch boots a fresh topology, loads the data, runs the workload's
fixed op sequence (warm-up untimed, then the timed main phase, then the
complementary class) and finishes with the durability tail: every data
directory is copied *without* ``close()`` (a crash-copy), reopened
(timed), compared against the reference catalog, checkpointed and
measured for space. Each read's digest is compared with an in-memory,
``optimize=False`` reference that replayed the same ops; any mismatch,
refused op, timeout or lost acknowledged commit counts as a failed op.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.core.errors import HRDMError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.database import HistoricalDatabase
from repro.database.evolution import drop_attribute, readd_attribute
from repro.workloads import catalog_digest, get_scenario, result_digest
from repro.workloads.personas import canonical

from benchmarks.account import trace as trace_mod
from benchmarks.account.config import EPOCH_CEILING, SCENARIO, Workload
from benchmarks.account.streams import (EVOLVE_DROP_AT, EVOLVE_READD, Admin,
                                        KNOBS, Commit, EpochStream, Mutation,
                                        Read)
from benchmarks.account.topology import TOPOLOGIES, Topology

RELATION = "EMP"
REOPENS = 3


# -- applying ops to any session ---------------------------------------------

def apply_mutation(target, m: Mutation) -> None:
    key = (m.key,)
    if m.kind == "insert":
        target.insert(RELATION, Lifespan.interval(*m.lifespan), m.values)
    elif m.kind == "update":
        target.update(RELATION, key, m.at, m.values)
    elif m.kind == "terminate":
        target.terminate(RELATION, key, m.at)
    else:
        target.reincarnate(RELATION, key, Lifespan.interval(*m.lifespan),
                           m.values)


def apply_commit(session, op: Commit) -> None:
    if op.txn:
        with session.transaction() as txn:
            for m in op.mutations:
                apply_mutation(txn, m)
    else:
        apply_mutation(session, op.mutations[0])


def apply_admin(session, op: Admin) -> None:
    if op.action == "checkpoint":
        session.checkpoint()
        return
    scheme = session.scheme(RELATION)
    if op.action == "drop":
        evolved = drop_attribute(scheme, "DEPT", EVOLVE_DROP_AT)
    else:
        since, until = EVOLVE_READD
        evolved = readd_attribute(scheme, "DEPT", since, until=until)
    session.evolve_scheme(RELATION, evolved)


# -- the reference -------------------------------------------------------------

@dataclass
class Expected:
    """What the reference says one epoch must produce."""

    read_digests: Dict[int, str]  # op index (warmup+main+complement) → digest
    catalog: str
    user_bytes_live: int


def reference(streams: List[EpochStream]) -> Expected:
    """Replay the epoch on an in-memory, un-optimized database.

    *streams* holds one stream per client; only client 0's reads are
    digested (concurrent clients write disjoint keys, so the final
    catalog is order-independent and is what phase B checks).
    """
    db = HistoricalDatabase("reference")
    get_scenario(SCENARIO).bootstrap(db, KNOBS, storage="memory")
    digests: Dict[int, str] = {}
    for client, stream in enumerate(streams):
        with db.transaction() as txn:
            for m in stream.setup:
                apply_mutation(txn, m)
        memo: Dict[tuple, str] = {}
        ops = stream.warmup + stream.main + stream.complement
        for i, op in enumerate(ops):
            if isinstance(op, Read):
                if client:
                    continue
                key = (op.hrql, tuple(sorted(op.params.items())))
                if key not in memo:
                    memo[key] = result_digest(
                        db.query(op.hrql, op.params, optimize=False))
                digests[i] = memo[key]
                continue
            memo.clear()
            if isinstance(op, Commit):
                apply_commit(db, op)
            elif op.action != "checkpoint":
                apply_admin(db, op)
    relation = db.relation(RELATION)
    return Expected(digests, catalog_digest(db, [RELATION]),
                    live_user_bytes(relation))


def live_user_bytes(relation) -> int:
    """Canonical bytes of the live catalog — the denominator of space."""
    return sum(len(canonical((t.key_value(), t.lifespan,
                              {a: t.value(a) for a in relation.scheme.attributes})
                             ).encode("utf-8"))
               for t in relation)


# -- measuring helpers ---------------------------------------------------------

def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


class WalMeter:
    """Bytes appended to the data directories' ``wal.log`` files.

    A checkpoint truncates the log, so the driver calls :meth:`settle`
    right before one and :meth:`rebase` right after; with one closed-loop
    client nothing else can append in between and the total is exact.
    """

    def __init__(self, data_dirs: List[str]):
        self._paths = [os.path.join(d, "wal.log") for d in data_dirs]
        self.total = 0
        self.rebase()

    def _size(self) -> int:
        return sum(os.path.getsize(p) for p in self._paths)

    def rebase(self) -> None:
        self._base = self._size()

    def settle(self) -> int:
        size = self._size()
        self.total += size - self._base
        self._base = size
        return self.total


@dataclass
class Epoch:
    """One epoch's measurements."""

    setup_s: float = 0.0
    #: Latencies (s) of the timed main-phase ops, in arrival order.
    main_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: op class → latencies (s): the read and commit classes, plus
    #: ``checkpoint`` and ``evolve`` for the admin ops.
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    reopen_s: float = 0.0
    replayed_commits: int = 0
    wal_bytes: int = 0
    user_bytes_written: int = 0
    commits: int = 0  # timed commits, main + complement
    stored_bytes: int = 0
    user_bytes_live: int = 0
    heap_bytes: int = 0
    tuples: int = 0
    copy_checkpoint_s: float = 0.0
    children_maxrss_kb: int = 0
    trace_files: List[str] = field(default_factory=list)
    #: The in-process tracer's counts when the last op finished — before
    #: the durability tail's own scans and decodes.
    counts: Counter = field(default_factory=Counter)

    @property
    def main_ops(self) -> int:
        return len(self.main_latencies)

    @property
    def main_s(self) -> float:
        return sum(self.main_latencies)

    @property
    def commit_samples(self) -> List[float]:
        """All commit latencies, 1PC and cross-shard, in arrival order
        within each class."""
        return self.samples["commit"] + self.samples.get("xcommit", [])

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def run_epoch(workload: Workload, stream: EpochStream, expected: Expected,
              workdir: str,
              tracer: Optional[trace_mod.Tracer] = None,
              probes=None) -> Epoch:
    """Boot, load, warm up, run, verify, tear down — one epoch.

    *probes* (traced epochs of remote topologies) gets
    ``on_ready(topology, session)`` once after warm-up and
    ``on_commit(topology, session)`` after each timed commit.
    """
    epoch = Epoch()
    started = time.perf_counter()
    topo: Topology = TOPOLOGIES[workload.topology](
        workdir, trace=tracer is not None)
    try:
        topo.open()
        session = topo.session()
        with session.transaction() as txn:
            for m in stream.setup:
                apply_mutation(txn, m)
        if workload.topology == "replicated":
            topo.await_replica()
        deadline = started + EPOCH_CEILING
        index = _run_ops(epoch, session, stream.warmup, 0, expected,
                         deadline, tracer, timed=False)
        epoch.setup_s = time.perf_counter() - started
        if probes is not None:
            probes.on_ready(topo, session)

        meter = WalMeter(topo.data_dirs)
        index = _run_ops(epoch, session, stream.main, index, expected,
                         deadline, tracer, timed=True, meter=meter,
                         on_commit=probes and
                         (lambda: probes.on_commit(topo, session)))
        _run_ops(epoch, session, stream.complement, index, expected,
                 deadline, tracer, timed=False, sampled=True)
        epoch.wal_bytes = meter.settle()
        if tracer is not None:
            epoch.counts = Counter(tracer.counts)

        if catalog_digest(session, [RELATION]) != expected.catalog:
            epoch.fail("live catalog differs from the reference")
        _durability_tail(epoch, topo, stream, expected)
    finally:
        topo.close()
        epoch.children_maxrss_kb = topo.children_maxrss_kb()
        epoch.trace_files = topo.trace_files()
    return epoch


def _run_ops(epoch: Epoch, session, ops, start: int, expected: Expected,
             deadline: float, tracer, *, timed: bool, sampled: bool = False,
             meter: Optional[WalMeter] = None, on_commit=None) -> int:
    """Run *ops* closed-loop, numbering them from *start*; returns the
    next op index.

    ``timed`` ops feed ``ops_per_s`` and the latency samples;
    ``sampled`` ops (the complement) feed only the latency samples.
    """
    clock = time.perf_counter
    for index, op in enumerate(ops, start):
        epoch.attempted += 1
        if clock() > deadline:
            epoch.fail("epoch wall-clock ceiling reached")
            continue
        if tracer is not None:
            tracer.op_id = index
        is_read = isinstance(op, Read)
        if isinstance(op, Admin) and op.action == "checkpoint":
            meter.settle()
        try:
            begin = clock()
            if is_read:
                result = session.query(op.hrql, op.params)
                result.value
            elif isinstance(op, Commit):
                apply_commit(session, op)
            else:
                apply_admin(session, op)
            elapsed = clock() - begin
        except (HRDMError, OSError) as exc:
            epoch.fail(f"op {index} {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.op_id = None
        if is_read:
            cls = op.cls
            if result_digest(result) != expected.read_digests[index]:
                epoch.fail(f"op {index} ({cls}) digest mismatch")
        elif isinstance(op, Commit):
            cls = op.cls
            if timed or sampled:
                epoch.commits += 1
                epoch.user_bytes_written += sum(
                    m.user_bytes() for m in op.mutations)
            if on_commit is not None:
                on_commit()
        else:
            cls = "checkpoint" if op.action == "checkpoint" else "evolve"
            if op.action == "checkpoint":
                meter.rebase()
        if timed or sampled:
            epoch.samples[cls].append(elapsed)
        if timed and not isinstance(op, Admin):
            epoch.main_latencies.append(elapsed)
    return start + len(ops)


def _durability_tail(epoch: Epoch, topo: Topology, stream: EpochStream,
                     expected: Expected) -> None:
    """Crash-copy → timed reopen → every acked commit readable → space."""
    ops = stream.warmup + stream.main + stream.complement
    since_checkpoint = 0
    for op in ops:
        if isinstance(op, Commit):
            since_checkpoint += 1
        elif isinstance(op, Admin):
            since_checkpoint = 0 if op.action == "checkpoint" \
                else since_checkpoint + 1
    epoch.replayed_commits = max(1, since_checkpoint)
    copies: List[HistoricalDatabase] = []
    try:
        for data_dir in topo.data_dirs:
            copy = data_dir + ".crash"
            shutil.copytree(data_dir, copy)
            # Recovery rewrites nothing, so every reopen replays the same
            # log; the fastest of a few is the one the host left alone.
            best = float("inf")
            for attempt in range(REOPENS):
                begin = time.perf_counter()
                db = HistoricalDatabase(path=copy)
                best = min(best, time.perf_counter() - begin)
                if attempt < REOPENS - 1:
                    db.close()
            copies.append(db)
            epoch.reopen_s += best
        relations = [db.relation(RELATION) for db in copies]
        merged = HistoricalRelation(
            relations[0].scheme, [t for r in relations for t in r])
        # ``catalog_digest`` reads through ``session.relation(name)``.
        holder = SimpleNamespace(relation=lambda name: merged)
        if catalog_digest(holder, [RELATION]) != expected.catalog:
            epoch.fail("an acknowledged commit is missing after reopening "
                       "the crash-copied directory")
        begin = time.perf_counter()
        for db in copies:
            db.checkpoint()
        epoch.copy_checkpoint_s = time.perf_counter() - begin
        epoch.heap_bytes = sum(r.storage_bytes() for r in
                               (db.relation(RELATION) for db in copies))
        epoch.tuples = sum(r.n_tuples for r in relations)
        epoch.user_bytes_live = expected.user_bytes_live
    finally:
        for db in copies:
            db.close()
    for data_dir in topo.data_dirs:
        epoch.stored_bytes += dir_bytes(data_dir + ".crash")
        shutil.rmtree(data_dir + ".crash")


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
