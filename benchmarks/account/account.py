"""Turn epochs into the named metrics: end-to-end (untraced) and per-layer.

``measure`` is the untraced run — epochs until ``--seconds`` of timed
work — and yields every end-to-end metric ``BENCHMARK.json`` declares.
``trace_account`` is the separate traced run — one untraced and one
traced half-length epoch, the layer probes, and for ``server_mixed`` the
open-loop phase — and yields every declared per-layer metric. Both also
return *extras*: named numbers that apply to one workload only (p99s,
2PC, replication lag, open-loop rates); they are printed and stored but
not declared, because the driver wants every declared metric from every
workload.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from benchmarks.account import layers, openloop
from benchmarks.account import trace as trace_mod
from benchmarks.account.config import WORKLOADS, Workload
from benchmarks.account.runner import Epoch, percentile, reference, run_epoch
from benchmarks.account.streams import READ_CLASSES, epoch_stream

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
#: A run stops adding epochs here even if they were instantaneous.
MAX_EPOCHS = 40
QUIET_WINDOW = 10
QUIET_QUANTILE = 0.10
THROUGHPUT_WINDOW = 50
TRACE_SCALE = 0.5
SMOKE_SCALE = 1 / 50


@dataclass
class Outcome:
    """One invocation's result for one workload."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Declared metrics, name → value.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific, undeclared numbers, name → (value, unit).
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: op class → (median ms, percentile label, percentile ms, n).
    timings: Dict[str, tuple] = field(default_factory=dict)
    epochs: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def absorb(self, epoch: Epoch) -> None:
        self.attempted += epoch.attempted
        self.failed += epoch.failed
        self.errors.extend(epoch.errors[:5 - len(self.errors)])
        self.epochs += 1


def tail(values: List[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95),
                     ("p90", 0.90)):
        if len(values) * (1 - q) >= 10:
            return label, percentile(values, q)
    return "max", max(values)


def quiet_median(runs_of_samples: List[List[float]]) -> float:
    """The median latency while the host was quiet.

    This host's vCPUs run in two modes — alone on the core, or ≈ 1.4×
    slower (up to 1.8× for memory-heavy work) while a co-tenant occupies
    the sibling hyperthread — and flip between them on every time scale
    from milliseconds to minutes (README, noise study). A pooled median
    then measures the neighbour's duty cycle. So: take the median of
    each window of QUIET_WINDOW consecutive samples and report the
    QUIET_QUANTILE-th of those window medians — the program's median in
    the quietest tenth of the run. It reads a few percent below the
    pooled median even on a silent host (it also selects lucky
    windows); that bias is the same on both sides of any comparison.
    """
    medians = sorted(
        statistics.median(samples[i:i + QUIET_WINDOW])
        for samples in runs_of_samples
        for i in range(0, max(1, len(samples) - QUIET_WINDOW + 1),
                       QUIET_WINDOW))
    return medians[int(QUIET_QUANTILE * len(medians))]


def quiet_throughput(runs_of_latencies: List[List[float]]) -> float:
    """Closed-loop ops/s over the quietest tenth of the run: the
    throughput of each stretch of THROUGHPUT_WINDOW consecutive ops, and
    of those the one only a tenth beat (see :func:`quiet_median`; the
    decks keep every stretch's op mix the same)."""
    rates = sorted(
        len(window) / sum(window)
        for latencies in runs_of_latencies
        for window in (latencies[i:i + THROUGHPUT_WINDOW] for i in range(
            0, max(1, len(latencies) - THROUGHPUT_WINDOW + 1),
            THROUGHPUT_WINDOW)))
    return rates[int((1 - QUIET_QUANTILE) * (len(rates) - 1))]


def _pool(epochs: List[Epoch]) -> Dict[str, List[float]]:
    pooled: Dict[str, List[float]] = {}
    for epoch in epochs:
        for cls, values in epoch.samples.items():
            pooled.setdefault(cls, []).extend(values)
    return pooled


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _epochs_for(workload: Workload, seed: int, seconds: float, workroot: str,
                scale: float) -> List[Epoch]:
    stream = epoch_stream(workload, seed, scale=scale)
    expected = reference([stream])
    epochs: List[Epoch] = []
    timed = 0.0
    while True:
        epoch = run_epoch(workload, stream, expected,
                          os.path.join(workroot, f"epoch{len(epochs)}"))
        epochs.append(epoch)
        timed += epoch.main_s
        # Stop where the total lands closest to the asked-for seconds.
        if (timed + epoch.main_s / 2 >= seconds or epoch.failed
                or len(epochs) >= MAX_EPOCHS):
            return epochs


def smoke(name: str, seed: int, workroot: str) -> Outcome:
    """One epoch at 1/50 length, for correctness only: no metric is
    computed."""
    outcome = Outcome(name)
    for epoch in _epochs_for(WORKLOADS[name], seed, 0.0, workroot,
                             SMOKE_SCALE):
        outcome.absorb(epoch)
    return outcome


def measure(name: str, seed: int, seconds: float, workroot: str) -> Outcome:
    """The untraced run: every declared end-to-end metric for *name*."""
    workload = WORKLOADS[name]
    epochs = _epochs_for(workload, seed, seconds, workroot, 1.0)
    outcome = Outcome(name)
    for epoch in epochs:
        outcome.absorb(epoch)
    if outcome.failed:
        return outcome  # no numbers from an incorrect run
    pooled = _pool(epochs)
    commits = pooled.get("commit", []) + pooled.get("xcommit", [])
    m = outcome.metrics
    # Set-up keeps the median the driver's contract asks for; the other
    # timings are quiet-host estimates (see quiet_median).
    m["setup_s"] = statistics.median(e.setup_s for e in epochs)
    m["ops_per_s"] = quiet_throughput([e.main_latencies for e in epochs])
    for cls in READ_CLASSES:
        m[f"{cls}_read_p50_ms"] = _ms(quiet_median(
            [e.samples[cls] for e in epochs]))
    m["commit_p50_ms"] = _ms(quiet_median([e.commit_samples for e in epochs]))
    m["reopen_s"] = min(e.reopen_s for e in epochs)
    m["wal_bytes_per_user_byte"] = (sum(e.wal_bytes for e in epochs)
                                    / sum(e.user_bytes_written for e in epochs))
    m["stored_bytes_per_user_byte"] = (sum(e.stored_bytes for e in epochs)
                                       / sum(e.user_bytes_live for e in epochs))
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + max(e.children_maxrss_kb for e in epochs)) / 1024

    pooled["commit_all"] = commits
    for cls, values in pooled.items():
        label, value = tail(values)
        outcome.timings[cls] = (_ms(statistics.median(values)), label,
                                _ms(value), len(values))
    x = outcome.extras
    x["failed_op_ratio"] = (outcome.failed / outcome.attempted, "ratio")
    x["slice_read_p99_ms"] = (_ms(percentile(pooled["slice"], 0.99)), "ms")
    x["commit_p99_ms"] = (_ms(percentile(commits, 0.99)), "ms")
    if "checkpoint" in pooled:
        x["database.checkpoint_ms"] = (
            _ms(statistics.median(pooled["checkpoint"])), "ms")
        x["database.checkpoints"] = (len(pooled["checkpoint"]) / len(epochs),
                                     "count")
        x["database.evolve_ms"] = (_ms(statistics.median(pooled["evolve"])),
                                   "ms")
    if workload.topology == "sharded":
        x["xshard_commit_p50_ms"] = x["sharding.commit_2pc_p50_ms"] = (
            _ms(statistics.median(pooled["xcommit"])), "ms")
        x["sharding.commit_1pc_p50_ms"] = (
            _ms(statistics.median(pooled["commit"])), "ms")
        x["sharding.twopc_over_1pc_ratio"] = (
            x["sharding.commit_2pc_p50_ms"][0]
            / x["sharding.commit_1pc_p50_ms"][0], "ratio")
        x["sharding.forward_read_p50_ms"] = (m["point_read_p50_ms"], "ms")
        x["sharding.gather_read_p50_ms"] = (_ms(statistics.median(
            pooled["slice"] + pooled["scan"])), "ms")
    return outcome


# -- the traced run ------------------------------------------------------------

def _commit_account(rows: List[list], epoch: Epoch) -> Dict[str, float]:
    """The commit-path layer metrics from one traced epoch's spans."""
    commit_ids = {i for i, row in enumerate(rows)
                  if row[0] == "database.commit"}
    under_commit = [row for row in rows if row[3] in commit_ids]
    by_name: Dict[str, List[float]] = {}
    for name, start, end, _, _ in under_commit:
        by_name.setdefault(name, []).append(end - start)
    selfs = trace_mod.self_times(rows)
    commit = [rows[i][2] - rows[i][1] for i in commit_ids]

    def us(values: List[float]) -> float:
        return statistics.median(values) * 1e6 if values else 0.0

    fsyncs = sum(1 for row in rows if row[0] == "storage.fsync.wal"
                 and row[3] is not None
                 and rows[row[3]][0] == "storage.wal_fsync"
                 and rows[row[3]][3] in commit_ids)
    sweep = by_name.get("database.constraint_sweep", [])
    return {
        "database.commit_us": us(commit),
        "database.commit_self_us": us(selfs["database.commit"]),
        "database.constraint_sweep_us": us(sweep),
        "database.constraint_sweep_share": sum(sweep) / sum(commit),
        "database.apply_us": us(by_name.get("database.apply", [])),
        "storage.wal_append_us": us(selfs["storage.wal_append"]),
        "storage.wal_fsync_us": us(by_name.get("storage.wal_fsync", [])),
        "storage.fsyncs_per_commit": fsyncs / len(commit),
        "storage.wal_bytes_per_commit": epoch.wal_bytes / epoch.commits,
    }


class _RemoteProbes:
    """Hooks into a traced epoch of a remote topology."""

    def __init__(self) -> None:
        self.rtts: List[float] = []
        self.lags: List[float] = []
        self._commits = 0

    def on_ready(self, topo, session) -> None:
        """The floor under every remote op: a no-op STATUS round trip."""
        plain = topo.sessions[0]
        for _ in range(200):
            begin = time.perf_counter()
            plain.status()
            self.rtts.append(time.perf_counter() - begin)

    def on_commit(self, topo, session) -> None:
        """Replication lag: commit ack → replica LSN ≥ the commit's LSN,
        polled on every 10th commit."""
        self._commits += 1
        if topo.topology != "replicated" or self._commits % 10:
            return
        target = session.last_commit_lsn
        begin = time.perf_counter()
        while topo.replica_session.status().get("lsn", -1) < target:
            if time.perf_counter() - begin > 5.0:
                break
        self.lags.append(time.perf_counter() - begin)


def trace_account(name: str, seed: int, workroot: str) -> Outcome:
    """The traced run: every declared per-layer metric for *name*."""
    workload = WORKLOADS[name]
    stream = epoch_stream(workload, seed, scale=TRACE_SCALE)
    expected = reference([stream])
    outcome = Outcome(name)
    plain = run_epoch(workload, stream, expected,
                      os.path.join(workroot, "untraced"))
    outcome.absorb(plain)

    tracer = trace_mod.Tracer()
    probes = _RemoteProbes() if workload.topology != "embedded" else None
    trace_mod.install(tracer)
    try:
        traced = run_epoch(workload, stream, expected,
                           os.path.join(workroot, "traced"), tracer=tracer,
                           probes=probes)
    finally:
        trace_mod.uninstall(tracer)
    outcome.absorb(traced)
    if outcome.failed:
        return outcome  # no numbers from an incorrect run

    # One span table: this process first, then each committing node's.
    rows = tracer.rows()
    counts = traced.counts
    if traced.trace_files:
        counts = Counter()  # storage work happened in the nodes
        for path in traced.trace_files:
            node_rows, node_counts = trace_mod.load(path)
            base = len(rows)
            rows.extend([n, s, e, None if p is None else p + base, op]
                        for n, s, e, p, op in node_rows)
            counts.update(node_counts)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_mod.write_rows(os.path.join(RESULTS_DIR, f"trace-{name}.jsonl"),
                         rows, counts)

    m = outcome.metrics
    m.update(_commit_account(rows, traced))
    visited = counts["tuples_visited"]
    attrs = 3  # NAME, SALARY, DEPT: tfunc decodes per whole-tuple decode
    m["storage.cache_hit_ratio"] = max(
        0.0, 1.0 - counts["tfunc_decodes"] / attrs / visited) if visited else 0.0
    m["storage.wal_replay_us_per_commit"] = \
        plain.reopen_s / plain.replayed_commits * 1e6
    m["storage.heap_bytes_per_tuple"] = plain.heap_bytes / plain.tuples
    m["trace.overhead_ratio"] = ((traced.main_ops / traced.main_s)
                                 / (plain.main_ops / plain.main_s))

    probe_dir = os.path.join(workroot, "probe")
    os.makedirs(probe_dir)
    db = layers.probe_database(seed)
    m.update(layers.staged_replay(db, seed))
    m.update(layers.direct_calls(db, seed, probe_dir))
    untraced_commits = plain.samples.get("commit", []) + \
        plain.samples.get("xcommit", [])
    client_commit = statistics.median(untraced_commits) * 1e6
    m["account.commit_attributed_share"] = \
        m["database.commit_us"] / client_commit

    x = outcome.extras
    x["database.copy_checkpoint_ms"] = (plain.copy_checkpoint_s * 1e3, "ms")
    if probes is not None:
        x["server.rtt_noop_us"] = (statistics.median(probes.rtts) * 1e6, "us")
        _remote_extras(x, rows, stream, m)
    if workload.topology == "replicated":
        x["replication.lag_ms_p50"] = (
            statistics.median(probes.lags) * 1e3, "ms")
        replica = tracer.counts["query@replica"]
        x["replication.replica_read_ratio"] = (
            replica / max(1, replica + tracer.counts["query@primary"]),
            "ratio")
    if name == "server_mixed":
        phase_b = openloop.run_phase_b(seed, os.path.join(workroot, "open"))
        failures = int(phase_b.pop("open_loop_failed_ops"))
        outcome.attempted += int(sum(v for k, v in phase_b.items()
                                     if k.startswith("client.open_samples")))
        outcome.failed += failures
        for key, value in phase_b.items():
            unit = ("ops/s" if key == "sustained_rate_ops_s" else
                    "ratio" if key.endswith("ratio") else
                    "count" if "samples" in key else "ms")
            x[key] = (value, unit)
    return outcome


def _remote_extras(x: dict, rows: List[list], stream, m: dict) -> None:
    """Client-side request spans split by the op class that caused them."""
    ops = stream.warmup + stream.main + stream.complement
    by_class: Dict[str, List[float]] = {}
    for name, start, end, _, op in rows:
        if name == "client.request" and op is not None and op < len(ops):
            cls = getattr(ops[op], "cls", None)
            if cls in READ_CLASSES:
                by_class.setdefault(cls, []).append(end - start)
    for cls, values in by_class.items():
        request_us = statistics.median(values) * 1e6
        x[f"client.request_us_{cls}"] = (request_us, "us")
        # What the wire adds over running the same read in-process.
        x[f"server.wire_overhead_us_{cls}"] = (
            request_us - m[f"database.query_us_{cls}"], "us")


