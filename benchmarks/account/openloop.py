"""Phase B of ``server_mixed``: the arrival-driven view.

Two connections with disjoint write keys each send stream M on a fixed
schedule (an open loop: the next op is due whether or not the last one
returned) at three fixed total rates. Latency is timed from each op's
*due* time, so a stall charges every op queued behind it; how late the
generator itself ran is reported next to it, because a late generator
silently turns an open loop back into a closed one. The sustained rate
is the highest of the three whose all-op p99 meets the limit with zero
failures and generator lateness p99 under one inter-arrival interval.

Correctness: the final catalog must equal the reference's (disjoint
keys make it independent of how the two clients interleaved), and each
client must read back its own last write.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

from repro.core.errors import ConflictError, HRDMError
from repro.workloads import catalog_digest

from benchmarks.account.config import (OPEN_CONNECTIONS, OPEN_LIMIT_MS,
                                       OPEN_RATES, OPEN_SECONDS, WORKLOADS)
from benchmarks.account.runner import (RELATION, apply_commit,
                                       apply_mutation, percentile, reference)
from benchmarks.account.streams import POINT, Commit, EpochStream, epoch_stream
from benchmarks.account.topology import Server


class _Client(threading.Thread):
    """One connection replaying its slice of the schedule."""

    def __init__(self, session, ops: list, interval: float, start_at: float):
        super().__init__(daemon=True)
        self.session, self.ops = session, ops
        self.interval, self.start_at = interval, start_at
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.failed = self.conflicts = self.commits = 0
        self.last_written = None

    def run(self) -> None:
        clock = time.perf_counter
        for i, op in enumerate(self.ops):
            due = self.start_at + i * self.interval
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            self.lateness.append(max(0.0, clock() - due))
            try:
                if isinstance(op, Commit):
                    self.commits += 1
                    apply_commit(self.session, op)
                    self.last_written = op.mutations[-1].key
                else:
                    self.session.query(op.hrql, op.params).value
            except ConflictError:
                self.conflicts += 1
                self.failed += 1
            except (HRDMError, OSError):
                self.failed += 1
            self.latencies.append(clock() - due)


def run_phase_b(seed: int, workdir: str) -> Dict[str, float]:
    """All three rates against one fresh server; returns the diagnostics."""
    workload = WORKLOADS["server_mixed"]
    per_client = [int(rate * OPEN_SECONDS / OPEN_CONNECTIONS)
                  for rate in OPEN_RATES]
    # One stream per client, long enough for all three rates back to back.
    scale = sum(per_client) / workload.epoch_ops
    streams = [epoch_stream(workload, seed, client, scale=scale)
               for client in range(OPEN_CONNECTIONS)]
    for stream in streams:
        assert len(stream.main) >= sum(per_client)
    out: Dict[str, float] = {}
    sustained = 0.0
    failed = conflicts = commits = 0
    topo = Server(workdir)
    try:
        topo.open()
        sessions = [topo.session() for _ in streams]
        for session, stream in zip(sessions, streams):
            with session.transaction() as txn:
                for m in stream.setup:
                    apply_mutation(txn, m)
            for op in stream.warmup:
                if isinstance(op, Commit):
                    apply_commit(session, op)
                else:
                    session.query(op.hrql, op.params).value
        offset = 0
        for n, (rate, count) in enumerate(zip(OPEN_RATES, per_client), 1):
            interval = OPEN_CONNECTIONS / rate
            start_at = time.perf_counter() + 0.05
            clients = [_Client(session, list(stream.main[offset:offset + count]),
                               interval, start_at + k * interval / OPEN_CONNECTIONS)
                       for k, (session, stream)
                       in enumerate(zip(sessions, streams))]
            offset += count
            for client in clients:
                client.start()
            for client in clients:
                client.join(OPEN_SECONDS * 10 + 30)
                if client.is_alive():
                    raise RuntimeError("open-loop client did not finish")
            latencies = [x for c in clients for x in c.latencies]
            lateness = [x for c in clients for x in c.lateness]
            phase_failed = sum(c.failed for c in clients)
            for session, client in zip(sessions, clients):
                # Read-your-writes on the client's own last-written key.
                if client.last_written is not None and not len(
                        session.query(POINT, {"name": client.last_written}
                                      ).value):
                    phase_failed += 1
            p99 = percentile(latencies, 0.99) * 1e3
            late99 = percentile(lateness, 0.99)
            out[f"client.open_p50_ms_r{n}"] = percentile(latencies, 0.5) * 1e3
            out[f"client.open_p99_ms_r{n}"] = p99
            out[f"client.open_lateness_ms_r{n}"] = late99 * 1e3
            out[f"client.open_samples_r{n}"] = len(latencies)
            if (p99 <= OPEN_LIMIT_MS and not phase_failed
                    and late99 < interval):
                sustained = float(rate)
            failed += phase_failed
            conflicts += sum(c.conflicts for c in clients)
            commits += sum(c.commits for c in clients)
        # The reference replays each client's warm-up and the main ops
        # actually sent; disjoint keys make the order irrelevant.
        sent = [EpochStream(s.setup, s.warmup, s.main[:offset], ())
                for s in streams]
        if catalog_digest(sessions[0], [RELATION]) != \
                reference(sent).catalog:
            failed += 1
    finally:
        topo.close()
    out["sustained_rate_ops_s"] = sustained
    out["database.conflict_ratio"] = conflicts / max(1, commits)
    out["open_loop_failed_ops"] = failed
    return out
