"""Does every account workload's read stream fit the statement cache?

For each workload of ``benchmarks/account`` this prints the distinct
(text, binding) pairs one epoch reads (min–max over the seeds), then
replays one seed's epoch on an in-memory database and counts what the
database's :class:`~repro.database.prepared.StatementCache` did per read:
``hit`` (same commit), ``replan`` (a commit since: re-translate and
re-cost only), ``miss`` (parse + compile + normalize + plan) and
``clear`` (a miss that found the cache full and started it over). Last,
the bytes a full epoch's cache holds (``tracemalloc``) on
``embedded_read``, the largest working set. Exits 1 if any epoch reads
more distinct statements than ``MAX_STATEMENTS``.
Usage, from the repo root: ``PYTHONPATH=src python3 tools/plan_cache_probe.py
[SEED ...]`` (default seeds 1–10; the replay uses the first).
"""

import collections
import gc
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.account.config import SCENARIO, WORKLOADS  # noqa: E402
from benchmarks.account.runner import (apply_admin, apply_commit,  # noqa: E402
                                       apply_mutation)
from benchmarks.account.streams import (KNOBS, Commit, Read,  # noqa: E402
                                        epoch_stream)
from repro.database import prepared  # noqa: E402
from repro.database.database import HistoricalDatabase  # noqa: E402
from repro.workloads import get_scenario  # noqa: E402

COUNTS = collections.Counter()
_plan = prepared.StatementCache.plan


def _counted(cache, source, params, optimize, snapshot):
    entry = cache._entries.get(prepared._cache_key(source, params, optimize))
    before = len(cache)
    planned = _plan(cache, source, params, optimize, snapshot)
    if entry is None:
        COUNTS["miss"] += 1
        COUNTS["clear"] += len(cache) <= before
    else:
        COUNTS["hit" if entry.commit_id == snapshot.commit_id else "replan"] += 1
    return planned


def reads(stream) -> list:
    return [op for op in stream.warmup + stream.main + stream.complement
            if isinstance(op, Read)]


def replay(stream) -> HistoricalDatabase:
    """Run one epoch's ops, as the account's embedded topology does."""
    db = HistoricalDatabase("probe")
    get_scenario(SCENARIO).bootstrap(db, KNOBS, storage="memory")
    with db.transaction() as txn:
        for m in stream.setup:
            apply_mutation(txn, m)
    for op in stream.warmup + stream.main + stream.complement:
        if isinstance(op, Read):
            db.query(op.hrql, op.params).value
        elif isinstance(op, Commit):
            apply_commit(db, op)
        elif op.action != "checkpoint":
            apply_admin(db, op)
    return db


def held_bytes(stream) -> tuple[int, int]:
    """(entries, traced bytes) of the cache after *stream*'s reads."""
    db = replay(stream)  # warms every non-cache structure first
    db._statements = prepared.StatementCache()
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for op in reads(stream):
        db.query(op.hrql, op.params)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return len(db._statements), held


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or list(range(1, 11))
    prepared.StatementCache.plan = _counted
    print(f"MAX_STATEMENTS = {prepared.MAX_STATEMENTS}; replay seed {seeds[0]}")
    print(f"{'workload':<18}{'reads':>7}{'distinct':>12}"
          f"{'hit':>7}{'replan':>8}{'miss':>7}{'clear':>7}")
    worst = 0
    for name, workload in WORKLOADS.items():
        streams = [epoch_stream(workload, seed) for seed in seeds]
        distinct = [len({prepared._cache_key(op.hrql, op.params, True)
                         for op in reads(s)}) for s in streams]
        worst = max(worst, *distinct)
        COUNTS.clear()
        replay(streams[0])
        print(f"{name:<18}{len(reads(streams[0])):>7}"
              f"{f'{min(distinct)}–{max(distinct)}':>12}"
              + "".join(f"{COUNTS[k]:>{w}}" for k, w in
                        (("hit", 7), ("replan", 8), ("miss", 7), ("clear", 7))))
    prepared.StatementCache.plan = _plan
    entries, held = held_bytes(epoch_stream(WORKLOADS["embedded_read"], seeds[0]))
    print(f"embedded_read cache: {entries} entries, {held / 1024:.0f} KiB "
          f"traced ({held / entries:.0f} B/entry)")
    sys.exit(1 if worst > prepared.MAX_STATEMENTS else 0)
