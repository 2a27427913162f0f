"""Span tracing from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited: :func:`install` replaces public entry
points of each layer with wrappers that record a span — name, start,
end, parent span and the id of the op the driver was running — into an
in-memory list, and :func:`uninstall` puts the originals back. Spans are
written out only after the run (``Tracer.write``). A layer's *self* time
is its span minus the part its child spans cover (:func:`self_times`).
End-to-end numbers never come from a traced run; the traced/untraced
throughput ratio is reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from repro import faults
from repro.client import Client
from repro.database import HistoricalDatabase, integrity
from repro.database.backends import DiskBackend, MemoryBackend
from repro.database.session import Transaction
from repro.storage import codec
from repro.storage.engine import StoredRelation
from repro.storage.wal import WriteAheadLog

#: (owner, attribute, span name) — the layer boundaries of one commit.
_SPAN_POINTS = [
    *((HistoricalDatabase, m, "database.commit")
      for m in ("insert", "update", "terminate", "reincarnate")),
    (Transaction, "commit", "database.commit"),
    (HistoricalDatabase, "evolve_scheme", "database.evolve"),
    (HistoricalDatabase, "checkpoint", "database.checkpoint"),
    *((cls, "check", "database.constraint_sweep")
      for cls in vars(integrity).values()
      if isinstance(cls, type) and issubclass(cls, integrity.Constraint)
      and "check" in vars(cls) and cls is not integrity.Constraint),
    *((cls, m, "database.apply")
      for cls in (DiskBackend, MemoryBackend) for m in ("apply", "install")),
    (WriteAheadLog, "append", "storage.wal_append"),
    (WriteAheadLog, "sync_to", "storage.wal_fsync"),
    (Client, "request", "client.request"),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        #: [name, start, end, parent record or None, op id or None] — the
        #: parent is held by reference so concurrent server threads
        #: never race on an index; :meth:`rows` numbers them.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        #: The op the driver is running (single-client workloads).
        self.op_id: Optional[int] = None
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, fn, name: str):
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id]
            spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def rows(self) -> List[list]:
        """The spans as ``[name, start, end, parent index, op id]``."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [[name, start, end,
                 None if parent is None else index[id(parent)], op]
                for name, start, end, parent, op in self.spans]

    def write(self, path: str) -> None:
        write_rows(path, self.rows(), self.counts)


def write_rows(path: str, rows: List[list], counts: Counter) -> None:
    """One JSON object per line: spans first, then one counts row."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op) in enumerate(rows):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "op": op}) + "\n")
        fh.write(json.dumps({"counts": dict(counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries with spans, then add the counts."""
    for owner, attribute, name in _SPAN_POINTS:
        tracer.patch(owner, attribute,
                     tracer.spanned(vars(owner)[attribute], name))
    request = vars(Client)["request"]  # the span wrapper just installed

    def counted_request(self, payload):
        # ``role`` is what HELLO reported: which node served the frame.
        tracer.counts[f"{payload.get('op')}@{self.role}"] += 1
        return request(self, payload)
    tracer.patch(Client, "request", counted_request)
    real_fsync = faults.fault_fsync
    wal_fsync = tracer.spanned(real_fsync, "storage.fsync.wal")
    # Looked up as a module global at each call, so patching the module
    # attribute reaches every caller.
    tracer.patch(faults, "fault_fsync",
                 lambda fileno, target: (wal_fsync if target == "wal"
                                         else real_fsync)(fileno, target))
    install_counts(tracer)


def install_counts(tracer: Tracer) -> None:
    """Count stored tuples visited and temporal functions decoded, at the
    storage boundary, so hit ratios are measured where the work happens."""
    counts = tracer.counts
    real_decode = codec.decode_tfunc

    def counted_decode(buf, offset):
        counts["tfunc_decodes"] += 1
        return real_decode(buf, offset)
    tracer.patch(codec, "decode_tfunc", counted_decode)

    def counting_iter(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["tuples_visited"] += 1
                yield item
        return wrapper
    for method in ("scan", "scan_lazy", "window_lazy"):
        tracer.patch(StoredRelation, method,
                     counting_iter(vars(StoredRelation)[method]))
    real_get = StoredRelation.get

    def counted_get(self, *key):
        counts["tuples_visited"] += 1
        return real_get(self, *key)
    tracer.patch(StoredRelation, "get", counted_get)


def uninstall(tracer: Tracer) -> None:
    while tracer._undo:
        owner, attribute, original = tracer._undo.pop()
        setattr(owner, attribute, original)


def load(path: str) -> tuple:
    """``(rows, counts)`` back from a :meth:`Tracer.write` file."""
    spans, counts = [], Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "counts" in row:
                counts.update(row["counts"])
            else:
                spans.append([row["name"], row["start"], row["end"],
                              row["parent"], row["op"]])
    return spans, counts


def self_times(rows: List[list]) -> Dict[str, List[float]]:
    """Span name → per-span self seconds (duration minus child spans)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in rows:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(rows):
        out[name].append(end - start - child_time[i])
    return out
