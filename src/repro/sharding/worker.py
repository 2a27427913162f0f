"""A shard worker — one ordinary database server holding one slice.

A worker is deliberately boring: it is the stock
:class:`~repro.server.DatabaseServer` over its own durable
:class:`~repro.database.HistoricalDatabase`, plus two shard-specific
behaviours:

* **status decoration** — every STATUS frame carries ``shard`` (this
  worker's id), ``tuples`` (committed tuple count across its
  relations), and ``wal_bytes`` (its WAL size), which is what the
  coordinator's STATUS aggregation and the shell's ``\\shards`` table
  render;
* **in-doubt resolution polling** — a worker that recovers PREPARE
  records without decisions (it crashed, or the coordinator's decide
  never arrived) asks the coordinator's RESOLVE op for each lingering
  transaction's fate and applies the answer locally. Presumed abort
  makes the poll safe to repeat: the answer for a given transaction id
  never changes once the coordinator logged (or durably failed to log)
  the commit decision.

The coordinator also pushes decisions — at its own startup sweep and
on every STATUS probe — so the poll here is a belt-and-braces path for
topologies where the coordinator is briefly unreachable or restarted
with a different address.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple, Union

from repro.client import Client
from repro.core.errors import HRDMError
from repro.database import HistoricalDatabase
from repro.server import DatabaseServer
from repro.server.protocol import parse_address

__all__ = ["ShardWorker"]

#: Seconds between in-doubt resolution polls while any prepare lingers.
_RESOLVE_INTERVAL = 1.0


class ShardWorker(DatabaseServer):
    """One shard: a durable database served over the stock wire protocol."""

    def __init__(self, path: str, *, shard_id: int = 0,
                 host: str = "127.0.0.1", port: int = 0,
                 coordinator: Optional[Union[str, Tuple[str, int]]] = None,
                 sync: str = "batch", wal_batch_size: int = 64):
        self.shard_id = shard_id
        self.coordinator = (None if coordinator is None
                            else parse_address(coordinator))
        self._stop = threading.Event()
        self._resolver: Optional[threading.Thread] = None
        super().__init__(
            HistoricalDatabase(path=path, sync=sync,
                               wal_batch_size=wal_batch_size),
            host, port, status_extra=self._status_extra)

    def _status_extra(self) -> dict:
        manager = self.db._durability
        try:
            wal_bytes = (os.path.getsize(manager.wal.path)
                         if manager is not None else 0)
        except OSError:
            wal_bytes = 0
        return {
            "shard": self.shard_id,
            "tuples": sum(len(r) for r in self.db.relations().values()),
            "wal_bytes": wal_bytes,
        }

    # -- in-doubt resolution ------------------------------------------------

    def resolve_in_doubt(self) -> int:
        """One resolution pass: ask the coordinator about every lingering
        prepare and apply the answers. Returns how many were resolved."""
        if self.coordinator is None:
            return 0
        pending = self.db.in_doubt_transactions()
        if not pending:
            return 0
        resolved = 0
        try:
            with Client(*self.coordinator, timeout=5.0) as client:
                for txn_id in pending:
                    answer = client.request({"op": "resolve",
                                             "txn_id": txn_id})
                    self.db.resolve_prepared(
                        txn_id, answer.get("outcome") == "commit")
                    resolved += 1
        except (HRDMError, OSError):
            pass  # coordinator unreachable (or raced us); try again later
        return resolved

    def _resolve_loop(self) -> None:
        while not self._stop.wait(_RESOLVE_INTERVAL):
            try:
                if not self.db.in_doubt_transactions():
                    continue
                self.resolve_in_doubt()
            except Exception:
                continue  # the poll must outlive any transient failure

    # -- lifecycle ----------------------------------------------------------

    def _before_serving(self) -> None:
        if self.coordinator is not None and self._resolver is None:
            self._resolver = threading.Thread(
                target=self._resolve_loop,
                name=f"hrdm-shard{self.shard_id}-resolver", daemon=True)
            self._resolver.start()

    def stop(self) -> None:
        self._stop.set()
        if self._resolver is not None:
            self._resolver.join()
            self._resolver = None
        super().stop()
        self.db.close()

    def __repr__(self) -> str:
        host, port = self.address
        return f"ShardWorker(shard {self.shard_id} on {host}:{port})"
