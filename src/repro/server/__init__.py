"""The database service — a threaded TCP server for one catalog.

This package turns an embedded
:class:`~repro.database.database.HistoricalDatabase` into a *service*:
a :class:`DatabaseServer` accepts TCP connections, speaks the
length-prefixed JSON wire protocol of :mod:`repro.server.protocol`,
and runs one worker thread per connection against the shared catalog.
The concurrency story is the database's own
(:mod:`repro.database.concurrency`):

* **queries** execute against a published snapshot — they never block
  on writers and never observe half a transaction, no matter how many
  connections commit concurrently;
* **transactions** are snapshot-isolated and optimistic: each
  connection's session builds its write-set against its begin-time
  snapshot with no lock held, and COMMIT validates
  first-committer-wins — a lost race returns a *retryable*
  :class:`~repro.core.errors.ConflictError` ERROR frame and the
  session rolls back cleanly (``Client.run_transaction`` retries);
* the **write-ahead-log append is the sole serialization point**;
  under ``sync="batch"`` it absorbs the concurrent commit stream into
  one fsync per batch window (group commit; last measured at
  2.0–2.15× the commit throughput of ``"always"`` — see the history
  table in ``docs/performance.md``).

Connection sessions are stateful: ``BEGIN`` opens a buffered
transaction whose ``EXECUTE`` frames accumulate server-side until
``COMMIT`` / ``ROLLBACK`` (a dropped connection rolls back).
``QUERY`` frames carry HRQL text, planned through the database's one
text-keyed plan cache, shared by every connection; ``PREPARE`` only
validates a statement and reports its parameters. Frame-by-frame
documentation lives in
``docs/server.md``; the programmatic client is :mod:`repro.client`;
``python -m repro.server PATH`` serves a durable database directory
from the command line.

>>> from repro.database import HistoricalDatabase
>>> from repro.server import DatabaseServer
>>> server = DatabaseServer(HistoricalDatabase("demo"))
>>> server.start()
>>> host, port = server.address
>>> server.stop()
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping, Optional

from repro.core.errors import (FencedError, HRDMError, PromotionError,
                               ReadOnlyError, RelationError, TransactionError)
from repro.database.database import HistoricalDatabase
from repro.server import protocol
from repro.server.frames import FrameConnection, FrameServer
from repro.storage import pager as pager_mod
from repro.storage.engine import StoredRelation

__all__ = ["DatabaseServer", "FrameConnection", "FrameServer", "protocol"]

#: Frames a read-only server (a replica) refuses: everything that
#: could change the catalog or its durable form.
_MUTATING_OPS = frozenset(
    {"execute", "begin", "commit", "rollback", "checkpoint", "flush",
     "txn_prepare", "txn_decide"})

#: Default wait budget for a read carrying a read-your-writes token.
_DEFAULT_WAIT_SECONDS = 1.0


class _Connection(FrameConnection):
    """One client session: its open transaction, if any."""

    def setup(self) -> None:
        super().setup()
        self._bound_db: HistoricalDatabase = self.owner.db
        self.txn = None

    @property
    def db(self) -> HistoricalDatabase:
        """The currently served database, resolved per access.

        A replica snapshot resync closes the old database and swaps a
        fresh one into the owner
        (:meth:`~repro.replication.replica.ReplicaServer._install_snapshot`).
        A long-lived connection must follow that swap — otherwise it
        keeps serving the closed, frozen instance while read-your-writes
        waits are satisfied against the *new* applied LSN, silently
        breaking the guarantee. Queries (prepared ones included: they
        arrive as text) simply run on the new catalog; an open
        transaction built against the replaced history is rolled back
        and the request refused.
        """
        current = self.owner.db
        if current is not self._bound_db:
            self._bound_db = current
            stale, self.txn = self.txn, None
            if stale is not None and stale.state == "active":
                try:
                    stale.rollback()
                except HRDMError:
                    pass  # its database is already closed
                raise TransactionError(
                    "the served database was replaced underneath this "
                    "connection (snapshot resync); the open transaction "
                    "was rolled back — BEGIN again")
        return current

    def finish(self) -> None:
        if self.txn is not None and self.txn.state == "active":
            self.txn.rollback()  # a dropped connection aborts its session

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, request: Mapping[str, Any]) -> Optional[dict]:
        if request.get("op") in _MUTATING_OPS:
            owner = self.owner
            if owner.fenced:
                raise FencedError(
                    "this ex-primary has been fenced (a replica was "
                    "promoted past its epoch): rediscover the current "
                    "primary and retry there")
            if owner.read_only:
                raise ReadOnlyError(
                    f"this server is a read-only "
                    f"{owner.role}: send writes to the primary")
        # Resolve the served database once per request: frames that
        # never touch it directly (ROLLBACK) must still notice a
        # snapshot-resync swap before their handler runs.
        _ = self.db
        return super().dispatch(request)

    def _commit_token(self) -> Optional[int]:
        """The LSN to hand back with a write acknowledgement.

        The durable log's current LSN is at least the acknowledged
        commit's — a conservative read-your-writes token (waiting on it
        covers this commit and possibly a few concurrent later ones).
        Ephemeral databases have no log and hand out no tokens.
        """
        durability = getattr(self.db, "_durability", None)
        if durability is None:
            return None
        return durability.position[1]

    def _with_token(self, frame: dict) -> dict:
        token = self._commit_token()
        if token is not None:
            frame["lsn"] = token
            frame["epoch"] = self.db._durability.epoch
        return frame

    # -- session / introspection frames ------------------------------------

    def op_hello(self, request: Mapping) -> dict:
        owner: DatabaseServer = self.owner
        frame = {
            "ok": True,
            "server": "hrdm",
            "protocol": protocol.PROTOCOL_VERSION,
            "database": self.db.name,
            "durable": self.db.durable,
            "now": self.db.now,
            "role": owner.role,
            "read_only": owner.read_only,
        }
        durability = getattr(self.db, "_durability", None)
        if durability is not None:
            frame["epoch"] = durability.epoch
        return frame

    def op_status(self, request: Mapping) -> dict:
        """Replication observability: role, position, per-replica lag."""
        owner: DatabaseServer = self.owner
        frame: dict[str, Any] = {
            "ok": True,
            "role": owner.role,
            "database": self.db.name,
            "read_only": owner.read_only,
            "fenced": owner.fenced,
        }
        durability = getattr(self.db, "_durability", None)
        if durability is not None:
            generation, lsn = durability.position
            frame["generation"] = generation
            frame["lsn"] = lsn
            frame["epoch"] = durability.epoch
        frame["replicas"] = owner.replica_status()
        frame["in_doubt"] = self.db.in_doubt_transactions()
        extra = owner.status_extra
        if extra is not None:
            frame.update(extra())
        return frame

    def op_subscribe(self, request: Mapping) -> None:
        """Hand the connection to the log shipper (never returns a frame)."""
        from repro.replication import primary as primary_mod

        primary_mod.serve_subscription(self, request)
        return None

    @staticmethod
    def _storage_kind(relation) -> str:
        # Derived from the snapshot value itself (a StoredRelation or a
        # HistoricalRelation), so introspection stays consistent with
        # the committed cut even while another connection drops or
        # recreates the catalog entry.
        return "disk" if isinstance(relation, StoredRelation) else "memory"

    def _maybe_wait(self, request: Mapping) -> None:
        """Honor a read-your-writes token on any read frame.

        A replica waits until its applier has caught up to the client's
        commit token, raising the retryable ReplicaLagError on timeout
        (the client falls back to the primary). A primary trivially
        satisfies any token it handed out, so waiter-less servers skip
        ahead.
        """
        wait_lsn = request.get("wait_lsn")
        if wait_lsn is None:
            return
        waiter = self.owner.lsn_waiter
        if waiter is None:
            return
        timeout = request.get("wait_timeout")
        waiter(int(wait_lsn),
               _DEFAULT_WAIT_SECONDS if timeout is None else float(timeout))

    def op_relations(self, request: Mapping) -> dict:
        self._maybe_wait(request)
        env = self.db.relations()  # one committed cut
        return {"ok": True, "relations": [
            {
                "name": name,
                "n_tuples": len(relation),
                "lifespan": protocol.lifespan_to_wire(relation.lifespan()),
                "storage": self._storage_kind(relation),
            }
            for name, relation in env.items()
        ]}

    def op_relation(self, request: Mapping) -> dict:
        self._maybe_wait(request)
        name = request.get("name")
        env = self.db.relations()
        if name not in env:
            raise RelationError(f"no relation named {name!r}")
        payload = protocol.relation_to_wire(env[name])
        payload.update(ok=True, storage=self._storage_kind(env[name]))
        return payload

    # -- querying ----------------------------------------------------------

    def op_query(self, request: Mapping) -> dict:
        self._maybe_wait(request)
        return protocol.result_to_wire(self.db.query(
            protocol.query_text(request), request.get("params") or None))

    def op_prepare(self, request: Mapping) -> dict:
        """Validate a statement and report its parameters; nothing is
        kept — its QUERY frames carry the text, which the database's
        plan cache already keys on."""
        statement = self.db.prepare(protocol.query_text(request))
        return {"ok": True, "params": list(statement.param_names)}

    # -- transactions -------------------------------------------------------

    def op_begin(self, request: Mapping) -> dict:
        if self.txn is not None and self.txn.state == "active":
            raise TransactionError(
                "a transaction is already active on this connection")
        self.txn = self.db.transaction()
        return {"ok": True}

    def op_commit(self, request: Mapping) -> dict:
        # Detach the session first: a failed commit (conflict,
        # constraint violation) has already rolled the transaction
        # back, and the connection must be free to BEGIN a retry.
        txn = self._active_txn()
        self.txn = None
        txn.commit()
        return self._with_token({"ok": True})

    def op_rollback(self, request: Mapping) -> dict:
        self._active_txn().rollback()
        self.txn = None
        return {"ok": True}

    def _active_txn(self):
        if self.txn is None or self.txn.state != "active":
            raise TransactionError(
                "no transaction is active on this connection (send BEGIN)")
        return self.txn

    # -- two-phase commit ---------------------------------------------------

    def op_txn_prepare(self, request: Mapping) -> dict:
        """Phase one: vote on the connection's open transaction.

        Success means the PREPARE record is force-synced and the
        write-set pinned (see :meth:`Transaction.prepare`); failure —
        conflict, constraint violation — is a no vote and the session
        has rolled back. Either way the connection is free again: the
        decision arrives by TXN_DECIDE (any connection) or, after a
        crash, from presumed-abort recovery.
        """
        txn = self._active_txn()
        self.txn = None
        txn.prepare(str(request["txn_id"]))
        return self._with_token({"ok": True})

    def op_txn_decide(self, request: Mapping) -> dict:
        """Phase two: apply the coordinator's decision.

        Idempotent by design — a coordinator retries decisions until
        acknowledged, so deciding a transaction this participant no
        longer holds (already decided, or never prepared: presumed
        abort) succeeds with ``known: false`` instead of erroring.
        """
        txn_id = str(request["txn_id"])
        commit = bool(request.get("commit"))
        try:
            self.db.resolve_prepared(txn_id, commit)
        except TransactionError:
            return self._with_token({"ok": True, "known": False})
        return self._with_token({"ok": True, "known": True})

    # -- mutations ----------------------------------------------------------

    def op_execute(self, request: Mapping) -> dict:
        """Decode and run one row of :data:`protocol.MUTATION_OPS`."""
        action = request.get("action")
        op = protocol.MUTATION_BY_ACTION.get(action)
        if op is None:
            raise protocol.ProtocolError(f"unknown execute action {action!r}")
        # Where mutations go: the active transaction, else auto-commit.
        target = self.db
        if (op.transactional and self.txn is not None
                and self.txn.state == "active"):
            target = self.txn
        result = op.apply(target, request)
        frame: dict[str, Any] = {"ok": True}
        if op.answers_tuple:
            frame.update(tuple=protocol.tuple_to_wire(result),
                         scheme=pager_mod.scheme_to_dict(result.scheme))
        return self._with_token(frame)

    # -- failover -----------------------------------------------------------

    def op_promote(self, request: Mapping) -> dict:
        """Promote this replica to primary (wire form of ``promote()``).

        Only a server wired to a promotable owner — a
        :class:`~repro.replication.replica.ReplicaServer`, which
        registers its :meth:`~repro.replication.replica.ReplicaServer.promote`
        as the *promoter* callback — accepts this frame; a primary (or
        an already-promoted replica) refuses with
        :class:`~repro.core.errors.PromotionError`.
        """
        promoter = self.owner.promoter
        if promoter is None:
            raise PromotionError(
                f"this {self.owner.role} is not a promotable "
                f"replica: PROMOTE must reach a running ReplicaServer")
        return {"ok": True, "epoch": promoter()}

    # -- durability ---------------------------------------------------------

    def op_checkpoint(self, request: Mapping) -> dict:
        return {"ok": True, "generation": self.db.checkpoint()}

    def op_flush(self, request: Mapping) -> dict:
        self.db.flush()
        return {"ok": True}


class DatabaseServer(FrameServer):
    """Serve one :class:`HistoricalDatabase` over TCP.

    ``port=0`` (the default) binds an ephemeral port; the listener,
    :attr:`address`, :meth:`start` / :meth:`serve_forever` and the
    graceful :meth:`stop` are :class:`~repro.server.frames.FrameServer`'s.

    The replication roles reuse this one server class:

    * a **primary** serves the full protocol plus SUBSCRIBE (each
      subscribed replica gets a dedicated shipper loop on its
      connection worker, see :mod:`repro.replication.primary`) and
      reports per-replica lag through STATUS;
    * a **replica** (:class:`repro.replication.replica.ReplicaServer`
      wraps one of these with ``read_only=True``) refuses every
      mutating frame with :class:`~repro.core.errors.ReadOnlyError`,
      satisfies read-your-writes tokens through *lsn_waiter*, and —
      when its owner registers a *promoter* — accepts the PROMOTE
      frame that turns it into the primary of a new epoch;
    * a **fenced ex-primary** (:meth:`fence`) refuses mutating frames
      with the *retryable* :class:`~repro.core.errors.FencedError`
      until it is torn down and rejoined as a replica.

    *status_extra* is a callable merged into every STATUS frame (the
    replica reports its applied position and primary link through it);
    *lsn_waiter* is ``callable(lsn, timeout_seconds)`` blocking until
    the local state covers *lsn* (raising
    :class:`~repro.core.errors.ReplicaLagError` on timeout).
    """

    def __init__(self, db: HistoricalDatabase,
                 host: str = "127.0.0.1", port: int = 0, *,
                 read_only: bool = False, role: Optional[str] = None,
                 status_extra: Optional[Callable[[], dict]] = None,
                 lsn_waiter: Optional[Callable[[int, float], None]] = None):
        self.db = db
        self.read_only = read_only
        self.role = role or ("replica" if read_only else "primary")
        self.status_extra = status_extra
        self.lsn_waiter = lsn_waiter
        #: Callable returning the new epoch — set by a ReplicaServer so
        #: the wire PROMOTE op reaches its ``promote()``; None elsewhere.
        self.promoter: Optional[Callable[[], int]] = None
        self.fenced = False
        self._replicas: dict[str, dict] = {}
        self._replicas_lock = threading.Lock()
        super().__init__((host, port), _Connection)

    # -- replica registry (primary-side observability) ---------------------

    def track_replica(self, replica_id: str, **fields) -> None:
        """Create or update one subscribed replica's registry entry.

        Called by the shipper loop at handshake (address, mode),
        per-shipment (``shipped_lsn``, ``pending_bytes``) and per-ack
        (``applied_lsn``, ``applied_generation``, ``acked_at``). The
        entry survives a disconnect with ``connected=False`` so lag
        stays visible while a replica is away.
        """
        with self._replicas_lock:
            entry = self._replicas.setdefault(replica_id, {
                "id": replica_id, "address": None, "mode": None,
                "shipped_lsn": 0, "applied_lsn": 0, "applied_generation": 0,
                "pending_bytes": 0, "acked_at": None, "connected": False,
            })
            entry.update(fields)

    def replica_status(self) -> list[dict]:
        """Per-replica lag, computed against the current position."""
        durability = getattr(self.db, "_durability", None)
        lsn = durability.position[1] if durability is not None else 0
        now = time.monotonic()
        rows = []
        with self._replicas_lock:
            for entry in self._replicas.values():
                row = dict(entry)
                acked_at = row.pop("acked_at")
                row["records_behind"] = max(0, lsn - row["applied_lsn"])
                row["bytes_behind"] = row.pop("pending_bytes")
                row["seconds_since_ack"] = (
                    None if acked_at is None else round(now - acked_at, 3))
                rows.append(row)
        return sorted(rows, key=lambda row: row["id"])

    def fence(self) -> None:
        """Refuse all further writes: this primary's epoch is over.

        Called when evidence of a newer epoch reaches the server — a
        subscriber whose handshake carries a higher epoch (see
        :func:`repro.replication.primary.serve_subscription`) — or
        explicitly by a failover controller *before* promoting a
        replica. Once fenced, every mutating frame gets a *retryable*
        :class:`~repro.core.errors.FencedError`, steering routed
        clients to rediscover the real primary instead of splitting the
        brain. Reads keep working (the catalog is still a consistent,
        if frozen, cut). Fencing is one-way: a fenced ex-primary
        rejoins the cluster as a replica, never by unfencing.
        """
        self.fenced = True

    def __repr__(self) -> str:
        host, port = self.address
        return f"DatabaseServer({self.db.name!r} on {host}:{port})"
