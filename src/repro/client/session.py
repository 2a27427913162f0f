"""One client session: :class:`Client`, its server-side transaction
(:class:`RemoteTransaction`) and prepared statements
(:class:`RemotePrepared`).

The mutation methods — ``insert`` / ``update`` / ``terminate`` /
``reincarnate`` / ``evolve_scheme`` / ``create_relation`` /
``drop_relation`` — are not written out here: they are derived, at
import, from the one table that declares the wire's mutation
vocabulary (:data:`repro.server.protocol.MUTATION_OPS`) and installed
on :class:`Client` and :class:`RemoteTransaction` below.
"""

from __future__ import annotations

import socket
from typing import Any, Iterator, Mapping, Optional, Tuple, Union

from repro import faults as faults_mod
from repro.client.results import RemoteExplanation, RemoteResult
from repro.core.domains import ValueDomain
from repro.core.errors import (ConflictError, ConnectionLostError, HRDMError,
                               StorageError, TransactionError)
from repro.core.relation import HistoricalRelation
from repro.core.tuples import HistoricalTuple
from repro.database.prepared import StatementHandle
from repro.server import protocol
from repro.storage import pager as pager_mod

__all__ = ["Client", "RemotePrepared", "RemoteTransaction"]

#: An address in any of the shapes connect() accepts.
Address = Union[str, Tuple[str, int]]

#: Frames safe to re-send verbatim after a transparent reconnect: pure
#: reads, session handshakes, PREPARE (re-parsing is harmless), BEGIN
#: (the dropped connection's empty transaction died with it), and
#: FLUSH (syncing twice syncs once). Mutating frames are excluded —
#: their first send may have committed before the drop.
_IDEMPOTENT_OPS = frozenset({
    "hello", "status", "query", "relations", "relation", "prepare",
    "begin", "flush",
})


class _CatalogView:
    """The mapping face of a remote catalog — ``session["EMP"]``,
    ``"EMP" in session``, ``len(session)``, iteration over names —
    for any session offering ``relation()`` and ``relations_info()``."""

    def __getitem__(self, name: str) -> HistoricalRelation:
        return self.relation(name)

    def __iter__(self) -> Iterator[str]:
        return iter(summary["name"] for summary in self.relations_info())

    def __len__(self) -> int:
        return len(self.relations_info())

    def __contains__(self, name: object) -> bool:
        return any(summary["name"] == name
                   for summary in self.relations_info())


class Client(_CatalogView):
    """One session with a database server (see :func:`connect`)."""

    #: Lets generic callers (the HRQL shell) tell a remote catalog from
    #: an embedded one where the difference matters (it rarely does).
    remote = True

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = None,
                 domains: Optional[Mapping[str, ValueDomain]] = None):
        self._domains = dict(domains or {})
        self._host, self._port, self._timeout = host, int(port), timeout
        self._address = (host, int(port))
        self._sock: Optional[socket.socket] = None
        self._buffer = bytearray()
        self._closed = False
        self._txn_active = False
        #: Bumped on every connection loss. Session state living on the
        #: server's side of the socket (an open transaction) dies with
        #: the connection; objects holding onto it compare their birth
        #: epoch against this to notice.
        self._epoch = 0
        #: The LSN of this session's last acknowledged write — the
        #: read-your-writes token a routed read hands to a replica.
        self.last_commit_lsn = 0
        #: The highest replication fencing epoch any response carried.
        #: Distinct from ``_epoch`` (the connection generation above):
        #: this one identifies *which primacy* the session has seen,
        #: and rises when a failover promotes a replica
        #: (:meth:`RoutedClient.rediscover` picks the writable server
        #: with the highest one).
        self.cluster_epoch = 0
        #: The server's database name.
        self.name: str = ""
        #: True when the served database is durable (``\\checkpoint`` works).
        self.durable: bool = False
        #: "primary" or "replica" (read-only), from the HELLO frame.
        self.role: str = "primary"
        self._dial()

    # -- plumbing -----------------------------------------------------------

    def _dial(self) -> None:
        """Connect and shake hands; the socket is live on return."""
        faults_mod.fault_connect("client")
        sock = faults_mod.wrap_socket(
            socket.create_connection((self._host, self._port),
                                     timeout=self._timeout), "client")
        self._sock = sock
        self._buffer.clear()
        try:
            protocol.send_frame(sock, {"op": "hello",
                                       "client": "repro-client"})
            hello = protocol.recv_frame(sock, self._buffer)
            if hello is None:
                raise protocol.ProtocolError(
                    "the server closed the connection during the handshake")
        except (OSError, protocol.ProtocolError) as exc:
            self._drop()
            raise ConnectionLostError(
                f"handshake with {self._host}:{self._port} failed: {exc}"
            ) from exc
        if not hello.get("ok"):
            raise protocol.error_from_wire(hello)
        self.name = hello.get("database", "")
        self.durable = bool(hello.get("durable"))
        self.role = hello.get("role", "primary")
        self.cluster_epoch = max(self.cluster_epoch,
                                 int(hello.get("epoch", 0)))

    def _drop(self) -> None:
        """Forget a dead socket (and the server-side session with it)."""
        sock, self._sock = self._sock, None
        self._buffer.clear()
        self._epoch += 1
        self._txn_active = False
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - nothing left to release
                pass

    def _reconnect(self) -> None:
        try:
            self._dial()
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot reach the server at {self._host}:{self._port}: "
                f"{exc}") from exc

    def request(self, payload: Mapping[str, Any]) -> dict:
        """One round trip: send a frame, receive and check the response.

        Raises the server-reported :class:`HRDMError` subclass on an
        ERROR frame. A dropped connection is transient, not fatal: the
        client reconnects, and idempotent frames (reads, PREPARE,
        BEGIN, FLUSH) are retried once transparently. A mutating frame
        caught mid-drop instead surfaces the retryable
        :class:`~repro.core.errors.ConnectionLostError` — its fate is
        unknown (the write may have committed just before the drop),
        so only the caller can decide whether re-running is safe.
        """
        if self._closed:
            raise StorageError("the client connection has been closed")
        op = payload.get("op")
        for attempt in (0, 1):
            if self._sock is None:
                self._reconnect()
            try:
                protocol.send_frame(self._sock, payload)
                response = protocol.recv_frame(self._sock, self._buffer)
                if response is None:
                    raise protocol.ProtocolError(
                        "the server closed the connection")
            except (OSError, protocol.ProtocolError) as exc:
                self._drop()
                if attempt == 0 and op in _IDEMPOTENT_OPS:
                    continue
                raise ConnectionLostError(
                    f"connection to {self._host}:{self._port} was lost "
                    f"mid-{op}: {exc}") from exc
            if not response.get("ok"):
                raise protocol.error_from_wire(response)
            epoch = response.get("epoch")
            if epoch is not None:
                self.cluster_epoch = max(self.cluster_epoch, int(epoch))
            lsn = response.get("lsn")
            if lsn is not None and op in ("execute", "commit"):
                self.last_commit_lsn = max(self.last_commit_lsn, int(lsn))
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the session socket (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - nothing to release
                    pass
                self._sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- querying -----------------------------------------------------------

    @staticmethod
    def _with_wait(payload: dict, wait_lsn: Optional[int],
                   wait_timeout: Optional[float]) -> dict:
        """Attach a read-your-writes token to a read frame.

        A replica holds the read until its applied LSN covers
        *wait_lsn*, raising the retryable
        :class:`~repro.core.errors.ReplicaLagError` after *wait_timeout*
        seconds; a primary satisfies any token trivially. A zero/None
        token (no writes this session) needs no waiting at all.
        """
        if wait_lsn:
            payload["wait_lsn"] = int(wait_lsn)
            if wait_timeout is not None:
                payload["wait_timeout"] = wait_timeout
        return payload

    def query(self, source: str,
              params: Optional[Mapping[str, Any]] = None, *,
              wait_lsn: Optional[int] = None,
              wait_timeout: Optional[float] = None) -> RemoteResult:
        """Run an HRQL statement on the server; typed result.

        Mirrors :meth:`HistoricalDatabase.query`: *source* is HRQL
        text (``EXPLAIN [ANALYZE]`` included), *params* binds ``:name``
        parameters server-side through the same machinery. *wait_lsn*
        (usually another client's :attr:`last_commit_lsn`) makes a
        replica hold the read until it has applied that far — see
        :meth:`_with_wait`.
        """
        payload: dict[str, Any] = {"op": "query", "q": source}
        if params:
            payload["params"] = dict(params)
        self._with_wait(payload, wait_lsn, wait_timeout)
        return self._decode_result(self.request(payload))

    def prepare(self, source: str) -> "RemotePrepared":
        """Validate *source* server-side and hand back a handle on its
        text, for repeated runs (see :class:`RemotePrepared`)."""
        response = self.request({"op": "prepare", "q": source})
        return RemotePrepared(self, source, response["params"])

    def status(self) -> dict:
        """The server's STATUS frame: role, database, current
        ``(generation, lsn)`` position, and — on a primary — the
        per-replica lag table; on a replica, its primary link health."""
        return self.request({"op": "status"})

    def _decode_result(self, response: Mapping) -> RemoteResult:
        kind = response.get("kind")
        if kind == "relation":
            return RemoteResult(
                protocol.relation_from_wire(response, self._domains))
        if kind == "lifespan":
            return RemoteResult(
                protocol.lifespan_from_wire(response["lifespan"]))
        if kind == "plan":
            return RemoteResult(RemoteExplanation(response["text"]))
        raise protocol.ProtocolError(f"unknown result kind {kind!r}")

    # -- mutations (the HistoricalDatabase surface) -------------------------
    # insert / update / terminate / reincarnate / evolve_scheme /
    # create_relation / drop_relation are installed from the op table
    # at the bottom of this module.

    def _tuple_of(self, response: Mapping) -> HistoricalTuple:
        scheme = pager_mod.scheme_from_dict(response["scheme"], self._domains)
        return protocol.tuple_from_wire(response["tuple"], scheme)

    # -- transactions --------------------------------------------------------

    def transaction(self) -> "RemoteTransaction":
        """Open a server-side buffered transaction for this session.

        Mirrors :meth:`HistoricalDatabase.transaction`: mutations made
        through the returned session buffer server-side and commit
        atomically (one WAL record) when the ``with`` block exits —
        or roll back on any exception.

        The session is snapshot-isolated and optimistic: COMMIT can
        lose its first-committer-wins race against a concurrent writer
        and raise the retryable
        :class:`~repro.core.errors.ConflictError` — the server has
        already rolled the transaction back, so simply open a new one
        and re-run (:meth:`run_transaction` wraps that loop).
        """
        self.request({"op": "begin"})
        self._txn_active = True
        return RemoteTransaction(self)

    def run_transaction(self, body, *, attempts: int = 5):
        """Run *body* in a remote transaction, retrying on conflicts.

        The wire twin of :meth:`HistoricalDatabase.run_transaction`:
        *body* receives the open :class:`RemoteTransaction`; a COMMIT
        that loses its first-committer-wins race
        (:class:`~repro.core.errors.ConflictError`) is retried against
        a fresh snapshot up to *attempts* times, then the final
        conflict propagates. A connection drop *before* COMMIT is also
        retried — the server rolled the half-built transaction back
        when the session died, so re-running the body is safe. A drop
        *during* COMMIT itself is not: the outcome is ambiguous (the
        commit may have applied just before the drop), so the
        retryable :class:`~repro.core.errors.ConnectionLostError`
        propagates for the caller to resolve. Any other exception
        rolls back and propagates immediately. *body* must be safe to
        re-run.
        """
        last = max(1, attempts) - 1
        for attempt in range(max(1, attempts)):
            try:
                txn = self.transaction()
            except ConnectionLostError:
                if attempt == last:
                    raise
                continue
            try:
                result = body(txn)
            except ConnectionLostError:
                if txn.state == "active":
                    txn.rollback()  # wire no-op when the session is gone
                if attempt == last:
                    raise
                continue
            except BaseException:
                if txn.state == "active":
                    txn.rollback()
                raise
            if txn.state != "active":  # body finished the session itself
                return result
            try:
                txn.commit()
            except ConflictError:
                if attempt == last:
                    raise
                continue
            return result

    # -- failover ------------------------------------------------------------

    def promote(self) -> int:
        """Promote the connected replica to primary; the new epoch.

        The wire form of
        :meth:`repro.replication.ReplicaServer.promote` — only a
        replica server accepts it
        (:class:`~repro.core.errors.PromotionError` otherwise). After
        a successful promotion this same connection takes writes.
        """
        epoch = int(self.request({"op": "promote"})["epoch"])
        self.role = "primary"
        self.cluster_epoch = max(self.cluster_epoch, epoch)
        return epoch

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot + truncate the server's WAL; returns the generation."""
        return self.request({"op": "checkpoint"})["generation"]

    def flush(self) -> None:
        """Force the server's acknowledged commits to stable storage."""
        self.request({"op": "flush"})

    # -- catalog introspection (the shell's surface) -------------------------

    def relations_info(self, *, wait_lsn: Optional[int] = None,
                       wait_timeout: Optional[float] = None) -> list[dict]:
        """Per-relation summaries: name, tuple count, lifespan, storage."""
        summaries = self.request(self._with_wait(
            {"op": "relations"}, wait_lsn, wait_timeout))["relations"]
        for summary in summaries:
            summary["lifespan"] = protocol.lifespan_from_wire(
                summary["lifespan"])
        return summaries

    def relation(self, name: str, *, wait_lsn: Optional[int] = None,
                 wait_timeout: Optional[float] = None) -> HistoricalRelation:
        """Fetch the named relation's full current value."""
        response = self.request(self._with_wait(
            {"op": "relation", "name": name}, wait_lsn, wait_timeout))
        return protocol.relation_from_wire(response, self._domains)

    def storage(self, name: str, *, wait_lsn: Optional[int] = None,
                wait_timeout: Optional[float] = None) -> str:
        """The storage kind of the named relation ("memory" or "disk")."""
        response = self.request(self._with_wait(
            {"op": "relation", "name": name}, wait_lsn, wait_timeout))
        return response["storage"]

    def __repr__(self) -> str:
        host, port = self._address
        state = "closed" if self._closed else "open"
        return f"Client({self.name!r} at {host}:{port}, {state})"


class RemotePrepared(StatementHandle):
    """A handle on one statement's text for a :class:`Client`.

    Nothing lives server-side: each run is a plain QUERY frame, which
    the server plans through its text-keyed plan cache — so the handle
    survives reconnects and server restarts with no re-PREPARE.
    """

    def query(self, params: Optional[Mapping[str, Any]] = None, *,
              wait_lsn: Optional[int] = None,
              wait_timeout: Optional[float] = None) -> RemoteResult:
        """Bind and run the prepared statement; typed result."""
        return self._session.query(self.source, params, wait_lsn=wait_lsn,
                                   wait_timeout=wait_timeout)


class RemoteTransaction:
    """A server-side buffered transaction driven over the wire.

    The buffering (and the commit-time validation, constraint sweep,
    batching, and atomic rollback) all happen in the server's
    :class:`~repro.database.session.Transaction`; this object just
    routes the same mutation calls through the open session. A commit
    that loses its first-committer-wins race raises the retryable
    :class:`~repro.core.errors.ConflictError` with the session already
    rolled back server-side — see :meth:`Client.run_transaction`.
    """

    def __init__(self, client: Client):
        self._client = client
        self._epoch = client._epoch
        self._state = "active"

    @property
    def state(self) -> str:
        """"active", "committed", or "rolled-back"."""
        return self._state

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self._state == "active":
                self.rollback()
            return False
        if self._state == "active":
            self.commit()
        return False

    def commit(self) -> None:
        """Validate and apply every buffered change atomically on the
        server; raises :class:`~repro.core.errors.ConflictError` (state
        already rolled back) on a lost first-committer-wins race."""
        self._finish("commit")

    def rollback(self) -> None:
        """Discard every buffered change."""
        self._finish("rollback")

    def _finish(self, op: str) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction already {self._state}")
        if self._epoch != self._client._epoch:
            # The connection died under this transaction; the server
            # rolled its buffered changes back when the session ended.
            # A rollback is therefore already done; a commit was lost
            # before it was ever sent.
            self._state = "rolled-back"
            if op == "commit":
                raise ConnectionLostError(
                    "the connection dropped before COMMIT was sent; the "
                    "server rolled the transaction back — re-run it")
            return
        try:
            self._client.request({"op": op})
        except ConnectionLostError:
            # The drop itself tore the server-side session down. For a
            # rollback that *is* the requested outcome; for a commit
            # the outcome is ambiguous (the frame may have applied
            # before the drop), so surface it.
            self._state = "rolled-back"
            if op == "commit":
                raise
            return
        except HRDMError:
            self._state = "rolled-back"
            self._client._txn_active = False
            raise
        self._state = "committed" if op == "commit" else "rolled-back"
        self._client._txn_active = False

    def _ensure_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction already {self._state}")
        if self._epoch != self._client._epoch:
            self._state = "rolled-back"
            raise ConnectionLostError(
                "the connection dropped mid-transaction; the server "
                "rolled its buffered changes back — open a new "
                "transaction and re-run")

    def __repr__(self) -> str:
        return f"RemoteTransaction({self._state})"


# -- the mutation surface, derived from the op table -------------------------


def _client_stub(op: protocol.MutationOp):
    """``Client.<op>``: encode the call, one round trip, decode the answer."""
    if op.answers_tuple:
        def stub(self, *args, **kwargs):
            return self._tuple_of(self.request(op.frame(*args, **kwargs)))
    else:
        def stub(self, *args, **kwargs):
            self.request(op.frame(*args, **kwargs))
    return stub


def _transaction_stub(op: protocol.MutationOp):
    """``RemoteTransaction.<op>``: the open session buffers it server-side."""
    method = op.method

    def stub(self, *args, **kwargs):
        self._ensure_active()
        return getattr(self._client, method)(*args, **kwargs)
    return stub


for _op in protocol.MUTATION_OPS:
    _op.install(Client, _client_stub(_op), "HistoricalDatabase")
    if _op.transactional:
        _op.install(RemoteTransaction, _transaction_stub(_op), "Transaction")
