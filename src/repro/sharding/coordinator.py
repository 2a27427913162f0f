"""The shard coordinator — one wire endpoint over N shard workers.

The coordinator speaks the ordinary server protocol
(:mod:`repro.server.protocol`), so :func:`repro.client.connect` and the
HRQL shell talk to a sharded catalog exactly as they talk to a single
server — same frames, same typed results, same retryable error
semantics. Behind that endpoint it owns three things:

* the **shard catalog** (:class:`~repro.sharding.placement.ShardCatalog`)
  — durable relation → placement metadata, updated by DDL frames and
  consulted on every routed statement;
* the **router** (:mod:`repro.sharding.router`) — forward / fanout /
  gather classification for reads, shard-key hashing for mutations;
* the **decision log** (:class:`~repro.sharding.decision.DecisionLog`)
  — the presumed-abort source of truth for cross-shard two-phase
  commits.

A transaction begun on a coordinator connection opens worker-side
transactions lazily, on the first mutation routed to each shard. At
COMMIT, one enrolled shard is a plain forwarded commit (the one-phase
fast path — a single participant's WAL append *is* the atomic commit);
two or more run 2PC over the workers' WALs: TXN_PREPARE on every
participant (each force-syncs a PREPARE record before voting yes), one
fsynced entry in the decision log, then TXN_DECIDE everywhere. A
decide the coordinator cannot deliver (worker down) is not retried
inline — the decision is durable, and the in-doubt participant is
resolved on its next STATUS probe, at coordinator startup, or by the
worker's own RESOLVE poll (:class:`~repro.sharding.worker.ShardWorker`).

Shard leadership reuses the replication layer's epoch fencing: each
shard may be configured with several addresses (leader plus replicas),
and a :class:`_ShardLink` answers a
:class:`~repro.core.errors.FencedError` by re-probing the address set
and re-routing to the writable server with the highest fencing epoch —
the same election (:func:`repro.client.routed.elect_leader`) a
:class:`~repro.client.RoutedClient` fails over through.

The listener and the per-connection frame loop are the shared
:class:`~repro.server.frames.FrameServer`; this module only adds the
connection class with the coordinator's own ``op_*`` table.
"""

from __future__ import annotations

import os
import threading
import uuid
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.client import Client
from repro.client.routed import _PROBE_TIMEOUT, elect_leader
from repro.core.errors import (FencedError, HRDMError, RelationError,
                               ShardingError, TransactionError)
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.database.prepared import answer
from repro.query.compiler import compile_query, plan_statement
from repro.query.parser import parse as parse_hrql
from repro.query import ast_nodes as ast
from repro.server import protocol
from repro.server.frames import FrameConnection, FrameServer
from repro.sharding.decision import DecisionLog
from repro.sharding.placement import Placement, ShardCatalog, shard_of
from repro.sharding.router import Route, route_statement
from repro.storage import pager as pager_mod

__all__ = ["Coordinator"]

#: An address in any accepted spelling: "host:port", (host, port), or a
#: sequence of those (leader first, then its replicas) — see
#: :func:`repro.server.protocol.parse_address_list`.
AddressSpec = Any


class _ShardLink:
    """One connection's session with one shard, failover-aware.

    Lazily dialed, re-dialed after drops by the underlying
    :class:`~repro.client.Client`, and re-routed across the shard's
    address set when the current target is fenced — the coordinator's
    reuse of the replication layer's epoch machinery.
    """

    def __init__(self, shard_id: int, addresses: Sequence[Tuple[str, int]],
                 timeout: Optional[float] = None):
        self.shard_id = shard_id
        self.addresses = list(addresses)
        self._current = self.addresses[0]
        self._timeout = timeout
        self._client: Optional[Client] = None

    @property
    def client(self) -> Client:
        if self._client is None or self._client._closed:
            self._client = Client(*self._current, timeout=self._timeout)
        return self._client

    def request(self, payload: Mapping[str, Any]) -> dict:
        """One frame to the shard's current leader.

        A :class:`~repro.core.errors.FencedError` proves the write was
        refused — rediscover the leader among the configured addresses
        and re-send once. Connection loss stays the caller's problem
        (the frame's fate is unknown), exactly as for a direct client.
        """
        try:
            return self.client.request(payload)
        except FencedError:
            if not self.rediscover():
                raise
            return self.client.request(payload)

    def attempt(self, payload: Mapping[str, Any]) -> None:
        """Send a frame whose failure changes nothing: a rollback the
        worker performs anyway when the session dies, a compensation,
        or a decision that is already durable and will be re-delivered
        by the next in-doubt sweep."""
        try:
            self.request(payload)
        except (HRDMError, OSError):
            pass

    def rediscover(self) -> bool:
        """Re-elect the shard leader; the next request re-dials it."""
        best = elect_leader(self.addresses, self._timeout)
        if best is None:
            return False
        if best[2] != self._current:
            self.close()
            self._current = best[2]
        return True

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def __repr__(self) -> str:
        host, port = self._current
        return f"_ShardLink(shard {self.shard_id} at {host}:{port})"


class _CoordConnection(FrameConnection):
    """One client session against the sharded catalog.

    Holds its own per-shard links (a connection is single-threaded on
    both ends, so links need no locking) and its open distributed
    transaction (shard id → enrolled link). Queries — prepared ones
    included — arrive as text and are routed per execution."""

    def setup(self) -> None:
        super().setup()
        self._links: Dict[int, _ShardLink] = {}
        self._txn: Optional[Dict[int, _ShardLink]] = None
        self._rr = 0

    def finish(self) -> None:
        if self._txn:
            for link in self._txn.values():
                link.attempt({"op": "rollback"})
        for link in self._links.values():
            link.close()

    # -- shard plumbing -----------------------------------------------------

    def _link(self, shard: int) -> _ShardLink:
        link = self._links.get(shard)
        if link is None:
            link = _ShardLink(shard, self.owner.shards[shard],
                              timeout=self.owner.timeout)
            self._links[shard] = link
        return link

    def _any_shard(self) -> int:
        """Round-robin over shards for broadcast-satisfiable reads."""
        shard = self._rr % self.owner.n_shards
        self._rr += 1
        return shard

    def _all_links(self) -> List[_ShardLink]:
        return [self._link(i) for i in range(self.owner.n_shards)]

    # -- session / introspection -------------------------------------------

    def op_hello(self, request: Mapping) -> dict:
        return {
            "ok": True,
            "server": "hrdm",
            "protocol": protocol.PROTOCOL_VERSION,
            "database": self.owner.name,
            "durable": True,
            "role": "coordinator",
            "read_only": False,
            "shards": self.owner.n_shards,
        }

    def op_status(self, request: Mapping) -> dict:
        """Coordinator observability: per-shard position and health.

        Probing a shard doubles as the lazy in-doubt sweep — any
        prepared transaction the shard still holds is decided from the
        decision log on the spot.
        """
        shards = []
        for link in self._all_links():
            host, port = link._current
            row: Dict[str, Any] = {"id": link.shard_id,
                                   "address": f"{host}:{port}"}
            try:
                status = link.request({"op": "status"})
            except (HRDMError, OSError) as exc:
                row.update(ok=False, error=str(exc))
            else:
                row.update(
                    ok=True,
                    generation=status.get("generation"),
                    lsn=status.get("lsn"),
                    epoch=status.get("epoch"),
                    role=status.get("role"),
                    tuples=status.get("tuples"),
                    wal_bytes=status.get("wal_bytes"),
                    in_doubt=status.get("in_doubt", []),
                )
                self.owner.resolve_in_doubt(link, status.get("in_doubt", []))
            shards.append(row)
        return {
            "ok": True,
            "role": "coordinator",
            "database": self.owner.name,
            "read_only": False,
            "fenced": False,
            "n_shards": self.owner.n_shards,
            "relations": {
                name: entry.placement
                for name in self.owner.catalog.names()
                if (entry := self.owner.catalog.get(name)) is not None},
            "shards": shards,
            "replicas": [],
        }

    def op_resolve(self, request: Mapping) -> dict:
        """A participant asks for a transaction's fate (presumed abort)."""
        txn_id = str(request["txn_id"])
        return {"ok": True, "txn_id": txn_id,
                "outcome": self.owner.decisions.resolve(txn_id)}

    def op_relations(self, request: Mapping) -> dict:
        merged: Dict[str, dict] = {}
        order: List[str] = []
        for link in self._all_links():
            for summary in link.request({"op": "relations"})["relations"]:
                name = summary["name"]
                entry = self.owner.catalog.get(name)
                if name not in merged:
                    merged[name] = dict(summary)
                    order.append(name)
                elif entry is None or entry.hashed:
                    merged[name]["n_tuples"] += summary["n_tuples"]
                    merged[name]["lifespan"] = protocol.lifespan_to_wire(
                        protocol.lifespan_from_wire(
                            merged[name]["lifespan"]).union(
                            protocol.lifespan_from_wire(
                                summary["lifespan"])))
        return {"ok": True, "relations": [merged[name] for name in order]}

    def op_relation(self, request: Mapping) -> dict:
        name = request.get("name")
        entry = self.owner.catalog.get(name)
        if entry is None or entry.broadcast:
            return self._link(self._any_shard()).request(
                {"op": "relation", "name": name})
        payload: Optional[dict] = None
        for link in self._all_links():
            part = link.request({"op": "relation", "name": name})
            if payload is None:
                payload = part
            else:
                payload["tuples"].extend(part["tuples"])
        assert payload is not None  # n_shards >= 1
        return payload

    # -- querying -----------------------------------------------------------

    def op_prepare(self, request: Mapping) -> dict:
        # Parse now to surface errors.
        statement = parse_hrql(protocol.query_text(request))
        return {"ok": True, "params": list(ast.parameters(statement))}

    def op_query(self, request: Mapping) -> dict:
        params = request.get("params") or None
        source = protocol.query_text(request)
        statement = parse_hrql(source)
        route = route_statement(statement, self.owner.catalog, params)
        frame: Dict[str, Any] = {"op": "query", "q": source}
        if params:
            frame["params"] = dict(params)
        if route.mode == "forward":
            shard = route.shard if route.shard is not None \
                else self._any_shard()
            return self._link(shard).request(frame)
        if route.mode == "fanout":
            return self._fanout(frame, route)
        return self._gather(statement, params)

    def _fanout(self, frame: Mapping[str, Any], route: Route) -> dict:
        """Scatter one per-tuple statement, union the slices."""
        responses = [link.request(dict(frame)) for link in self._all_links()]
        if route.when:
            union = Lifespan.union_all(
                protocol.lifespan_from_wire(r["lifespan"])
                for r in responses)
            return {"ok": True, "kind": "lifespan",
                    "lifespan": protocol.lifespan_to_wire(union)}
        merged = responses[0]
        for part in responses[1:]:
            merged["tuples"].extend(part["tuples"])
        return merged

    def _gather(self, statement: ast.Statement,
                params: Optional[Mapping[str, Any]]) -> dict:
        """Fetch, merge, and run the ordinary planner coordinator-side."""
        from repro.sharding.router import referenced_relations

        env: Dict[str, HistoricalRelation] = {}
        for name in referenced_relations(statement):
            env[name] = self._merged_relation(name)
        plan, explain = plan_statement(compile_query(statement, params), env)
        return protocol.result_to_wire(answer(plan, explain, env))

    def _merged_relation(self, name: str) -> HistoricalRelation:
        return protocol.relation_from_wire(self.op_relation({"name": name}))

    # -- mutation routing ---------------------------------------------------

    def _placement_of(self, name: str) -> Placement:
        entry = self.owner.catalog.get(name)
        if entry is None:
            raise RelationError(f"no relation named {name!r}")
        return entry

    def _mutation_shards(self, op: protocol.MutationOp,
                         request: Mapping) -> List[int]:
        """The shards one EXECUTE frame must reach: the home shard of
        the argument the op's table row names as its shard key — a
        values mapping (a birth) or a key tuple — else all of them."""
        everywhere = list(range(self.owner.n_shards))
        if op.shard_field is None:
            return everywhere
        entry = self._placement_of(request["relation"])
        if entry.broadcast:
            return everywhere
        carrier = op.shard_field.decode(request[op.shard_field.wire])
        if not isinstance(carrier, Mapping):
            carrier = dict(zip(entry.key, carrier))
        try:
            shard_key = [carrier[a] for a in entry.shard_by]
        except KeyError as exc:
            raise ShardingError(
                f"{op.method} on hashed relation {entry.name!r} must give "
                f"its shard key ({', '.join(entry.shard_by)}) as "
                f"constants; missing {exc.args[0]!r}") from None
        return [shard_of(shard_key, self.owner.n_shards)]

    def op_execute(self, request: Mapping) -> dict:
        action = request.get("action")
        op = protocol.MUTATION_BY_ACTION.get(action)
        if op is None:
            raise protocol.ProtocolError(f"unknown execute action {action!r}")
        if action == "create":
            return self._create(request)
        if action == "drop":
            return self._drop(request)
        targets = self._mutation_shards(op, request)
        if self._txn is not None:
            response: Optional[dict] = None
            for shard in targets:
                link = self._enroll(shard)
                part = link.request(dict(request))
                response = response or part
            return response  # identical tuple frames on every target
        if len(targets) == 1:
            return self._link(targets[0]).request(dict(request))
        # A multi-shard auto-commit mutation (broadcast relation, or a
        # schema evolution): run it as a one-frame distributed
        # transaction so it lands atomically everywhere.
        links = [self._link(shard) for shard in targets]
        begun: List[_ShardLink] = []
        response = None
        try:
            for link in links:
                link.request({"op": "begin"})
                begun.append(link)
            for link in links:
                part = link.request(dict(request))
                response = response or part
        except BaseException:
            for link in begun:
                link.attempt({"op": "rollback"})
            raise
        self._commit_participants({link.shard_id: link for link in links})
        return response

    # -- DDL ----------------------------------------------------------------

    def _create(self, request: Mapping) -> dict:
        if self._txn is not None:
            raise TransactionError(
                "CREATE is not transactional: finish the open "
                "transaction first")
        scheme_dict = request["scheme"]
        scheme = pager_mod.scheme_from_dict(scheme_dict)
        options = dict(request.get("options") or {})
        placement_name = options.pop("placement", None) or (
            "broadcast" if scheme.name in self.owner.default_broadcast
            else "hashed")
        shard_by = list(options.pop("shard_by", None) or scheme.key)
        storage = request.get("storage", "memory")
        entry = Placement(scheme.name, placement_name, list(scheme.key),
                          shard_by, scheme_dict, storage)
        blobs = list(request.get("tuples", ()))
        if entry.broadcast:
            parts = {i: blobs for i in range(self.owner.n_shards)}
        else:
            parts = {i: [] for i in range(self.owner.n_shards)}
            for blob in blobs:
                t = protocol.tuple_from_wire(blob, scheme)
                shard_key = entry.shard_key_of(t.key_value())
                parts[shard_of(shard_key, self.owner.n_shards)].append(blob)
        created: List[_ShardLink] = []
        try:
            for link in self._all_links():
                link.request({
                    "op": "execute", "action": "create",
                    "scheme": scheme_dict,
                    "tuples": parts[link.shard_id],
                    "storage": storage, "options": options,
                })
                created.append(link)
        except BaseException:
            for link in created:  # best-effort compensation
                link.attempt({"op": "execute", "action": "drop",
                              "relation": scheme.name})
            raise
        self.owner.catalog.add(entry)
        return {"ok": True, "placement": entry.placement,
                "shard_by": list(entry.shard_by)}

    def _drop(self, request: Mapping) -> dict:
        if self._txn is not None:
            raise TransactionError(
                "DROP is not transactional: finish the open "
                "transaction first")
        name = request["relation"]
        for link in self._all_links():
            link.request({"op": "execute", "action": "drop",
                          "relation": name})
        self.owner.catalog.remove(name)
        return {"ok": True}

    # -- distributed transactions ------------------------------------------

    def op_begin(self, request: Mapping) -> dict:
        if self._txn is not None:
            raise TransactionError(
                "a transaction is already active on this connection")
        self._txn = {}
        return {"ok": True}

    def _enroll(self, shard: int) -> _ShardLink:
        assert self._txn is not None
        link = self._txn.get(shard)
        if link is None:
            link = self._link(shard)
            link.request({"op": "begin"})
            self._txn[shard] = link
        return link

    def _end_txn(self) -> Dict[int, _ShardLink]:
        """Detach the open transaction; its enrolled participants."""
        if self._txn is None:
            raise TransactionError(
                "no transaction is active on this connection (send BEGIN)")
        participants, self._txn = self._txn, None
        return participants

    def op_commit(self, request: Mapping) -> dict:
        participants = self._end_txn()
        if not participants:
            return {"ok": True}
        return self._commit_participants(participants)

    def op_rollback(self, request: Mapping) -> dict:
        for link in self._end_txn().values():
            link.request({"op": "rollback"})
        return {"ok": True}

    def _commit_participants(self, participants: Dict[int, _ShardLink]
                             ) -> dict:
        """Commit one distributed write-set: 1PC fast path, else 2PC."""
        ordered = [participants[shard] for shard in sorted(participants)]
        if len(ordered) == 1:
            return ordered[0].request({"op": "commit"})
        txn_id = self.owner.new_txn_id()
        prepared: List[_ShardLink] = []
        for index, link in enumerate(ordered):
            try:
                link.request({"op": "txn_prepare", "txn_id": txn_id})
            except BaseException:
                # No yes-vote from this participant: the transaction
                # aborts. Prepared participants get an explicit abort
                # decision; un-prepared ones still hold plain open
                # transactions and just roll back. A participant whose
                # vote was *lost* (connection dropped mid-prepare) may
                # hold an in-doubt prepare — presumed abort resolves it,
                # since no commit decision will ever be logged.
                for peer in prepared:
                    peer.attempt({"op": "txn_decide",
                                  "txn_id": txn_id, "commit": False})
                for peer in ordered[index + 1:]:
                    peer.attempt({"op": "rollback"})
                raise
            prepared.append(link)
        # Every participant voted yes and holds a force-synced PREPARE:
        # the fsynced decision-log entry is the commit point.
        self.owner.decisions.record(txn_id, "commit")
        for link in ordered:
            # The decision is durable: a participant this misses resolves
            # on its next STATUS sweep or its own RESOLVE poll.
            link.attempt({"op": "txn_decide",
                          "txn_id": txn_id, "commit": True})
        return {"ok": True, "txn_id": txn_id,
                "participants": sorted(participants)}

    # -- durability ---------------------------------------------------------

    def op_checkpoint(self, request: Mapping) -> dict:
        generations = [link.request({"op": "checkpoint"})["generation"]
                       for link in self._all_links()]
        return {"ok": True, "generation": max(generations),
                "generations": generations}

    def op_flush(self, request: Mapping) -> dict:
        for link in self._all_links():
            link.request({"op": "flush"})
        return {"ok": True}


class Coordinator(FrameServer):
    """Serve a sharded catalog: route, scatter-gather, and 2PC.

    *path* is the coordinator's own durable directory (shard catalog +
    decision log). *shards* is one address spec per shard — a
    ``"host:port"`` string, a ``(host, port)`` pair, or a
    comma-separated / sequence form listing the shard leader first and
    its standby replicas after it. *broadcast* names relations that
    default to broadcast placement when created without an explicit
    ``placement=`` option (the usual way a workload marks its dimension
    relations).

    >>> coord = Coordinator("/tmp/coord", ["127.0.0.1:7801",
    ...                                    "127.0.0.1:7802"])   # doctest: +SKIP
    """

    def __init__(self, path: str, shards: Sequence[AddressSpec], *,
                 name: str = "sharded", host: str = "127.0.0.1",
                 port: int = 0, broadcast: Sequence[str] = (),
                 timeout: Optional[float] = None):
        if not shards:
            raise ShardingError("a coordinator needs at least one shard")
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.name = name
        self.shards: List[List[Tuple[str, int]]] = [
            protocol.parse_address_list(spec) for spec in shards]
        self.n_shards = len(self.shards)
        self.default_broadcast = frozenset(broadcast)
        self.timeout = timeout
        self.catalog = ShardCatalog(os.path.join(path, "catalog.json"),
                                    self.n_shards)
        self.decisions = DecisionLog(os.path.join(path, "decisions.log"))
        self._txn_lock = threading.Lock()
        self._txn_seq = 0
        super().__init__((host, port), _CoordConnection)

    def new_txn_id(self) -> str:
        """A globally unique transaction id.

        Uniqueness across coordinator restarts matters: presumed abort
        reads *absence* from the decision log as abort, so an id must
        never be reused for a different transaction.
        """
        with self._txn_lock:
            self._txn_seq += 1
            return f"txn-{uuid.uuid4().hex[:12]}-{self._txn_seq}"

    def resolve_in_doubt(self, link: _ShardLink,
                         in_doubt: Sequence[str]) -> None:
        """Decide a participant's lingering prepares from the log."""
        for txn_id in in_doubt:
            outcome = self.decisions.resolve(txn_id)
            link.attempt({"op": "txn_decide", "txn_id": txn_id,
                          "commit": outcome == "commit"})

    def recover_shards(self) -> None:
        """One startup sweep: resolve every reachable shard's in-doubt
        transactions against the decision log.

        Covers the coordinator-crashed-mid-decide window. Unreachable
        shards are skipped — they resolve on their next STATUS probe or
        through their own RESOLVE poll."""
        for shard in range(self.n_shards):
            link = _ShardLink(shard, self.shards[shard],
                              timeout=_PROBE_TIMEOUT)
            try:
                status = link.request({"op": "status"})
            except (HRDMError, OSError):
                continue
            else:
                self.resolve_in_doubt(link, status.get("in_doubt", []))
            finally:
                link.close()

    def _before_serving(self) -> None:
        self.recover_shards()

    def _after_stopping(self) -> None:
        self.decisions.close()

    def __repr__(self) -> str:
        host, port = self.address
        return (f"Coordinator({self.name!r} on {host}:{port}, "
                f"{self.n_shards} shard(s))")
