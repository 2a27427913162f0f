"""Replica-aware sessions: :class:`RoutedClient` sends writes to the
primary and fans reads out across the replicas; :func:`elect_leader`
is the one leader election (routed sessions and the shard
coordinator's links both fail over through it).
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence, Tuple)

from repro.client.results import RemoteResult
from repro.client.session import (Address, _CatalogView, Client,
                                  RemoteTransaction)
from repro.core.domains import ValueDomain
from repro.core.errors import (ConnectionLostError, FencedError, HRDMError,
                               PromotionError, ReplicaLagError)
from repro.core.relation import HistoricalRelation
from repro.database.prepared import StatementHandle
from repro.server import protocol

__all__ = ["RoutedClient", "RoutedPrepared", "elect_leader"]

#: Ceiling on one leader-election STATUS probe when the caller itself
#: has no timeout: a candidate that accepts the connection but never
#: replies must not stall the election (see :func:`elect_leader`).
_PROBE_TIMEOUT = 2.0


def elect_leader(addresses: Iterable[Tuple[str, int]],
                 timeout: Optional[float] = None,
                 domains: Optional[Mapping[str, ValueDomain]] = None,
                 ) -> Optional[Tuple[int, int, Tuple[str, int]]]:
    """Find the node among *addresses* that takes writes right now.

    Probes each address with a STATUS frame and elects the **writable
    server with the highest fencing epoch** — writable meaning not a
    replica, not ``read_only`` and not ``fenced`` — exactly the node a
    fenced ex-primary's :class:`~repro.core.errors.FencedError` points
    away from. Returns ``(epoch, lsn, address)`` of the winner, or None
    when no writable node answered.

    Every probe runs under a bounded timeout (*timeout*, else
    :data:`_PROBE_TIMEOUT`) even when the caller's session has none:
    an election races an outage, and one node that *accepts* the
    connection but never answers the STATUS frame (a half-dead server,
    a wedged promotion) must cost one probe window, not hang the whole
    election forever.
    """
    if timeout is None:
        timeout = _PROBE_TIMEOUT
    best: Optional[Tuple[int, int, Tuple[str, int]]] = None
    for address in dict.fromkeys(addresses):  # each candidate once, in order
        try:
            with Client(*address, timeout=timeout, domains=domains) as probe:
                status = probe.status()
        except (OSError, HRDMError):
            continue
        writable = (status.get("role") != "replica"
                    and not status.get("read_only")
                    and not status.get("fenced"))
        epoch = int(status.get("epoch", 0))
        if writable and (best is None or epoch > best[0]):
            best = (epoch, int(status.get("lsn", 0)), address)
    return best


class RoutedClient(_CatalogView):
    """A replica-aware session: writes to the primary, reads fanned out.

    Mirrors the :class:`Client` surface so the shell and application
    code stay oblivious. Mutations, transactions, DDL, and durability
    frames always go to the primary; ``query()`` and catalog reads
    round-robin across the replicas. Every routed read carries the
    primary session's :attr:`~Client.last_commit_lsn` as a
    read-your-writes token — the replica holds the read until its
    applier covers that LSN, so this session always sees its own
    writes. A replica still short of the token after *replica_wait*
    seconds (or simply unreachable) is skipped for the next one, and
    when every replica is out the read runs on the primary itself:
    routed reads degrade, they do not fail.

    Replica connections are lazy and self-healing — a replica that is
    down is skipped now and re-dialed on a later read.

    The session also survives **failover**: a write refused with the
    retryable :class:`~repro.core.errors.FencedError` (the primary's
    epoch has been superseded) triggers :meth:`rediscover` — every
    known address is probed and the writable server with the highest
    fencing epoch becomes the new primary — and the write is re-sent
    there. A write that dies with
    :class:`~repro.core.errors.ConnectionLostError` also rediscovers,
    but re-raises: its fate on the old primary is unknown, so only the
    caller can decide to re-run. :meth:`promote` drives the planned
    form: promote a chosen replica, then re-route this session to it.
    """

    #: Generic callers (the HRQL shell) treat this like any remote catalog.
    remote = True

    def __init__(self, primary: Tuple[str, int],
                 replicas: Sequence[Tuple[str, int]], *,
                 timeout: Optional[float] = None,
                 domains: Optional[Mapping[str, ValueDomain]] = None,
                 replica_wait: float = 1.0):
        #: The write session; also the read of last resort.
        self.primary = Client(*primary, timeout=timeout, domains=domains)
        self.replica_wait = replica_wait
        self._timeout = timeout
        self._domains = domains
        self._replicas: list[dict[str, Any]] = [
            {"address": (host, int(port)), "client": None}
            for host, port in replicas]
        self._rr = 0
        self._closed = False

    # -- the primary's identity, verbatim -----------------------------------

    @property
    def name(self) -> str:
        """The served database's name (from the primary)."""
        return self.primary.name

    @property
    def durable(self) -> bool:
        """Whether the primary's database is durable."""
        return self.primary.durable

    @property
    def last_commit_lsn(self) -> int:
        """The session's read-your-writes token (primary-side)."""
        return self.primary.last_commit_lsn

    @property
    def replica_addresses(self) -> list[Tuple[str, int]]:
        """The configured replica addresses, in routing order."""
        return [entry["address"] for entry in self._replicas]

    def close(self) -> None:
        """Close every connection (idempotent)."""
        self._closed = True
        for entry in self._replicas:
            if entry["client"] is not None:
                entry["client"].close()
                entry["client"] = None
        self.primary.close()

    def __enter__(self) -> "RoutedClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- read routing --------------------------------------------------------

    def _read_targets(self) -> Iterator[Client]:
        """Replica sessions in round-robin order.

        A replica whose connection previously failed is re-dialed
        here; one that is unreachable right now is skipped (and tried
        again on a later read).
        """
        count = len(self._replicas)
        if count:
            start, self._rr = self._rr, (self._rr + 1) % count
        for offset in range(count):
            entry = self._replicas[(start + offset) % count]
            client = entry["client"]
            if client is None or client._closed:
                try:
                    client = Client(*entry["address"], timeout=self._timeout,
                                    domains=self._domains)
                except (OSError, HRDMError):
                    continue
                entry["client"] = client
            yield client

    def _routed(self, read: Callable[[Client, Optional[int],
                                      Optional[float]], Any]) -> Any:
        """Run *read* on the next live replica, else on the primary.

        *read* is called as ``read(client, wait_lsn, wait_timeout)``;
        lag past the token and connection loss both mean "try the next
        one". The primary fallback drops the token — the primary is
        the token's source, so it trivially covers it.
        """
        token = self.primary.last_commit_lsn
        for client in self._read_targets():
            try:
                return read(client, token, self.replica_wait)
            except (ReplicaLagError, ConnectionLostError):
                continue
        return read(self.primary, None, None)

    def query(self, source: str,
              params: Optional[Mapping[str, Any]] = None) -> RemoteResult:
        """Run a read on a replica (see :meth:`Client.query`).

        Note that HRQL is read-only — every statement is routable."""
        return self._routed(lambda c, lsn, t: c.query(
            source, params, wait_lsn=lsn, wait_timeout=t))

    def prepare(self, source: str) -> "RoutedPrepared":
        """Prepare *source* for routed repeated runs."""
        return RoutedPrepared(self, source)

    def relations_info(self) -> list[dict]:
        """Per-relation summaries, read from a replica."""
        return self._routed(lambda c, lsn, t: c.relations_info(
            wait_lsn=lsn, wait_timeout=t))

    def relation(self, name: str) -> HistoricalRelation:
        """The named relation's full current value, from a replica."""
        return self._routed(lambda c, lsn, t: c.relation(
            name, wait_lsn=lsn, wait_timeout=t))

    def storage(self, name: str) -> str:
        """The named relation's storage kind, from a replica."""
        return self._routed(lambda c, lsn, t: c.storage(
            name, wait_lsn=lsn, wait_timeout=t))

    def status(self) -> dict:
        """The primary's STATUS frame — includes the per-replica lag
        table the shell's ``\\replicas`` renders."""
        return self.primary.status()

    # -- failover ------------------------------------------------------------

    def rediscover(self) -> bool:
        """Find the current primary among every address this session knows.

        Runs :func:`elect_leader` over the configured primary and each
        replica address. When the winner differs from the current
        primary, the session is re-routed: a fresh write connection is
        opened there, the read-your-writes token is capped at the new
        primary's position (acknowledged commits the old primary never
        shipped are not on the surviving timeline), the promoted
        address leaves the read rotation, and the demoted one joins it
        (it will serve reads again once rejoined as a replica). Returns
        True when a writable primary is connected, False when none
        answered.
        """
        current = self.primary._address
        best = elect_leader([current] + self.replica_addresses,
                            self._timeout, self._domains)
        if best is None:
            return False
        epoch, lsn, address = best
        if address == current:
            return True  # the session's own primary is (still) it
        old = self.primary
        self.primary = Client(*address, timeout=self._timeout,
                              domains=self._domains)
        self.primary.last_commit_lsn = min(old.last_commit_lsn, lsn)
        self.primary.cluster_epoch = max(old.cluster_epoch, epoch)
        old.close()
        for entry in self._replicas:
            if entry["address"] == address and entry["client"] is not None:
                entry["client"].close()
        self._replicas = [entry for entry in self._replicas
                          if entry["address"] != address]
        if all(entry["address"] != current for entry in self._replicas):
            self._replicas.append({"address": current, "client": None})
        self._rr = 0
        return True

    def promote(self, address: Optional[Address] = None) -> int:
        """Planned failover: promote a replica, re-route this session.

        Sends PROMOTE to *address* (default: the first configured
        replica), then :meth:`rediscover`\\ s so subsequent writes go to
        the new primary. Returns the new fencing epoch. Raises
        :class:`~repro.core.errors.PromotionError` when there is no
        replica to promote (or the target refuses).
        """
        if address is None:
            if not self._replicas:
                raise PromotionError(
                    "this session has no replica addresses to promote")
            target = self._replicas[0]["address"]
        else:
            target = protocol.parse_address(address)
        probe = Client(*target, timeout=self._timeout, domains=self._domains)
        try:
            epoch = probe.promote()
        finally:
            probe.close()
        self.rediscover()
        return epoch

    def _write(self, action: Callable[[], Any]) -> Any:
        """Run *action* against the primary, failing over when fenced.

        A :class:`~repro.core.errors.FencedError` proves the write was
        refused (nothing committed), so after a successful
        :meth:`rediscover` it is safe to re-send on the new primary. A
        :class:`~repro.core.errors.ConnectionLostError` is ambiguous —
        the write may have landed before the drop — so the session
        rediscovers (the caller's retry will route correctly) but the
        retryable error still propagates.
        """
        try:
            return action()
        except FencedError:
            if not self.rediscover():
                raise
            return action()
        except ConnectionLostError:
            self.rediscover()
            raise

    # -- writes: straight to the (current) primary ---------------------------

    def transaction(self) -> RemoteTransaction:
        """Open a transaction on the primary (see
        :meth:`Client.transaction`). BEGIN against a fenced ex-primary
        fails over like any write; the open session then lives on the
        new primary."""
        return self._write(lambda: self.primary.transaction())

    def run_transaction(self, body, *, attempts: int = 5):
        """Run *body* transactionally on the primary (see
        :meth:`Client.run_transaction`). A fenced primary mid-run
        aborts the attempt cleanly, so re-running the whole loop on
        the rediscovered primary is safe."""
        return self._write(
            lambda: self.primary.run_transaction(body, attempts=attempts))

    def checkpoint(self) -> int:
        """Checkpoint the primary (replicas mirror the generation
        switch through the stream)."""
        return self._write(lambda: self.primary.checkpoint())

    def flush(self) -> None:
        """Flush the primary's acknowledged commits to stable storage."""
        self._write(lambda: self.primary.flush())

    def __repr__(self) -> str:
        host, port = self.primary._address
        state = "closed" if self._closed else "open"
        return (f"RoutedClient({self.name!r} at {host}:{port} + "
                f"{len(self._replicas)} replicas, {state})")


class RoutedPrepared(StatementHandle):
    """A handle on one statement's text for a :class:`RoutedClient`:
    each run is :meth:`RoutedClient.query` on it, so it routes (and
    falls back to the primary) exactly like an unprepared read."""

    def __init__(self, routed: RoutedClient, source: str):
        super().__init__(routed, source,
                         routed.primary.prepare(source).param_names)

    def query(self, params: Optional[Mapping[str, Any]] = None
              ) -> RemoteResult:
        """Bind and run on the next live replica, else the primary."""
        return self._session.query(self.source, params)


def _routed_stub(op: protocol.MutationOp):
    """``RoutedClient.<op>``: a write, so it runs on the primary and
    fails over like one."""
    method = op.method

    def stub(self, *args, **kwargs):
        return self._write(
            lambda: getattr(self.primary, method)(*args, **kwargs))
    return stub


for _op in protocol.MUTATION_OPS:
    _op.install(RoutedClient, _routed_stub(_op), "Client")
