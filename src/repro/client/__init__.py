"""The client library — a remote catalog that feels embedded.

:func:`connect` opens a TCP connection to a :mod:`repro.server` and
returns a :class:`Client` whose surface mirrors
:class:`~repro.database.database.HistoricalDatabase`: the same
``query()`` (HRQL text plus ``:name`` bind parameters), the same
lifespan-phrased mutations (``insert`` / ``update`` / ``terminate`` /
``reincarnate``), ``transaction()`` sessions, ``prepare()``\\ d
statements, DDL, and ``checkpoint()``. Results come back *typed*:
query answers are real :class:`~repro.core.relation.HistoricalRelation`
/ :class:`~repro.core.lifespan.Lifespan` values (tuples travel in the
storage engine's exact record encoding, so a remote answer equals the
embedded answer byte for byte), and mutations return the resulting
:class:`~repro.core.tuples.HistoricalTuple` just like the embedded API.

Server-side errors surface as the matching
:class:`~repro.core.errors.HRDMError` subclass with the original
message, so error handling code is portable between embedded and
remote use. The HRQL shell exploits all of this: ``\\connect
HOST:PORT`` swaps its embedded catalog for a :class:`Client` and every
command keeps working, with identical rendering.

A :class:`Client` is **not** thread-safe — it is one session on one
socket, like one :class:`~repro.database.session.Transaction`. Open
one client per thread; the server gives each its own worker.

A dropped connection is transient, not fatal: the client reconnects
and transparently retries reads, while in-flight mutations surface the
retryable :class:`~repro.core.errors.ConnectionLostError` (their fate
is unknown — the write may or may not have committed before the drop).
And with read replicas running (:mod:`repro.replication`),
``connect(primary, replicas=[...])`` returns a :class:`RoutedClient`
that sends writes to the primary and fans reads out across the
replicas with read-your-writes intact.

The package is split along its seams: :mod:`repro.client.session`
(:class:`Client`, :class:`RemoteTransaction`, :class:`RemotePrepared`),
:mod:`repro.client.routed` (:class:`RoutedClient`,
:class:`RoutedPrepared`, leader election) and
:mod:`repro.client.results` (:class:`RemoteResult`,
:class:`RemoteExplanation`); everything public is importable from
here.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from repro.client.results import RemoteExplanation, RemoteResult
from repro.client.routed import RoutedClient, RoutedPrepared
from repro.client.session import (Address, Client, RemotePrepared,
                                  RemoteTransaction)
from repro.core.domains import ValueDomain
from repro.server.protocol import parse_address

__all__ = ["Client", "RemoteExplanation", "RemoteResult",
           "RemotePrepared", "RemoteTransaction", "RoutedClient",
           "RoutedPrepared", "connect"]


def connect(address: Address,
            port: Optional[int] = None, *,
            timeout: Optional[float] = None,
            domains: Optional[Mapping[str, ValueDomain]] = None,
            replicas: Optional[Sequence[Address]] = None,
            replica_wait: float = 1.0,
            ) -> Union["Client", "RoutedClient"]:
    """Open a client session with a running database server.

    *address* is ``"host:port"``, or a host with *port* given
    separately, or a ``(host, port)`` pair — so both
    ``connect("localhost:7707")`` and ``connect(*server.address)``
    read naturally. *timeout* bounds each request round trip (seconds);
    *domains* restores membership enforcement for custom value domains
    in schemes crossing the wire (exactly as for
    ``HistoricalDatabase(domains=...)``).

    With *replicas* (addresses of read replicas of the same primary,
    in any of the shapes above) the result is a :class:`RoutedClient`
    instead: writes, transactions, and DDL go to the primary while
    reads round-robin across the replicas carrying the session's last
    commit LSN as a read-your-writes token. A replica that cannot
    cover the token within *replica_wait* seconds — or that is simply
    down — is skipped in favor of the next one, and finally of the
    primary itself, so routed reads degrade rather than fail.
    """
    host, port = parse_address(address, port)
    if replicas:
        return RoutedClient(
            (host, port), [parse_address(r) for r in replicas],
            timeout=timeout, domains=domains, replica_wait=replica_wait)
    return Client(host, port, timeout=timeout, domains=domains)
