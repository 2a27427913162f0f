"""WAL-shipping replication — multi-process read scaling.

One process can serve only as many readers as one interpreter core
allows; the published-snapshot MVCC of :mod:`repro.database.concurrency`
already made reads lock-free, so the next ceiling is the process
itself. This package moves past it by running **read replicas**: extra
processes that mirror a primary's committed history and serve the full
read protocol on their own ports, while every write still flows through
the one primary.

The moving parts:

* **The primary ships its write-ahead log.** A replica connects to the
  ordinary :class:`~repro.server.DatabaseServer` port and sends a
  SUBSCRIBE frame carrying its current ``(generation, lsn)`` position.
  The connection's worker thread becomes a dedicated shipper
  (:func:`repro.replication.primary.serve_subscription`): it tails the
  live log with an LSN-addressable
  :class:`~repro.storage.wal.WALReader` and streams each commit record
  as a WAL frame. When the log cannot bridge the replica's position —
  first contact, a checkpoint truncated the needed records away, or
  the replica is *ahead* (the primary lost an unsynced tail in a
  crash) — the shipper sends a consistent **snapshot** of the whole
  catalog first, captured under the commit lock at an exact position,
  then streams from there.

* **The replica replays through the recovery path.** A
  :class:`~repro.replication.replica.ReplicaServer` applies each
  streamed record via the same ``HistoricalDatabase._apply_logged``
  state machine that crash recovery uses, appends it to its *own* log
  under the primary's exact ``(generation, lsn)`` identity, and
  publishes the new committed cut through the MVCC machinery — so
  replica reads are
  byte-for-byte the primary's, snapshot-isolated, and never torn. A
  primary checkpoint observed mid-stream (the generation stamp jumps)
  is mirrored as a local checkpoint under the primary's generation
  number, keeping both directories in the same coordinate system.

* **Robustness is the default.** The replica reconnects with
  exponential backoff, survives ``kill -9`` on either end (its log and
  manifest make restart a normal recovery; the subscribe handshake
  then resumes or resyncs as needed), and rejects torn frames exactly
  like recovery does. Lag — applied LSN, records/bytes behind, seconds
  since the last ack — is visible in the primary's STATUS frame and
  the shell's ``\\replicas`` command.

* **Clients route reads.** ``connect(primary, replicas=[...])``
  (:mod:`repro.client`) sends writes to the primary, round-robins
  reads across the replicas, and carries each write's commit LSN as a
  **read-your-writes token**: a replica read waits until its applier
  covers the token (or the retryable
  :class:`~repro.core.errors.ReplicaLagError` sends the read back to
  the primary).

* **Failover is fenced.** A replica can be **promoted**
  (:meth:`~repro.replication.replica.ReplicaServer.promote`, the wire
  PROMOTE op, the shell's ``\\promote``): it stops syncing, bumps the
  cluster's fencing **epoch** — persisted in the manifest and stamped
  into every subsequent WAL commit frame — and starts taking writes.
  Any surviving ex-primary that hears the higher epoch (through a
  SUBSCRIBE handshake) fences itself: mutations get the retryable
  :class:`~repro.core.errors.FencedError`, which steers
  :class:`~repro.client.RoutedClient` sessions into rediscovering the
  new primary. The demoted node rejoins as a replica; the epoch check
  forces a snapshot resync that truncates any divergent suffix it
  committed after the promotion point. See ``docs/replication.md``.

Run a replica from the command line::

    python -m repro.replication PATH --primary HOST:PORT [--port P]

``docs/replication.md`` walks through topology, bootstrap, lag
semantics, and the read-your-writes token; the ``replicated_mixed``
workload of the layer account (``python3 -m benchmarks.account``)
measures reads and commits through a primary plus one live replica.
"""

from __future__ import annotations

from repro.replication.replica import ReplicaServer

__all__ = ["ReplicaServer"]
