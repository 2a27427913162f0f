"""The primary-side log shipper — one loop per subscribed replica.

A SUBSCRIBE frame turns an ordinary server connection into a
subscription: the connection's worker thread stops dispatching
request/response pairs and becomes a shipper that pushes frames until
the replica disconnects or the server stops. The wire choreography::

    replica                              primary
    -------                              -------
    {op: subscribe, replica, generation, lsn, epoch}
                          ->
                                  {ok, mode: "stream", generation, lsn, epoch}
                          <-      {op: wal, generation, lsn, epoch,
                                   ops: [b64...]}
                          <-      {op: wal, ...}
    {op: ack, generation, lsn}
                          ->
                          <-      {op: ping, lsn}          (idle heartbeat)

or, when the log cannot bridge the replica's position::

                                  {ok, mode: "snapshot", name, generation,
                                   lsn, time_domain, relations: N}
                          <-      {op: snap_relation, name, storage,
                                   options, scheme, data: b64} x N
                          <-      {op: snap_done}
                          <-      {op: wal, ...}                 (stream)

The **snapshot decision** at handshake: stream when the replica's LSN
equals the primary's, or when the log's first record reaches back to
``replica_lsn + 1``; ship a snapshot when the needed records were
checkpointed away, or when the replica is *ahead* (``replica_lsn >
primary_lsn`` or a newer generation) — that means the primary lost an
unsynced WAL tail in a crash and the replica's divergent suffix must
be discarded wholesale. A checkpoint that races the stream *after* the
handshake surfaces as a :class:`~repro.storage.wal.WALGapError` from
the reader, answered inline with ``{op: resync}`` followed by the same
snapshot choreography.

Snapshots are **consistent cuts**: captured under the database's
commit lock at an exact ``(generation, lsn)``, so streaming from that
LSN afterwards replays precisely the commits the snapshot does not
contain. ACK frames only feed the lag registry
(:meth:`~repro.server.DatabaseServer.track_replica`) — shipping never
waits for them; replication is asynchronous by design. The shipper
tails the *flushed* log, not the fsynced prefix, so a replica can
briefly hold commits the primary loses in a crash — the next handshake
detects exactly that divergence and resyncs from a snapshot.
"""

from __future__ import annotations

import base64
import os
import time
from typing import TYPE_CHECKING, Tuple

from repro.core.errors import FencedError, ReplicationError, WALError
from repro.server import protocol
from repro.storage import pager as pager_mod
from repro.storage.wal import WALGapError, WALReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database.database import HistoricalDatabase
    from repro.database.durability import DurabilityManager

#: Heartbeat period on an idle stream — the replica's staleness clock.
PING_SECONDS = 1.0

#: Idle sleep between polls of a quiet log.
_IDLE_SLEEP = 0.05

#: Receive window per ack-drain pass (also paces a busy ship loop).
_ACK_TIMEOUT = 0.05

#: Send timeout for handshake, snapshot, and WAL frames. Generous on
#: purpose: a large snapshot or burst to a slow / backpressured replica
#: must not be mistaken for a dead peer (a snapshot bootstrap is
#: all-or-nothing, so aborting one mid-send livelocks a resync loop).
#: Only a peer that moves no bytes at all for this long is dropped.
_SEND_TIMEOUT = 60.0


def serve_subscription(connection, request) -> None:
    """Run one replica's subscription on its connection worker.

    *connection* is the server's ``_Connection`` handler; *request* the
    SUBSCRIBE frame. Raises (into the normal ERROR-frame path) only
    before the handshake response; once frames have started flowing,
    every failure just ends the subscription — the replica's reconnect
    loop owns retries.
    """
    owner = connection.owner
    db: "HistoricalDatabase" = connection.db
    if not getattr(db, "durable", False):
        raise ReplicationError(
            "replication needs a durable primary — serve a database "
            "directory (path=...), not an ephemeral catalog")
    if owner.read_only:
        raise ReplicationError(
            "cannot subscribe to a read-only replica; subscribe to "
            "the primary")
    manager: "DurabilityManager" = db._durability
    peer = "%s:%s" % connection.client_address[:2]
    replica_id = str(request.get("replica") or peer)
    replica_gen = int(request.get("generation", 0))
    replica_lsn = int(request.get("lsn", 0))
    replica_epoch = int(request.get("epoch", 0))
    if replica_epoch > manager.epoch:
        # The subscriber has seen a newer primacy than ours: somewhere a
        # replica was promoted past us. Fence this server — refusing
        # further writes is what keeps a partitioned ex-primary from
        # splitting the brain — and refuse the subscription.
        owner.fence()
        raise FencedError(
            f"this primary's epoch {manager.epoch} has been superseded "
            f"(subscriber speaks epoch {replica_epoch}); the server is "
            f"now fenced — rejoin it as a replica of the new primary")
    owner.track_replica(replica_id, address=peer, connected=True,
                        applied_lsn=replica_lsn,
                        applied_generation=replica_gen,
                        acked_at=time.monotonic())
    try:
        _ship(owner, db, manager, connection, replica_id,
              replica_gen, replica_lsn, replica_epoch)
    except (OSError, protocol.ProtocolError):
        pass  # the replica went away mid-stream; it will re-subscribe
    except WALError:
        pass  # unreadable log: drop the link, the next handshake decides
    finally:
        owner.track_replica(replica_id, connected=False)


def _capture_snapshot(db: "HistoricalDatabase",
                      manager: "DurabilityManager") -> Tuple[dict, list]:
    """A consistent catalog cut at an exact ``(generation, lsn)``.

    Captured under the commit lock: no commit can land between reading
    the position and serializing the backends, so streaming from the
    returned LSN afterwards is gapless and overlap-free. Refused while
    a two-phase transaction is in doubt — the same rule as
    ``checkpoint``: the position would already cover the PREPARE
    record, so the replica would never receive the stashed steps its
    decision applies. The subscriber's reconnect loop retries.
    """
    with db._concurrency.write():
        db._ensure_decided("ship a snapshot")
        generation, lsn = manager.position
        relations = [
            {
                "op": "snap_relation",
                "name": name,
                "storage": backend.kind,
                "options": backend.options(),
                "scheme": pager_mod.scheme_to_dict(backend.scheme),
                "data": base64.b64encode(backend.to_snapshot()).decode("ascii"),
            }
            for name, backend in db._backends.items()
        ]
    header = {
        "name": db.name,
        "generation": generation,
        "lsn": lsn,
        "epoch": manager.epoch,
        "time_domain": pager_mod.time_domain_to_dict(db.time_domain),
        "relations": len(relations),
    }
    return header, relations


def _send_snapshot(sock, header: dict, relations: list) -> None:
    for frame in relations:
        protocol.send_frame(sock, frame)
    protocol.send_frame(sock, {"op": "snap_done"})


def _wal_frame(record) -> dict:
    frame = {
        "op": "wal",
        "generation": record.generation,
        "lsn": record.lsn,
        "epoch": record.epoch,
        "ops": [base64.b64encode(op).decode("ascii") for op in record.ops],
    }
    if record.kind != "commit":
        # 2PC records (see repro.sharding): the replica must stash a
        # prepare and only apply it on its decision, like recovery does.
        frame["kind"] = record.kind
        frame["txn_id"] = record.txn_id
    return frame


def _ship(owner, db, manager, connection, replica_id,
          replica_gen, replica_lsn, replica_epoch=0) -> None:
    sock = connection.request
    buffer = connection.buffer
    # The connection arrives on the request/response poll timeout
    # (200ms) — far too tight for shipping a snapshot. Sends run under
    # the generous _SEND_TIMEOUT; only the ack drain narrows the window.
    sock.settimeout(_SEND_TIMEOUT)
    generation, lsn = manager.position
    wal_path = manager.wal.path

    # -- handshake: stream when the log bridges the replica's position --
    # A replica on an older *epoch* never streams: its history may end
    # in a divergent suffix committed by the fenced ex-primary (this is
    # the rejoin path of a demoted primary), and only a snapshot
    # truncates that suffix onto the new timeline wholesale.
    diverged = (replica_lsn > lsn or replica_gen > generation
                or replica_epoch < manager.epoch)
    if not diverged and replica_lsn == lsn:
        stream = True
    elif diverged:
        stream = False
    else:
        first = WALReader(wal_path).first_lsn()
        stream = first is not None and first <= replica_lsn + 1
    if stream:
        start_lsn = replica_lsn
        protocol.send_frame(sock, {"ok": True, "mode": "stream",
                                   "generation": generation, "lsn": lsn,
                                   "epoch": manager.epoch})
        owner.track_replica(replica_id, mode="stream")
    else:
        header, relations = _capture_snapshot(db, manager)
        start_lsn = header["lsn"]
        protocol.send_frame(sock, dict(header, ok=True, mode="snapshot"))
        _send_snapshot(sock, header, relations)
        owner.track_replica(replica_id, mode="snapshot",
                            shipped_lsn=start_lsn)

    # -- the ship loop ---------------------------------------------------
    reader = WALReader(wal_path, after_lsn=start_lsn)
    last_send = time.monotonic()
    while not owner.stopping:
        try:
            records = reader.poll()
        except WALGapError:
            # A checkpoint truncated records the replica still needs.
            # Captured first: a refusal must reach the replica as an
            # error frame, not in place of the announced snapshot.
            header, relations = _capture_snapshot(db, manager)
            protocol.send_frame(sock, {"op": "resync"})
            protocol.send_frame(sock, dict(header, op="snapshot"))
            _send_snapshot(sock, header, relations)
            reader = WALReader(wal_path, after_lsn=header["lsn"])
            owner.track_replica(replica_id, mode="snapshot",
                                shipped_lsn=header["lsn"])
            last_send = time.monotonic()
            continue
        for record in records:
            protocol.send_frame(sock, _wal_frame(record))
        now = time.monotonic()
        if records:
            last_send = now
        try:
            pending = max(0, os.path.getsize(wal_path) - reader.offset)
        except OSError:
            pending = 0
        if records:
            owner.track_replica(replica_id, shipped_lsn=records[-1].lsn,
                                pending_bytes=pending)
        else:
            owner.track_replica(replica_id, pending_bytes=pending)
        # Drain acks under a short receive window (which also paces a
        # busy ship loop); the send timeout is restored before the next
        # frame goes out. A closed peer surfaces as a send failure on
        # the next frame or ping.
        sock.settimeout(_ACK_TIMEOUT)
        try:
            while True:
                ack = protocol.recv_frame(sock, buffer,
                                          keep_waiting=lambda: False)
                if ack is None:
                    break
                if ack.get("op") == "ack":
                    owner.track_replica(
                        replica_id,
                        applied_lsn=int(ack.get("lsn", 0)),
                        applied_generation=int(ack.get("generation", 0)),
                        acked_at=time.monotonic())
        finally:
            sock.settimeout(_SEND_TIMEOUT)
        if not records:
            if now - last_send >= PING_SECONDS:
                protocol.send_frame(
                    sock, {"op": "ping", "lsn": manager.position[1]})
                last_send = now
            time.sleep(_IDLE_SLEEP)
