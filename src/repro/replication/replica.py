"""The replica — a read-only server that mirrors a primary's history.

A :class:`ReplicaServer` owns three cooperating pieces:

* a local durable :class:`~repro.database.database.HistoricalDatabase`
  in its own directory — the replica's state survives restarts the
  same way the primary's does (manifest + snapshots + WAL), so a
  replica killed at any point reopens, recovers, and re-subscribes
  from its recovered ``(generation, lsn)`` position;
* a **sync loop** on a background thread: subscribe to the primary,
  install a shipped snapshot when the handshake says so, then apply
  streamed commit records one by one — each is appended to the local
  WAL under the primary's exact identity
  (:meth:`~repro.storage.wal.WriteAheadLog.append_record`), then
  applied and published as a fresh committed cut by the recovery
  path's own state machine (``HistoricalDatabase._apply_logged``), so a
  reader mid-query keeps its snapshot and never sees half a commit.
  Disconnects trigger reconnection with exponential backoff; a
  generation jump in the stream (the primary checkpointed) is mirrored
  as a local checkpoint under the primary's generation number;
* the read-only :class:`~repro.server.DatabaseServer` it *is*, on its
  own port: the full query protocol, mutations refused with
  :class:`~repro.core.errors.ReadOnlyError`, STATUS extended with the
  replica's applied position and primary link, and read-your-writes
  tokens honored via :meth:`wait_applied` (timeout → the retryable
  :class:`~repro.core.errors.ReplicaLagError`, which sends the routed
  client back to the primary).

``python -m repro.replication PATH --primary HOST:PORT`` runs one from
the command line; tests and benchmarks embed it in-process exactly
like :class:`~repro.server.DatabaseServer`.
"""

from __future__ import annotations

import base64
import os
import random
import socket
import threading
import time
from typing import Any, Mapping, Optional, Tuple, Union

from repro import faults as faults_mod
from repro.core.domains import ValueDomain
from repro.core.errors import (FencedError, PromotionError, ReplicaLagError,
                               ReplicationError)
from repro.database.database import HistoricalDatabase
from repro.server import DatabaseServer, protocol
from repro.storage import pager as pager_mod
from repro.storage.pager import Pager
from repro.storage.wal import CommitRecord

#: Socket timeout while waiting for stream frames (poll granularity).
_POLL_SECONDS = 0.2

#: Reconnect backoff bounds (doubled per failed attempt).
_BACKOFF_MIN = 0.05
_BACKOFF_MAX = 5.0


def jittered_backoff(base: float, cap: float,
                     rng: Optional[random.Random] = None) -> float:
    """The actual sleep for a reconnect attempt at backoff *base*.

    Exponential backoff alone synchronizes a fleet: every replica that
    lost the same primary at the same moment retries at the same
    instants, and a primary bounce turns into a thundering herd of
    simultaneous SUBSCRIBE storms. The classic fix is jitter — each
    sleep is drawn uniformly from ``[base/2, base]`` (capped at *cap*),
    so retries decorrelate while keeping at least half the intended
    spacing. Pass a seeded *rng* for deterministic tests.

    >>> rng = random.Random(7)
    >>> delays = [jittered_backoff(0.8, 5.0, rng) for _ in range(100)]
    >>> all(0.4 <= d <= 0.8 for d in delays)
    True
    >>> jittered_backoff(80.0, 5.0, rng) <= 5.0  # the cap wins
    True
    """
    bounded = min(base, cap)
    draw = (rng or random).random()
    return bounded * (0.5 + 0.5 * draw)


class ReplicaServer(DatabaseServer):
    """One read replica: local durable state + sync loop + TCP server.

    >>> # doctest-free sketch; see docs/replication.md for a live one
    >>> # replica = ReplicaServer("replica-dir", primary_server.address)
    >>> # replica.start(); ...; replica.stop()
    """

    def __init__(self, path: str,
                 primary: Union[str, Tuple[str, int]], *,
                 host: str = "127.0.0.1", port: int = 0,
                 replica_id: Optional[str] = None,
                 sync: str = "batch", wal_batch_size: int = 64,
                 domains: Optional[Mapping[str, ValueDomain]] = None,
                 connect_timeout: float = 5.0,
                 backoff_min: float = _BACKOFF_MIN,
                 backoff_cap: float = _BACKOFF_MAX,
                 backoff_seed: Optional[int] = None):
        self.path = path
        self.primary_address = protocol.parse_address(primary)
        self.replica_id = replica_id or f"replica-{os.getpid()}"
        self._sync = sync
        self._batch_size = wal_batch_size
        self._domains = dict(domains or {})
        self._connect_timeout = connect_timeout
        self._cond = threading.Condition()
        self._connected = False
        self._last_frame: Optional[float] = None
        self._last_error: Optional[str] = None
        self._backoff_min = backoff_min
        self._backoff_cap = backoff_cap
        self._backoff = backoff_min
        self._rng = random.Random(backoff_seed)
        self._promoted = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        super().__init__(
            self._open_db(), host, port, read_only=True, role="replica",
            status_extra=self._status_extra, lsn_waiter=self.wait_applied)
        self._applied: Tuple[int, int] = self.db._durability.position
        self.promoter = self.promote  # the wire PROMOTE op

    def _open_db(self) -> HistoricalDatabase:
        return HistoricalDatabase(
            path=self.path, sync=self._sync,
            wal_batch_size=self._batch_size, domains=self._domains)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Serve + sync on background threads; returns immediately."""
        super().start()
        self._start_sync()

    def serve_forever(self) -> None:
        """Sync on a background thread, serve on the calling thread."""
        self._start_sync()
        super().serve_forever()

    def _start_sync(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name=f"hrdm-replica:{self.address[1]}",
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop syncing and serving; close the local database."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(10)
            self._thread = None
        super().stop()
        if not self.db.closed:
            self.db.close()

    # -- observability -----------------------------------------------------

    @property
    def applied(self) -> Tuple[int, int]:
        """The last applied ``(generation, lsn)``."""
        return self._applied

    def wait_applied(self, lsn: int, timeout: float) -> None:
        """Block until the applier covers *lsn*; the read-your-writes
        waiter handed to the server. Raises the retryable
        :class:`~repro.core.errors.ReplicaLagError` on timeout."""
        with self._cond:
            if self._cond.wait_for(lambda: self._applied[1] >= lsn,
                                   timeout):
                return
            applied = self._applied[1]
        raise ReplicaLagError(
            f"replica {self.replica_id} is at LSN {applied}, short of "
            f"the read's token {lsn} after {timeout:.3g}s — read from "
            f"the primary instead")

    def _status_extra(self) -> dict:
        generation, lsn = self._applied
        last = self._last_frame
        return {"replica": {
            "id": self.replica_id,
            "primary": "%s:%d" % self.primary_address,
            "applied_generation": generation,
            "applied_lsn": lsn,
            "connected": self._connected,
            "promoted": self._promoted,
            "seconds_since_frame": (
                None if last is None else round(time.monotonic() - last, 3)),
            "last_error": self._last_error,
        }}

    # -- failover ----------------------------------------------------------

    def promote(self) -> int:
        """Promote this replica to primary; returns the new epoch.

        The fenced-failover sequence:

        1. stop the sync loop (no more frames from the old primary can
           land once the thread has joined);
        2. bump the fencing **epoch** past everything this replica ever
           followed and persist it in the manifest — from here, every
           local commit is stamped with the new epoch, a SUBSCRIBE from
           the ex-primary's surviving peers resyncs them onto this
           timeline, and this node's own SUBSCRIBE handshakes would
           fence any stale primary they reach;
        3. flip the embedded server writable (``role="primary"``) and
           drop the read-your-writes waiter — this node's commits are
           trivially its own.

        The replica starts accepting writes (and subscriptions) at its
        last **applied** position: commits the old primary acknowledged
        but never shipped are not on this timeline — that is the
        asynchronous-replication loss window (``tests/test_replication.py``
        ``TestCrashPaths`` kills a primary inside it). Raises
        :class:`~repro.core.errors.PromotionError` if already promoted
        or the local database cannot take writes.
        """
        if self._promoted:
            raise PromotionError(
                f"{self.replica_id} has already been promoted")
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(10)
            if thread.is_alive():
                raise PromotionError(
                    f"{self.replica_id}'s sync loop did not stop; refusing "
                    f"to promote over a live apply")
        self._thread = None
        db = self.db
        if db.closed or db._durability is None:
            raise PromotionError(
                f"{self.replica_id}'s local database is closed; cannot "
                f"promote")
        with db._concurrency.write():
            epoch = db._durability.bump_epoch(db)
        self._promoted = True
        self._connected = False
        self.lsn_waiter = None
        self.read_only = False
        self.role = "primary"
        return epoch

    # -- the sync loop -----------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._sync_once()
            except Exception as exc:
                # Catch *everything*, not just OSError/HRDMError: a
                # malformed stream frame surfaces as KeyError,
                # ValueError, or binascii.Error, and any escape would
                # permanently kill the sync thread — the replica would
                # silently stop replicating while serving ever-staler
                # reads. Record it and let the backoff loop reconnect.
                self._last_error = f"{type(exc).__name__}: {exc}"
            finally:
                self._connected = False
            if self._stop.is_set():
                break
            self._stop.wait(jittered_backoff(self._backoff,
                                             self._backoff_cap, self._rng))
            self._backoff = min(self._backoff * 2, self._backoff_cap)

    def _sync_once(self) -> None:
        """One subscription: connect, handshake, apply until it drops."""
        faults_mod.fault_connect("replica")
        sock = faults_mod.wrap_socket(socket.create_connection(
            self.primary_address, timeout=self._connect_timeout), "replica")
        try:
            sock.settimeout(_POLL_SECONDS)
            buffer = bytearray()
            generation, lsn = self.db._durability.position
            protocol.send_frame(sock, {
                "op": "subscribe", "replica": self.replica_id,
                "generation": generation, "lsn": lsn,
                "epoch": self.db._durability.epoch,
                "protocol": protocol.PROTOCOL_VERSION,
            })
            response = self._recv(sock, buffer)
            if response is None:
                if self._stop.is_set():
                    return
                raise ReplicationError("primary closed during the handshake")
            if not response.get("ok"):
                raise protocol.error_from_wire(response)
            self._connected = True
            self._backoff = self._backoff_min  # a healthy link resets it
            self._note_frame()
            self._adopt_epoch(int(response.get("epoch", 0)))
            if response.get("mode") == "snapshot":
                self._install_snapshot(sock, buffer, response)
                self._ack(sock)
            self._stream(sock, buffer)
        finally:
            self._connected = False
            sock.close()

    def _stream(self, sock, buffer: bytearray) -> None:
        while not self._stop.is_set():
            frame = self._recv(sock, buffer)
            if frame is None:
                if self._stop.is_set():
                    return
                raise ReplicationError("primary closed the stream")
            self._note_frame()
            op = frame.get("op")
            if op == "wal":
                self._apply_frame(frame)
                self._ack(sock)
            elif op == "ping":
                self._ack(sock)
            elif op == "resync":
                header = self._recv(sock, buffer)
                if header is None or header.get("op") != "snapshot":
                    raise ReplicationError(
                        "primary announced a resync without a snapshot")
                self._install_snapshot(sock, buffer, header)
                self._ack(sock)
            elif not frame.get("ok", True):
                raise protocol.error_from_wire(frame)
            # unknown ops are skipped: forward compatibility

    def _recv(self, sock, buffer: bytearray) -> Optional[dict]:
        return protocol.recv_frame(
            sock, buffer, keep_waiting=lambda: not self._stop.is_set())

    def _ack(self, sock) -> None:
        generation, lsn = self._applied
        protocol.send_frame(
            sock, {"op": "ack", "generation": generation, "lsn": lsn})

    def _note_frame(self) -> None:
        self._last_frame = time.monotonic()

    def _adopt_epoch(self, epoch: int) -> None:
        """Track the primary's fencing epoch on the local timeline.

        The local WAL stamps (and the manifest persists, at the next
        write) the highest epoch seen, so a later :meth:`promote` bumps
        *past* the primacy this replica actually followed, and a
        subscription from a stale ex-primary is recognizably behind."""
        manager = self.db._durability
        if epoch > manager.epoch:
            manager.wal.epoch = epoch

    def _set_applied(self, generation: int, lsn: int) -> None:
        with self._cond:
            self._applied = (generation, lsn)
            self._cond.notify_all()

    # -- applying ----------------------------------------------------------

    def _apply_frame(self, frame: Mapping[str, Any]) -> None:
        """Apply one streamed commit record — WAL first, then state.

        The local append under the primary's exact identity happens
        *before* the in-memory replay (log-before-apply): a crash
        between the two replays the record at reopen, and a failed
        append leaves the position unchanged so the record is simply
        re-shipped on reconnect.
        """
        record = CommitRecord(
            int(frame["generation"]), int(frame["lsn"]),
            tuple(base64.b64decode(op) for op in frame["ops"]),
            int(frame.get("epoch", 0)),
            str(frame.get("kind", "commit")), str(frame.get("txn_id", "")))
        db = self.db
        manager = db._durability
        generation, lsn = manager.position
        if record.epoch < manager.epoch:
            # A fenced ex-primary is still shipping its old timeline
            # (or this replica was itself promoted mid-stream): refuse
            # the frame and drop the link rather than time-travel.
            raise FencedError(
                f"stream carries fenced epoch {record.epoch} "
                f"(local epoch is {manager.epoch}); dropping the link")
        if record.lsn <= lsn:
            return  # overlap after a reconnect: already applied
        if record.lsn != lsn + 1:
            raise ReplicationError(
                f"stream gap: expected LSN {lsn + 1}, got {record.lsn}")
        if record.generation < manager.generation:
            raise ReplicationError(
                f"stream went back a generation ({record.generation} < "
                f"{manager.generation})")
        if record.generation > manager.generation:
            # The primary checkpointed mid-stream: mirror it locally
            # under the primary's generation number, so both
            # directories keep identical (generation, lsn) coordinates.
            with db._concurrency.write():
                manager.checkpoint(db, generation=record.generation)
        with db._concurrency.write():
            manager.wal.append_record(record.generation, record.lsn,
                                      record.ops, epoch=record.epoch,
                                      kind=record.kind, txn_id=record.txn_id)
            # The same state machine recovery runs at reopen: a commit
            # applies and publishes, a PREPARE is stashed until its
            # decision record arrives.
            db._apply_logged(record)
        self._adopt_epoch(record.epoch)
        self._set_applied(record.generation, record.lsn)

    # -- snapshot install --------------------------------------------------

    def _install_snapshot(self, sock, buffer: bytearray,
                          header: Mapping[str, Any]) -> None:
        """Replace the local directory with a shipped consistent cut.

        Write order is crash-safe: (1) truncate the local WAL — its
        records belong to the history being replaced, and must not
        replay on top of either the old or the new snapshot; (2) write
        the shipped snapshot files at the shipped generation; (3)
        atomically flip the manifest (which also carries the shipped
        LSN as the restored counter floor); (4) clean old snapshots. A
        crash before (3) reopens to the old checkpoint state and
        re-subscribes from there; after (3), to the shipped cut.
        """
        relations = []
        for _ in range(int(header.get("relations", 0))):
            frame = self._recv(sock, buffer)
            if frame is None or frame.get("op") != "snap_relation":
                raise ReplicationError("snapshot stream truncated")
            relations.append(frame)
        done = self._recv(sock, buffer)
        if done is None or done.get("op") != "snap_done":
            raise ReplicationError("snapshot stream ended without snap_done")
        generation = int(header["generation"])
        lsn = int(header["lsn"])

        self.db.close()  # releases the directory lock for the rewrite
        pager = Pager(self.path)
        open(pager.wal_path, "wb").close()  # (1) drop the replaced history
        for frame in relations:  # (2)
            pager.write_snapshot(frame["name"], generation,
                                 base64.b64decode(frame["data"]))
        pager.write_manifest({  # (3)
            "format": pager_mod.FORMAT_VERSION,
            "name": header["name"],
            "generation": generation,
            "wal_lsn": lsn,
            "epoch": int(header.get("epoch", 0)),
            "time_domain": header["time_domain"],
            "relations": {
                frame["name"]: {
                    "storage": frame["storage"],
                    "options": frame["options"],
                    "scheme": frame["scheme"],
                }
                for frame in relations
            },
        })
        pager.clean_snapshots(generation)  # (4)

        # Swap the served database. Connections opened from here serve
        # the shipped cut; sessions already mid-query keep the old
        # published snapshot (immutable in memory) and finish cleanly.
        self.db = self._open_db()
        self._set_applied(generation, lsn)

    def __repr__(self) -> str:
        generation, lsn = self._applied
        state = "connected" if self._connected else "disconnected"
        return (f"ReplicaServer({self.path!r} <- "
                f"{self.primary_address[0]}:{self.primary_address[1]}, "
                f"{state}, applied {generation}/{lsn})")
