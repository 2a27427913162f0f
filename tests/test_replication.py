"""WAL-shipping replication: shipping, catch-up, routing, crash paths.

Covers the :class:`~repro.storage.wal.WALReader` tail contract (the
shipper's view of a live log), in-process primary→replica streaming
(catch-up, live apply, read-only enforcement, checkpoint/generation
switches mid-stream), snapshot bootstrap when the WAL no longer
reaches back far enough, the replica-aware routed client
(read-your-writes tokens, round-robin, fallback), per-replica lag
observability through STATUS, and the two crash properties the ISSUE
pins: a replica killed with ``kill -9`` mid-replay rejoins and
converges to a byte-identical committed cut, and a primary killed
mid-stream leaves the replica serving its last consistent snapshot —
verified with the same :class:`HistoryOracle` the concurrency stress
tests use (no torn reads, cuts monotone).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core import domains
from repro.core.errors import (FencedError, PromotionError, ReadOnlyError,
                               ReplicaLagError, StorageError,
                               TransactionError, WALError)
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.client import RoutedClient, connect
from repro.database import HistoricalDatabase
from repro.replication import ReplicaServer
from repro.server import DatabaseServer, protocol
from repro.storage.engine import encode_tuple
from repro.storage import wal as wal_mod
from repro.storage.wal import WALGapError, WALReader, WriteAheadLog

from repro.workloads.oracle import HistoryOracle

JOIN_TIMEOUT = 60.0

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _scheme(name: str = "EMP") -> RelationScheme:
    return RelationScheme(name, {
        "NAME": domains.cd(domains.STRING),
        "SALARY": domains.td(domains.INTEGER),
        "DEPT": domains.td(domains.STRING),
    }, key=["NAME"])


def _open_primary(path: str) -> HistoricalDatabase:
    db = HistoricalDatabase(path=path, sync="batch")
    db.create_relation(_scheme(), storage="disk")
    return db


def _insert(target, name: str, salary: int = 1) -> None:
    target.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": name, "SALARY": salary, "DEPT": "X"})


def _cut(catalog) -> set:
    """A relation's committed cut as its exact record encodings."""
    return {encode_tuple(t) for t in catalog["EMP"]}


def _await(predicate, timeout: float = JOIN_TIMEOUT) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached before the deadline")


# ---------------------------------------------------------------------------
# WALReader: the shipper's tail over a live log.
# ---------------------------------------------------------------------------


class TestWALReader:
    def test_delivers_each_record_exactly_once(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        reader = WALReader(path)
        assert reader.poll() == []  # nothing yet
        wal.append([wal_mod.encode_drop("A")])
        wal.append([wal_mod.encode_drop("B"), wal_mod.encode_drop("C")])
        first = reader.poll()
        assert [r.lsn for r in first] == [1, 2]
        assert first[0].decoded() == [("drop", "A")]
        assert reader.poll() == []  # exactly once
        wal.append([wal_mod.encode_drop("D")])
        assert [r.lsn for r in reader.poll()] == [3]
        wal.close()

    def test_skips_up_to_after_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        for name in "ABCD":
            wal.append([wal_mod.encode_drop(name)])
        records = WALReader(path, after_lsn=2).poll()
        assert [r.lsn for r in records] == [3, 4]
        wal.close()

    def test_partial_tail_means_wait_not_fail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        wal.close()
        complete = open(path, "rb").read()
        # Rewrite the file with a torn copy of the same frame appended:
        # an in-flight write the reader must wait out, not reject.
        with open(path, "wb") as fh:
            fh.write(complete + complete[: len(complete) - 3])
        reader = WALReader(path)
        assert [r.lsn for r in reader.poll()] == [1]
        assert reader.poll() == []  # still in flight
        with open(path, "wb") as fh:  # the write completes
            fh.write(complete + complete)
        # ...but a completed duplicate LSN is simply skipped.
        assert reader.poll() == []

    def test_lsn_gap_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append_record(0, 1, [wal_mod.encode_drop("A")])
        wal.append_record(0, 5, [wal_mod.encode_drop("B")])
        reader = WALReader(path)
        with pytest.raises(WALGapError):
            reader.poll()
        wal.close()

    def test_truncation_resets_to_head(self, tmp_path):
        """A checkpoint truncates the log; the reader rescans from 0
        and sees the post-checkpoint records (gapped LSNs surface as
        WALGapError for the shipper to answer with a snapshot)."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        wal.append([wal_mod.encode_drop("B")])
        reader = WALReader(path)
        assert len(reader.poll()) == 2
        wal.reset(generation=1)  # checkpoint: truncate, next gen
        wal.append([wal_mod.encode_drop("C")])  # lsn 3 continues
        records = reader.poll()
        assert [(r.generation, r.lsn) for r in records] == [(1, 3)]
        wal.close()

    def test_first_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        assert WALReader(path).first_lsn() is None
        wal.append([wal_mod.encode_drop("A")])
        wal.append([wal_mod.encode_drop("B")])
        assert WALReader(path).first_lsn() == 1
        wal.reset(generation=1)
        wal.append([wal_mod.encode_drop("C")])
        assert WALReader(path).first_lsn() == 3
        wal.close()

    def test_first_lsn_ignores_torn_or_corrupt_first_frame(self, tmp_path):
        """A torn or checksum-failing first frame has no trustworthy
        LSN — first_lsn must say None (snapshot handshake), not hand
        back garbage bytes parsed as an LSN."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        wal.close()
        complete = open(path, "rb").read()
        with open(path, "wb") as fh:  # torn: the payload is cut short
            fh.write(complete[:-3])
        assert WALReader(path).first_lsn() is None
        corrupt = bytearray(complete)
        corrupt[wal_mod._FRAME.size + 2] ^= 0xFF  # checksum now fails
        with open(path, "wb") as fh:
            fh.write(bytes(corrupt))
        assert WALReader(path).first_lsn() is None
        with open(path, "wb") as fh:  # intact again
            fh.write(complete)
        assert WALReader(path).first_lsn() == 1

    def test_refill_to_exact_offset_is_detected(self, tmp_path):
        """A checkpoint truncation whose follow-up appends refill the
        file to exactly the reader's old byte offset must not hide the
        new records behind the unchanged size."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        reader = WALReader(path)
        assert [r.lsn for r in reader.poll()] == [1]
        size = os.path.getsize(path)
        wal.reset(generation=1)  # checkpoint truncates...
        wal.append([wal_mod.encode_drop("A")])  # ...a same-sized refill
        assert os.path.getsize(path) == reader.offset == size
        assert [(r.generation, r.lsn) for r in reader.poll()] == [(1, 2)]
        assert reader.poll() == []  # and the identity is re-anchored
        wal.close()

    def test_mid_log_corruption_raises_walerror(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        wal.append([wal_mod.encode_drop("B")])
        wal.close()
        data = bytearray(open(path, "rb").read())
        # Flip a byte inside the FIRST record's payload: its checksum
        # fails while a complete frame follows — real corruption, not a
        # tail still landing.
        data[wal_mod._FRAME.size + 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(WALError):
            WALReader(path).poll()


# ---------------------------------------------------------------------------
# In-process end-to-end: stream, snapshot bootstrap, read-only, lag.
# ---------------------------------------------------------------------------


@pytest.fixture()
def primary(tmp_path):
    db = _open_primary(str(tmp_path / "primary"))
    with DatabaseServer(db) as server:
        yield db, server
    db.close()


class TestStreaming:
    def test_catch_up_then_live_apply(self, primary, tmp_path):
        db, server = primary
        _insert(db, "Before")
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            _insert(db, "After")
            _await(lambda: rep.applied == db._durability.position)
            with connect(*rep.address) as reader:
                assert reader.role == "replica"
                names = {t.key_value()[0] for t in reader["EMP"]}
            assert {"Before", "After"} <= names
            assert _cut(rep.db) == _cut(db)

    @pytest.mark.parametrize("commit", [True, False])
    def test_two_phase_records_stream_through_the_stash(self, primary,
                                                        tmp_path, commit):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _insert(db, "a")
            txn = db.transaction()
            _insert(txn, "b")
            txn.prepare("t1")
            _insert(db, "c")  # a disjoint commit inside the window
            _await(lambda: rep.applied == db._durability.position)
            assert rep.db.in_doubt_transactions() == ["t1"]
            assert _cut(rep.db) == _cut(db)  # "b" is visible on neither
            db.resolve_prepared("t1", commit)
            _await(lambda: rep.applied == db._durability.position)
            assert rep.db.in_doubt_transactions() == []
            assert _cut(rep.db) == _cut(db)
            assert len(_cut(db)) == (3 if commit else 2)

    def test_replica_refuses_writes(self, primary, tmp_path):
        _, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            with connect(*rep.address) as reader:
                with pytest.raises(ReadOnlyError):
                    _insert(reader, "Nope")
                with pytest.raises(ReadOnlyError):
                    reader.checkpoint()

    def test_checkpoint_mid_stream_mirrors_generation(self, primary,
                                                      tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _insert(db, "One")
            db.checkpoint()
            _insert(db, "Two")
            _await(lambda: rep.applied == db._durability.position)
            assert rep.applied[0] == db._durability.generation > 0
            assert _cut(rep.db) == _cut(db)

    def test_lag_metrics_via_status(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address,
                           replica_id="lag-probe") as rep:
            _insert(db, "Row")
            _await(lambda: rep.applied == db._durability.position)
            with connect(*server.address) as c:
                _await(lambda: any(
                    r["id"] == "lag-probe" and r["connected"] and
                    r["records_behind"] == 0
                    for r in c.status()["replicas"]))
                row = [r for r in c.status()["replicas"]
                       if r["id"] == "lag-probe"][0]
            assert row["mode"] in ("stream", "snapshot")
            assert row["applied_lsn"] == db._durability.position[1]
            assert row["bytes_behind"] == 0
            assert row["seconds_since_ack"] is not None
            with connect(*rep.address) as c:
                mine = c.status()["replica"]
            assert mine["connected"] is True
            assert mine["applied_lsn"] == db._durability.position[1]

    def test_registry_survives_disconnect(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address,
                           replica_id="comes-and-goes") as rep:
            _await(lambda: rep.applied == db._durability.position)
        # The replica is gone; its lag row remains, marked disconnected.
        _insert(db, "While-away")
        with connect(*server.address) as c:
            _await(lambda: any(
                r["id"] == "comes-and-goes" and not r["connected"]
                for r in c.status()["replicas"]))
            row = [r for r in c.status()["replicas"]
                   if r["id"] == "comes-and-goes"][0]
            assert row["records_behind"] >= 1


class TestSnapshotBootstrap:
    def test_fresh_replica_after_checkpoint_bootstraps(self, primary,
                                                       tmp_path):
        db, server = primary
        _insert(db, "Old")
        db.checkpoint()  # truncates the WAL: streaming from 0 impossible
        _insert(db, "New")
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            assert _cut(rep.db) == _cut(db)

    @pytest.mark.parametrize("commit", [True, False])
    def test_bootstrap_waits_out_an_in_doubt_window(self, primary, tmp_path,
                                                    commit):
        """A snapshot's position would already cover the PREPARE record,
        so the replica could never apply its decision: the primary
        refuses the snapshot (as it refuses a checkpoint) and the
        replica's sync loop retries until the window closes."""
        db, server = primary
        _insert(db, "a")
        db.checkpoint()  # a fresh replica must bootstrap from a snapshot
        txn = db.transaction()
        _insert(txn, "b")
        txn.prepare("t1")
        with ReplicaServer(str(tmp_path / "replica"), server.address,
                           backoff_cap=0.1) as rep:
            _await(lambda: "prepared two-phase" in str(
                rep._status_extra()["replica"]["last_error"]), timeout=20)
            assert len(rep.db.relations()) == 0  # nothing installed yet
            db.resolve_prepared("t1", commit)
            _insert(db, "c")
            _await(lambda: rep.applied == db._durability.position)
            assert _cut(rep.db) == _cut(db)
            assert len(_cut(db)) == (3 if commit else 2)

    def test_rejoin_across_missed_checkpoints(self, primary, tmp_path):
        db, server = primary
        path = str(tmp_path / "replica")
        with ReplicaServer(path, server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
        # Replica offline while the primary checkpoints repeatedly: its
        # resume LSN predates the WAL head, forcing a snapshot rejoin.
        for i in range(3):
            _insert(db, f"Missed{i}")
            db.checkpoint()
        with ReplicaServer(path, server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            assert rep.applied == db._durability.position
            assert _cut(rep.db) == _cut(db)
        # The installed snapshot is durable: a cold reopen of the
        # replica directory recovers the identical cut.
        reopened = HistoricalDatabase(path=path)
        try:
            assert _cut(reopened) == _cut(db)
            assert reopened._durability.position == db._durability.position
        finally:
            reopened.close()

    def test_replica_reconnects_after_primary_restart(self, tmp_path):
        db = _open_primary(str(tmp_path / "primary"))
        server = DatabaseServer(db)
        server.start()
        _insert(db, "First")
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            address = server.address
            server.stop()
            db.close()
            # The replica is now retrying with backoff. Bring the
            # primary back on the same port with more history.
            db = HistoricalDatabase(path=str(tmp_path / "primary"),
                                    sync="batch")
            _insert(db, "Second")
            server = DatabaseServer(db, host=address[0], port=address[1])
            server.start()
            try:
                _await(lambda: rep.applied == db._durability.position)
                assert _cut(rep.db) == _cut(db)
            finally:
                server.stop()
                db.close()


# ---------------------------------------------------------------------------
# Robustness regressions: backpressure, malformed frames, db swaps.
# ---------------------------------------------------------------------------


class TestShipperBackpressure:
    def test_slow_subscriber_survives_large_frame(self, primary):
        """Shipper sends run under a generous timeout: a WAL burst
        larger than the kernel's socket buffers to a momentarily
        stalled subscriber must arrive whole, not be cut off by the
        50ms ack-drain window."""
        db, server = primary
        sock = socket.socket()
        # A tiny receive buffer (set before connect so the window
        # scales accordingly) plus a read stall backpressures the
        # primary's sendall mid-frame.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.connect(server.address)
        sock.settimeout(JOIN_TIMEOUT)  # fail, don't hang, if it breaks
        try:
            buffer = bytearray()
            generation, lsn = db._durability.position
            protocol.send_frame(sock, {
                "op": "subscribe", "replica": "slow-test",
                "generation": generation, "lsn": lsn})
            handshake = protocol.recv_frame(sock, buffer)
            assert handshake["ok"] and handshake["mode"] == "stream"
            big = "x" * (12 * 1024 * 1024)  # > tcp_wmem max + rcvbuf
            db.insert("EMP", Lifespan.interval(0, 9),
                      {"NAME": "Slow", "SALARY": 1, "DEPT": big})
            time.sleep(0.5)  # stall while the shipper is mid-sendall
            while True:
                frame = protocol.recv_frame(sock, buffer)
                assert frame is not None, "subscription was dropped"
                if frame.get("op") == "wal" and frame["lsn"] > lsn:
                    break
            assert sum(len(op) for op in frame["ops"]) > len(big)
        finally:
            sock.close()


class TestSyncLoopResilience:
    def test_malformed_frame_does_not_kill_sync_thread(self, tmp_path):
        """A stream frame missing its fields (KeyError territory) must
        not escape the sync loop: the replica records the error and
        keeps reconnecting instead of silently serving ever-staler
        reads from a dead thread."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)

        def fake_primary():
            conn, _ = listener.accept()
            buf = bytearray()
            protocol.recv_frame(conn, buf)  # the SUBSCRIBE
            protocol.send_frame(conn, {"ok": True, "mode": "stream",
                                       "generation": 0, "lsn": 0})
            protocol.send_frame(conn, {"op": "wal"})  # no fields at all
            conn.close()

        threading.Thread(target=fake_primary, daemon=True).start()
        replica = ReplicaServer(str(tmp_path / "replica"),
                                listener.getsockname())
        replica.start()
        try:
            _await(lambda: replica._last_error is not None
                   and "KeyError" in replica._last_error)
            assert replica._thread.is_alive()  # the backoff loop lives
        finally:
            replica.stop()
            listener.close()


class TestServedDatabaseSwap:
    """A long-lived connection follows a ``server.db`` replacement.

    The replica snapshot-resync path
    (:meth:`ReplicaServer._install_snapshot`) closes the served
    database and swaps in a fresh instance; a connection that cached
    the old one would keep serving a closed, frozen catalog while
    read-your-writes waits are satisfied against the *new* applied
    LSN — silently breaking the guarantee.
    """

    def test_connection_follows_swap_and_rebinds_prepared(self, tmp_path):
        old = _open_primary(str(tmp_path / "old"))
        _insert(old, "Old")
        new = _open_primary(str(tmp_path / "new"))
        _insert(new, "New", salary=7)
        server = DatabaseServer(old)
        server.start()
        try:
            q = "SELECT IF SALARY >= 0 IN EMP"
            with connect(*server.address) as session:
                assert _cut({"EMP": session.query(q).relation}) == _cut(old)
                prepared = session.prepare(q)
                assert len(prepared.query().relation) == 1
                old.close()
                server.db = new  # what _install_snapshot does
                # The same connection now serves the new catalog...
                assert _cut({"EMP": session.query(q).relation}) == _cut(new)
                # ...and prepared statements are re-bound to it rather
                # than silently answering from the replaced instance.
                fresh = prepared.query().relation
                assert _cut({"EMP": fresh}) == _cut(new)
        finally:
            server.stop()
            new.close()

    def test_open_transaction_refused_after_swap(self, tmp_path):
        old = _open_primary(str(tmp_path / "old"))
        new = _open_primary(str(tmp_path / "new"))
        server = DatabaseServer(old)
        server.start()
        try:
            with connect(*server.address) as session:
                txn = session.transaction()
                _insert(txn, "Buffered")
                old.close()
                server.db = new
                with pytest.raises(TransactionError):
                    _insert(txn, "MoreBuffered")
                # The session is free again: a new transaction runs
                # against the new database.
                fresh = session.transaction()
                _insert(fresh, "Fresh")
                fresh.commit()
                assert len(new.relations()["EMP"]) == 1
        finally:
            server.stop()
            new.close()


# ---------------------------------------------------------------------------
# The routed client: read-your-writes, round-robin, fallback.
# ---------------------------------------------------------------------------


class TestRoutedClient:
    def test_connect_with_replicas_routes(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1, \
                ReplicaServer(str(tmp_path / "r2"), server.address) as r2:
            routed = connect(server.address,
                             replicas=[r1.address, r2.address])
            assert isinstance(routed, RoutedClient)
            try:
                _insert(routed, "Mine")
                assert routed.last_commit_lsn > 0
                # Read-your-writes: the very next read (a replica read)
                # must include the acknowledged write.
                names = {t.key_value()[0]
                         for t in routed.query("SELECT WHEN SALARY >= 0 "
                                               "DURING [0, 9] IN EMP")}
                assert "Mine" in names
                # Catalog reads route too, with the same token.
                assert "EMP" in routed
                assert routed.storage("EMP") == "disk"
            finally:
                routed.close()

    def test_reads_fall_back_past_dead_replica(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1:
            routed = connect(server.address, replicas=[r1.address])
            try:
                _insert(routed, "Kept")
                r1.stop()
                for _ in range(3):  # every read survives the dead replica
                    names = {t.key_value()[0]
                             for t in routed.relation("EMP")}
                    assert "Kept" in names
            finally:
                routed.close()

    def test_lagging_replica_raises_then_routed_falls_back(
            self, primary, tmp_path):
        db, server = primary
        _insert(db, "Committed")
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1:
            _await(lambda: r1.applied == db._durability.position)
            with connect(*r1.address) as direct:
                # A token from the future: the replica can never cover
                # it, so the direct read times out retryably...
                with pytest.raises(ReplicaLagError) as info:
                    direct.query("SELECT WHEN SALARY >= 0 IN EMP",
                                 wait_lsn=10_000, wait_timeout=0.05)
                assert info.value.retryable is True
            # ...while a routed read just falls back to the primary.
            routed = connect(server.address, replicas=[r1.address],
                             replica_wait=0.05)
            try:
                routed.primary.last_commit_lsn = 10_000
                assert routed.query("SELECT WHEN SALARY >= 0 IN EMP").rows()
            finally:
                routed.close()

    def test_round_robin_alternates(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1, \
                ReplicaServer(str(tmp_path / "r2"), server.address) as r2:
            routed = connect(server.address,
                             replicas=[r1.address, r2.address])
            try:
                targets = [routed._read_targets().__next__()._address
                           for _ in range(4)]
                assert targets[0] != targets[1]  # alternating
                assert targets[0] == targets[2]
            finally:
                routed.close()

    def test_prepared_statements_route(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1:
            routed = connect(server.address, replicas=[r1.address])
            try:
                _insert(routed, "Prep")
                prepared = routed.prepare(
                    "SELECT WHEN SALARY >= :m DURING [0, 9] IN EMP")
                assert prepared.param_names == ("m",)
                names = {t.key_value()[0]
                         for t in prepared.query({"m": 0})}
                assert "Prep" in names
            finally:
                routed.close()

    def test_rediscover_bounds_probes_to_silent_nodes(self, primary):
        """A node that accepts the TCP connection but never answers
        must not hang rediscovery. The routed client here has no
        timeout of its own (the default), so each probe must fall back
        to the module's own probe timeout instead of inheriting
        block-forever semantics from the client."""
        db, server = primary
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)  # connections establish; no reply ever comes
        try:
            routed = connect(server.address,
                             replicas=[silent.getsockname()])
            try:
                assert routed._timeout is None  # the dangerous default
                outcome: list[bool] = []
                prober = threading.Thread(
                    target=lambda: outcome.append(routed.rediscover()),
                    daemon=True)
                prober.start()
                prober.join(30)
                assert not prober.is_alive(), \
                    "rediscover hung probing a silent node"
                assert outcome == [True]  # the live primary still won
                assert routed.primary._address == server.address
            finally:
                routed.close()
        finally:
            silent.close()

    def test_transactions_go_to_the_primary(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "r1"), server.address) as r1:
            routed = connect(server.address, replicas=[r1.address])
            try:
                def body(txn):
                    _insert(txn, "InTxn")
                    return "ran"
                assert routed.run_transaction(body) == "ran"
                names = {t.key_value()[0]
                         for t in routed.relation("EMP")}
                assert "InTxn" in names
            finally:
                routed.close()


# ---------------------------------------------------------------------------
# Crash paths: real processes, kill -9, oracle-checked reads.
# ---------------------------------------------------------------------------


def _spawn(args: list[str], marker: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, env=env)
    assert process.stdout is not None
    line = process.stdout.readline()
    assert marker in line, f"process failed to start: {line!r}"
    return process, int(line.rsplit(":", 1)[1])


def _spawn_primary(path: str) -> tuple[subprocess.Popen, int]:
    return _spawn(["-m", "repro.server", path, "--port", "0",
                   "--sync", "always"], "listening on")


def _spawn_replica(path: str, primary_port: int,
                   replica_id: str = "crash-replica"
                   ) -> tuple[subprocess.Popen, int]:
    return _spawn(["-m", "repro.replication", path,
                   "--primary", f"127.0.0.1:{primary_port}",
                   "--port", "0", "--replica-id", replica_id,
                   "--sync", "always"], "listening on")


def _kill9(process: subprocess.Popen) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)


def _applied_lsn(port: int) -> int:
    with connect("127.0.0.1", port, timeout=10.0) as c:
        return c.status()["replica"]["applied_lsn"]


class TestCrashPaths:
    def _seed(self, path: str) -> None:
        seed = HistoricalDatabase(path=path)
        seed.create_relation(_scheme(), storage="disk")
        seed.close()

    def test_kill9_replica_rejoins_byte_identical(self, tmp_path):
        primary_path = str(tmp_path / "primary")
        replica_path = str(tmp_path / "replica")
        self._seed(primary_path)
        primary, pport = _spawn_primary(primary_path)
        try:
            replica, rport = _spawn_replica(replica_path, pport)
            writer = connect("127.0.0.1", pport, timeout=10.0)
            for i in range(40):
                _insert(writer, f"N{i:04d}", i)
            # Kill the replica the instant it is mid-replay (applied > 0
            # but, likely, short of the primary).
            _await(lambda: _applied_lsn(rport) > 0)
            _kill9(replica)

            # More history while it is down — across a checkpoint, so
            # rejoin may need the snapshot path, not just the stream.
            for i in range(40, 60):
                _insert(writer, f"N{i:04d}", i)
            writer.checkpoint()
            for i in range(60, 70):
                _insert(writer, f"N{i:04d}", i)

            replica, rport = _spawn_replica(replica_path, pport)
            expected = _cut(writer)

            def converged() -> bool:
                with connect("127.0.0.1", rport, timeout=10.0) as c:
                    return _cut(c) == expected

            _await(converged)
            with connect("127.0.0.1", rport, timeout=10.0) as c:
                assert _cut(c) == expected  # byte-identical commit cut
                assert len(c["EMP"]) == 70
            writer.close()
            _kill9(replica)
        finally:
            primary.kill()
            primary.wait(timeout=30)

    def test_kill9_primary_replica_serves_last_snapshot(self, tmp_path):
        primary_path = str(tmp_path / "primary")
        self._seed(primary_path)
        primary, pport = _spawn_primary(primary_path)
        replica, rport = _spawn_replica(str(tmp_path / "replica"), pport)
        oracle = HistoryOracle()
        stop_reading = threading.Event()
        read_errors: list[Exception] = []

        def read_loop():
            try:
                with connect("127.0.0.1", rport, timeout=10.0) as c:
                    while not stop_reading.is_set():
                        cut = {t.key_value()[0] for t in c["EMP"]}
                        oracle.observed("replica-reader", {"EMP": cut})
                        time.sleep(0.01)
            except Exception as exc:  # must never happen
                read_errors.append(exc)

        try:
            writer = connect("127.0.0.1", pport, timeout=10.0)
            # Wait for the replica to apply the seed CREATE before
            # reading EMP from it.
            _await(lambda: _applied_lsn(rport) >= 1)
            reader = threading.Thread(target=read_loop, daemon=True)
            reader.start()
            try:
                for i in range(10_000):  # the kill ends the loop
                    name = f"W{i:05d}"
                    oracle.begin_commit("writer", {"EMP": {name}})
                    try:
                        _insert(writer, name, i)
                    except (StorageError, OSError):
                        oracle.aborted("writer")
                        break
                    oracle.committed("writer")
                    if i == 30:  # mid-stream, with the burst running:
                        _kill9(primary)
            finally:
                writer.close()

            # The primary is gone; the replica keeps serving reads of
            # its last applied cut, flagging the lost link in STATUS.
            settled: list[set] = []
            for _ in range(5):
                with connect("127.0.0.1", rport, timeout=10.0) as c:
                    settled.append({t.key_value()[0] for t in c["EMP"]})
                    oracle.observed("replica-reader",
                                    {"EMP": settled[-1]})
            assert all(cut == settled[0] for cut in settled)
            with connect("127.0.0.1", rport, timeout=10.0) as c:
                _await(lambda: c.status()["replica"]["connected"] is False,
                       timeout=30)
            stop_reading.set()
            reader.join(JOIN_TIMEOUT)
            assert not read_errors, read_errors
            # No observation may contain a torn or uncommitted write,
            # and successive cuts must be monotone.
            oracle.verify()
            _kill9(replica)
        finally:
            for process in (primary, replica):
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)


# ---------------------------------------------------------------------------
# Reconnect backoff: exponential with jitter, capped.
# ---------------------------------------------------------------------------


class TestBackoffJitter:
    def test_draws_live_in_the_half_to_full_band(self):
        import random as random_mod

        from repro.replication.replica import jittered_backoff

        rng = random_mod.Random(11)
        draws = [jittered_backoff(1.0, 5.0, rng) for _ in range(500)]
        assert all(0.5 <= d <= 1.0 for d in draws)
        # Jitter actually spreads the draws (not a constant sleep).
        assert max(draws) - min(draws) > 0.3

    def test_cap_bounds_the_sleep(self):
        import random as random_mod

        from repro.replication.replica import jittered_backoff

        rng = random_mod.Random(11)
        assert all(jittered_backoff(80.0, 2.5, rng) <= 2.5
                   for _ in range(100))

    def test_seeded_rng_is_deterministic(self):
        import random as random_mod

        from repro.replication.replica import jittered_backoff

        a = [jittered_backoff(0.3, 5.0, random_mod.Random(3))
             for _ in range(5)]
        b = [jittered_backoff(0.3, 5.0, random_mod.Random(3))
             for _ in range(5)]
        assert a == b

    def test_replica_backoff_knobs_are_plumbed(self, tmp_path):
        # No primary at this address: the sync loop lives in backoff.
        rep = ReplicaServer(str(tmp_path / "r"), ("127.0.0.1", 1),
                            backoff_min=0.01, backoff_cap=0.05,
                            backoff_seed=9)
        assert rep._backoff_min == 0.01
        assert rep._backoff_cap == 0.05
        rep.stop()


# ---------------------------------------------------------------------------
# Fenced failover: promote, epoch fencing, rejoin, routed rediscovery.
# ---------------------------------------------------------------------------


class TestFailover:
    def test_promote_bumps_epoch_and_accepts_writes(self, primary, tmp_path):
        db, server = primary
        _insert(db, "Before")
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            epoch = rep.promote()
            assert epoch == 1
            assert rep.db._durability.epoch == 1
            with connect(*rep.address) as session:
                assert session.role == "primary"
                _insert(session, "AfterPromote")
                names = {t.key_value()[0] for t in session["EMP"]}
            assert {"Before", "AfterPromote"} <= names

    def test_promote_twice_raises(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            rep.promote()
            with pytest.raises(PromotionError):
                rep.promote()

    def test_promote_over_the_wire(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            with connect(*rep.address) as session:
                epoch = session.promote()
                assert epoch == 1
                assert session.status()["role"] == "primary"
                _insert(session, "ViaWire")

    def test_promote_refused_without_a_promoter(self, primary):
        _, server = primary
        with connect(*server.address) as session:
            with pytest.raises(PromotionError):
                session.promote()

    def test_epoch_travels_in_status_and_hello(self, primary, tmp_path):
        db, server = primary
        with ReplicaServer(str(tmp_path / "replica"), server.address) as rep:
            _await(lambda: rep.applied == db._durability.position)
            rep.promote()
            with connect(*rep.address) as session:
                assert session.cluster_epoch == 1
                assert session.status()["epoch"] == 1

    def test_fenced_primary_refuses_writes_keeps_reads(self, primary):
        db, server = primary
        _insert(db, "Pre")
        server.fence()
        with connect(*server.address) as session:
            with pytest.raises(FencedError) as info:
                _insert(session, "Blocked")
            assert info.value.retryable
            # Reads still work on a fenced node.
            assert {t.key_value()[0] for t in session["EMP"]} == {"Pre"}
        assert server.fenced

    def test_old_primary_is_fenced_by_promoted_subscriber(self, tmp_path):
        """A stale primary hears the higher epoch and fences itself."""
        db = _open_primary(str(tmp_path / "primary"))
        server = DatabaseServer(db)
        server.start()
        try:
            _insert(db, "Shared")
            with ReplicaServer(str(tmp_path / "replica"),
                               server.address) as rep:
                _await(lambda: rep.applied == db._durability.position)
                rep.promote()
                assert not server.fenced
                # The promoted node (epoch 1) dials the stale primary
                # (epoch 0) as a subscriber; the handshake fences it.
                rep._connected = False
                try:
                    rep._sync_once()
                except Exception:
                    pass  # the refused handshake is the point
                _await(lambda: server.fenced)
                with connect(*server.address) as session:
                    with pytest.raises(FencedError):
                        _insert(session, "TooLate")
        finally:
            server.stop()
            if not db.closed:
                db.close()

    def test_demoted_primary_rejoins_via_snapshot_resync(self, tmp_path):
        """The loser's divergent suffix is truncated onto the new timeline."""
        db = _open_primary(str(tmp_path / "a"))
        server = DatabaseServer(db)
        server.start()
        _insert(db, "Shared")
        rep = ReplicaServer(str(tmp_path / "b"), server.address)
        rep.start()
        try:
            _await(lambda: rep.applied == db._durability.position)
            new_epoch = rep.promote()
            # The old primary keeps committing on its now-dead timeline.
            _insert(db, "LostDivergence")
            server.stop()
            db.close()
            # Meanwhile the new primary commits under the new epoch.
            with connect(*rep.address) as session:
                _insert(session, "NewTimeline")
            # The demoted node comes back *as a replica of the winner*.
            old = ReplicaServer(str(tmp_path / "a"), rep.address,
                                replica_id="demoted")
            old.start()
            try:
                # rep.applied froze at promotion (the promoted node now
                # *commits*); chase its durable position instead.
                _await(lambda: old.applied == rep.db._durability.position
                       and old.db._durability.epoch == new_epoch)
                names = {t.key_value()[0] for t in old.db["EMP"]}
                assert names == {"Shared", "NewTimeline"}
                assert "LostDivergence" not in names  # truncated away
            finally:
                old.stop()
        finally:
            rep.stop()
            if not db.closed:
                db.close()

    def test_routed_client_rediscovers_after_promote(self, tmp_path):
        db = _open_primary(str(tmp_path / "primary"))
        server = DatabaseServer(db)
        server.start()
        rep = ReplicaServer(str(tmp_path / "replica"), server.address)
        rep.start()
        try:
            _await(lambda: rep.applied == db._durability.position)
            with connect(server.address,
                         replicas=[rep.address]) as session:
                _insert(session, "BeforeFailover")
                # Fenced failover: fence, wait, stop, promote.
                from repro.workloads.chaos import fail_over

                fail_over(server, db, rep)
                # The next write hits the dead primary, fails over via
                # rediscovery, and lands on the promoted node.
                _insert(session, "AfterFailover")
                host, port = session.primary._address
                assert (host, port) == rep.address
                names = {t.key_value()[0] for t in session["EMP"]}
                assert {"BeforeFailover", "AfterFailover"} <= names
        finally:
            rep.stop()
            if not db.closed:
                db.close()
