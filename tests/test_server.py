"""The database service: wire protocol, client library, crash safety.

Covers the protocol primitives, embedded-vs-remote parity of the
client API (typed results decode to the *same* model objects), the
8-client concurrent smoke workload the CI ``server-smoke`` job runs,
the kill -9 mid-commit-burst recovery property (the PR-3 torn-tail
contract, now exercised through a real server process — including a
variant where the burst is *conflicting* concurrent transactions),
first-committer-wins conflicts crossing the wire as the typed,
retryable :class:`ConflictError` (checked against the
:class:`HistoryOracle` snapshot-isolation oracle shared with the
embedded stress tests), and the HRQL
shell's ``\\connect`` / ``\\timing`` commands — including the
acceptance bar that one session script renders identically against an
embedded catalog and a connected server.
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
from repro.core.errors import (BindError, ConflictError, HRDMError,
                               RelationError, StorageError, TransactionError)
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.database import HistoricalDatabase
from repro.client import Client, connect
from repro.server import DatabaseServer, protocol

from repro.workloads.oracle import HistoryOracle

JOIN_TIMEOUT = 60.0

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _scheme(name: str = "EMP") -> RelationScheme:
    return RelationScheme(name, {
        "NAME": domains.cd(domains.STRING),
        "SALARY": domains.td(domains.INTEGER),
        "DEPT": domains.td(domains.STRING),
    }, key=["NAME"])


def _populate(db) -> None:
    db.insert("EMP", Lifespan.interval(0, 9),
              {"NAME": "John", "SALARY": 25_000, "DEPT": "Toys"})
    db.insert("EMP", Lifespan((0, 3), (6, 9)),
              {"NAME": "Mary", "SALARY": 40_000, "DEPT": "Books"})
    db.insert("EMP", Lifespan.interval(2, 4),
              {"NAME": "Tom", "SALARY": 20_000, "DEPT": "Toys"})


@pytest.fixture()
def db() -> HistoricalDatabase:
    database = HistoricalDatabase("served")
    database.create_relation(_scheme(), storage="disk")
    _populate(database)
    return database


@pytest.fixture()
def server(db):
    with DatabaseServer(db) as running:
        yield running


@pytest.fixture()
def client(server):
    session = connect(*server.address)
    yield session
    session.close()


# ---------------------------------------------------------------------------
# Protocol primitives.
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"op": "hello", "n": 42})
            assert protocol.recv_frame(b, bytearray()) == {"op": "hello",
                                                           "n": 42}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b, bytearray()) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff partial")
            a.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b, bytearray())
        finally:
            b.close()

    def test_oversized_frame_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b, bytearray())
        finally:
            a.close()
            b.close()

    def test_lifespan_roundtrip(self):
        ls = Lifespan((0, 3), (6, 9))
        assert protocol.lifespan_from_wire(protocol.lifespan_to_wire(ls)) == ls

    def test_tuple_and_relation_roundtrip(self):
        scheme = _scheme()
        t = HistoricalTuple.build(scheme, Lifespan.interval(0, 5),
                                  {"NAME": "Ada", "SALARY": 1, "DEPT": "X"})
        assert protocol.tuple_from_wire(protocol.tuple_to_wire(t), scheme) == t
        from repro.core.relation import HistoricalRelation

        relation = HistoricalRelation(scheme, [t])
        wired = protocol.relation_from_wire(protocol.relation_to_wire(relation))
        assert wired == relation

    def test_values_from_wire_restores_point_mappings(self):
        values = protocol.values_from_wire(
            {"SALARY": {"0": 10, "5": 20}, "DEPT": "Toys"})
        assert values == {"SALARY": {0: 10, 5: 20}, "DEPT": "Toys"}

    def test_error_mapping_prefers_exact_class(self):
        exc = protocol.error_from_wire(
            {"error": "RelationError", "message": "boom"})
        assert type(exc) is RelationError and str(exc) == "boom"

    def test_error_mapping_survives_unknown_class(self):
        exc = protocol.error_from_wire({"error": "Nope", "message": "m"})
        assert isinstance(exc, HRDMError) and "m" in str(exc)


# ---------------------------------------------------------------------------
# Client API ↔ embedded parity.
# ---------------------------------------------------------------------------


class TestClientParity:
    def test_hello_metadata(self, client, db):
        assert client.name == db.name
        assert client.durable is False
        assert client.remote is True

    def test_relation_query_equals_embedded(self, client, db):
        q = "SELECT IF SALARY >= 21000 IN EMP"
        remote = client.query(q)
        embedded = db.query(q)
        assert remote.kind == "relation"
        assert remote.relation == embedded.relation
        assert remote == embedded  # delegating equality, both directions

    def test_bind_parameters(self, client, db):
        q = "SELECT WHEN SALARY >= :min IN EMP"
        assert (client.query(q, {"min": 30_000}).relation
                == db.query(q, {"min": 30_000}).relation)
        with pytest.raises(BindError):
            client.query(q)

    def test_when_query_returns_lifespan(self, client, db):
        q = "WHEN (SELECT WHEN DEPT = 'Toys' IN EMP)"
        assert client.query(q).lifespan == db.query(q).lifespan

    def test_explain_text_is_server_rendered(self, client, db):
        q = "EXPLAIN TIMESLICE EMP TO [2, 4]"
        remote = client.query(q)
        assert remote.kind == "plan"
        # The header embeds the measured planning time; normalize it.
        import re

        def stable(text: str) -> str:
            return re.sub(r"planning [0-9.]+ ms", "planning - ms", text)

        assert stable(remote.explanation.text) == stable(
            db.query(q).explanation.text)
        assert str(remote) == remote.explanation.text

    def test_typed_result_guards(self, client):
        result = client.query("SELECT IF SALARY >= 0 IN EMP")
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            result.lifespan
        assert result.rows() and len(result) == len(result.rows())
        assert result.snapshot(2)

    def test_mutations_return_embedded_equal_tuples(self, client, db):
        t = client.insert("EMP", Lifespan.interval(0, 9),
                          {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Maths"})
        assert t == db["EMP"].get("Ada")
        t = client.update("EMP", ("Ada",), 5, {"SALARY": 60_000})
        assert t.value("SALARY")(7) == 60_000
        t = client.terminate("EMP", ("Ada",), 8)
        assert t.lifespan == Lifespan.interval(0, 7)
        t = client.reincarnate("EMP", ("Ada",), Lifespan.interval(20, 29),
                               {"NAME": "Ada", "SALARY": 70_000,
                                "DEPT": "Maths"})
        assert t.lifespan == Lifespan((0, 7), (20, 29))
        assert db["EMP"].get("Ada") == t

    def test_point_mapping_values(self, client, db):
        # A dict value is the build() convention: sparse {chronon: value}
        # points — identical embedded and over the wire.
        client.insert("EMP", Lifespan.interval(0, 9),
                      {"NAME": "Step", "SALARY": {0: 10, 5: 20},
                       "DEPT": "X"})
        stored = db["EMP"].get("Step")
        assert stored.value("SALARY")(0) == 10
        assert stored.value("SALARY")(5) == 20
        from repro.core.errors import UndefinedAtTimeError

        with pytest.raises(UndefinedAtTimeError):
            stored.value("SALARY")(7)

    def test_ddl_create_drop(self, client, db):
        extra = _scheme("EXTRA")
        client.create_relation(extra, storage="memory")
        assert "EXTRA" in db
        assert client.storage("EXTRA") == "memory"
        client.drop_relation("EXTRA")
        assert "EXTRA" not in db

    def test_evolve_scheme(self, client, db):
        evolved = RelationScheme("EMP", {
            "NAME": domains.cd(domains.STRING),
            "SALARY": domains.td(domains.INTEGER),
            "DEPT": domains.td(domains.STRING),
            "OFFICE": domains.td(domains.STRING),
        }, key=["NAME"])
        client.evolve_scheme("EMP", evolved)
        assert "OFFICE" in db.scheme("EMP")

    def test_errors_cross_the_wire_typed(self, client):
        with pytest.raises(RelationError):
            client.insert("NOPE", Lifespan.interval(0, 1), {"NAME": "x"})
        with pytest.raises(RelationError):
            client.insert("EMP", Lifespan.interval(0, 9),
                          {"NAME": "John", "SALARY": 1, "DEPT": "X"})

    def test_catalog_introspection(self, client, db):
        assert set(client) == set(db)
        assert len(client) == len(db)
        assert "EMP" in client and "NOPE" not in client
        assert client["EMP"] == db["EMP"].to_relation()
        (info,) = client.relations_info()
        assert info["name"] == "EMP" and info["n_tuples"] == len(db["EMP"])
        assert info["storage"] == "disk"
        assert info["lifespan"] == db["EMP"].lifespan()

    def test_prepared_statements(self, client, db):
        prepared = client.prepare("SELECT IF SALARY >= :min IN EMP")
        assert prepared.param_names == ("min",)
        for threshold in (10_000, 30_000):
            assert (prepared.query({"min": threshold}).relation
                    == db.query("SELECT IF SALARY >= :min IN EMP",
                                {"min": threshold}).relation)

    def test_transaction_commit(self, client, db):
        before = len(db["EMP"])
        with client.transaction() as txn:
            txn.insert("EMP", Lifespan.interval(0, 9),
                       {"NAME": "T1", "SALARY": 1, "DEPT": "X"})
            txn.insert("EMP", Lifespan.interval(0, 9),
                       {"NAME": "T2", "SALARY": 2, "DEPT": "X"})
            assert len(db["EMP"]) == before  # still buffered server-side
        assert len(db["EMP"]) == before + 2

    def test_transaction_rollback_on_exception(self, client, db):
        before = len(db["EMP"])
        with pytest.raises(ValueError):
            with client.transaction() as txn:
                txn.insert("EMP", Lifespan.interval(0, 9),
                           {"NAME": "Gone", "SALARY": 1, "DEPT": "X"})
                raise ValueError("abort")
        assert len(db["EMP"]) == before
        assert db["EMP"].get("Gone") is None

    def test_nested_begin_refused(self, client):
        with client.transaction():
            with pytest.raises(TransactionError):
                client.request({"op": "begin"})

    def test_commit_without_begin_refused(self, client):
        with pytest.raises(TransactionError):
            client.request({"op": "commit"})

    def test_dropped_connection_rolls_back(self, server, db):
        before = len(db["EMP"])
        other = connect(*server.address)
        other.transaction().insert(
            "EMP", Lifespan.interval(0, 9),
            {"NAME": "Lost", "SALARY": 1, "DEPT": "X"})
        other.close()
        deadline = time.time() + JOIN_TIMEOUT
        while len(db["EMP"]) != before and time.time() < deadline:
            time.sleep(0.02)
        assert len(db["EMP"]) == before

    def test_unknown_op_is_an_error_not_a_disconnect(self, client):
        with pytest.raises(StorageError):
            client.request({"op": "frobnicate"})
        assert client.query("SELECT IF SALARY >= 0 IN EMP").rows()

    def test_closed_client_refuses_requests(self, server):
        session = connect(*server.address)
        session.close()
        with pytest.raises(StorageError):
            session.query("SELECT IF SALARY >= 0 IN EMP")

    def test_client_timeout_fires_against_a_stalled_server(self):
        """connect(timeout=...) bounds the round trip: a listener that
        never answers yields StorageError, not an infinite hang."""
        stalled = socket.socket()
        stalled.bind(("127.0.0.1", 0))
        stalled.listen(1)
        try:
            started = time.time()
            with pytest.raises(StorageError):
                connect(*stalled.getsockname(), timeout=0.5)
            assert time.time() - started < JOIN_TIMEOUT / 2
        finally:
            stalled.close()

    def test_connect_address_forms(self, server):
        host, port = server.address
        for session in (connect(f"{host}:{port}"), connect(host, port),
                        connect((host, port))):
            assert session.name == "served"
            session.close()
        with pytest.raises(StorageError):
            connect("no-port-given")


# ---------------------------------------------------------------------------
# A durable database behind the server.
# ---------------------------------------------------------------------------


class TestDurableService:
    def test_checkpoint_and_flush_over_the_wire(self, tmp_path):
        db = HistoricalDatabase(path=str(tmp_path / "db"), sync="batch")
        db.create_relation(_scheme(), storage="disk")
        with DatabaseServer(db) as server:
            session = connect(*server.address)
            assert session.durable is True
            session.insert("EMP", Lifespan.interval(0, 9),
                           {"NAME": "D1", "SALARY": 1, "DEPT": "X"})
            session.flush()
            generation = session.checkpoint()
            assert generation == 1
            session.close()
        db.close()
        reopened = HistoricalDatabase(path=str(tmp_path / "db"))
        try:
            assert reopened["EMP"].get("D1") is not None
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Concurrent clients (the CI server-smoke workload).
# ---------------------------------------------------------------------------


class TestConcurrentClients:
    N_CLIENTS = 8
    OPS_PER_CLIENT = 30

    def test_mixed_workload_8_clients(self, server, db):
        failures: list[str] = []

        def worker(worker_id: int):
            try:
                session = connect(*server.address)
                prepared = session.prepare("SELECT IF SALARY >= :min IN EMP")
                for i in range(self.OPS_PER_CLIENT):
                    if i % 3 == 0:  # write
                        session.insert(
                            "EMP", Lifespan.interval(0, 9),
                            {"NAME": f"W{worker_id}-{i}",
                             "SALARY": 1_000 * worker_id + i, "DEPT": "Load"})
                    elif i % 3 == 1:  # planned read
                        rows = prepared.query({"min": 0}).rows()
                        if not rows:
                            failures.append(f"{worker_id}: empty snapshot")
                            return
                    else:  # ad-hoc read
                        session.query(
                            "WHEN (SELECT WHEN DEPT = 'Load' IN EMP)")
                session.close()
            except Exception as exc:
                failures.append(f"{worker_id}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(self.N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "client worker deadlocked"
        assert not failures, failures[:3]
        inserted = {t.key_value()[0] for t in db["EMP"]
                    if t.key_value()[0].startswith("W")}
        expected = {f"W{w}-{i}" for w in range(self.N_CLIENTS)
                    for i in range(self.OPS_PER_CLIENT) if i % 3 == 0}
        assert inserted == expected

    def test_graceful_shutdown_refuses_new_connections(self, db):
        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        session.query("SELECT IF SALARY >= 0 IN EMP")
        address = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2.0)


# ---------------------------------------------------------------------------
# First-committer-wins conflicts over the wire.
# ---------------------------------------------------------------------------


class TestConflictsOverTheWire:
    def test_lost_race_raises_typed_retryable_conflict(self, server, db):
        loser = connect(*server.address)
        winner = connect(*server.address)
        try:
            losing = loser.transaction()
            losing.update("EMP", ("John",), 5, {"SALARY": 111})
            with winner.transaction() as txn:
                txn.update("EMP", ("John",), 5, {"SALARY": 222})
            with pytest.raises(ConflictError) as caught:
                losing.commit()
            assert "EMP" in str(caught.value)
            assert caught.value.retryable is True
            assert losing.state == "rolled-back"
            # The server already rolled back: the same connection can
            # retry immediately, and the retry converges.
            loser.run_transaction(
                lambda txn: txn.update("EMP", ("John",), 5, {"SALARY": 333}))
            assert db["EMP"].get("John").value("SALARY")(9) == 333
        finally:
            loser.close()
            winner.close()

    def test_conflict_frame_carries_the_retryable_flag(self, server):
        """Drive the protocol by hand: the ERROR frame for a lost race
        names ConflictError and marks itself ``retryable`` so clients
        can distinguish try-again from give-up without string-matching."""
        loser = connect(*server.address)
        winner = connect(*server.address)
        try:
            loser.request({"op": "begin"})
            loser.update("EMP", ("John",), 5, {"SALARY": 1})
            with winner.transaction() as txn:
                txn.update("EMP", ("John",), 5, {"SALARY": 2})
            protocol.send_frame(loser._sock, {"op": "commit"})
            frame = protocol.recv_frame(loser._sock, loser._buffer)
            assert frame["ok"] is False
            assert frame["error"] == "ConflictError"
            assert frame["retryable"] is True
            rebuilt = protocol.error_from_wire(frame)
            assert isinstance(rebuilt, ConflictError)
            assert rebuilt.retryable is True
        finally:
            loser.close()
            winner.close()

    def test_conflict_under_load_8_clients_converge(self, server, db):
        """8 clients race to birth the same pool of keys. Every COMMIT
        either succeeds or raises the typed ConflictError; losing a key
        means somebody else won it, so the union converges to the whole
        pool — and the oracle confirms nobody saw an aborted write."""
        n_clients = 8
        pool = [f"P{i:02d}" for i in range(24)]
        initial = {"EMP": {"John", "Mary", "Tom"}}
        oracle = HistoryOracle()
        failures: list[str] = []
        conflicts = [0] * n_clients
        stop_reading = threading.Event()

        def writer(c: int):
            me = f"client-{c}"
            try:
                session = connect(*server.address)
                try:
                    for name in pool[c:] + pool[:c]:  # rotated contention
                        txn = session.transaction()
                        try:
                            txn.insert("EMP", Lifespan.interval(0, 9),
                                       {"NAME": name, "SALARY": c,
                                        "DEPT": "Race"})
                        except RelationError:
                            txn.rollback()  # born in our snapshot already
                            continue
                        oracle.begin_commit(me, {"EMP": {name}})
                        try:
                            txn.commit()
                        except ConflictError:
                            oracle.aborted(me)  # a concurrent birth won
                            conflicts[c] += 1
                        else:
                            oracle.committed(me)
                finally:
                    session.close()
            except Exception as exc:
                failures.append(f"{me}: {exc!r}")

        def reader():
            try:
                session = connect(*server.address)
                try:
                    while not stop_reading.is_set():
                        rows = session.query(
                            "SELECT IF SALARY >= 0 IN EMP").rows()
                        cut = {t.key_value()[0] for t in rows}
                        oracle.observed("reader", {"EMP": cut})
                finally:
                    session.close()
            except Exception as exc:
                failures.append(f"reader: {exc!r}")

        threads = [threading.Thread(target=writer, args=(c,), daemon=True)
                   for c in range(n_clients)]
        observer = threading.Thread(target=reader, daemon=True)
        observer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "writer client deadlocked"
        stop_reading.set()
        observer.join(JOIN_TIMEOUT)
        assert not observer.is_alive(), "reader client deadlocked"
        assert not failures, failures[:3]
        born = {t.key_value()[0] for t in db["EMP"]
                if t.key_value()[0].startswith("P")}
        assert born == set(pool)  # retries converged: every key exists
        assert len(db["EMP"]) == len(initial["EMP"]) + len(pool)  # once each
        oracle.verify(initial=initial)

    def test_run_transaction_serializes_remote_increments(self, server, db):
        """The lost-update litmus: concurrent read-modify-write through
        Client.run_transaction must serialize. 8 clients × 4 increments
        of one hot counter — first-committer-wins plus the retry loop
        must land on exactly 32."""
        db.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": "CTR", "SALARY": 0, "DEPT": "Hot"})
        n_clients, per_client = 8, 4
        failures: list[str] = []

        def worker(c: int):
            try:
                session = connect(*server.address)
                try:
                    def bump(txn):
                        (row,) = session.query(
                            "SELECT IF NAME = 'CTR' IN EMP").rows()
                        txn.update("EMP", ("CTR",), 5,
                                   {"SALARY": row.value("SALARY")(9) + 1})

                    for _ in range(per_client):
                        session.run_transaction(bump, attempts=100)
                finally:
                    session.close()
            except Exception as exc:
                failures.append(f"{c}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(c,), daemon=True)
                   for c in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "increment client deadlocked"
        assert not failures, failures[:3]
        assert (db["EMP"].get("CTR").value("SALARY")(9)
                == n_clients * per_client)


# ---------------------------------------------------------------------------
# Crash safety: kill -9 a real server process mid-commit-burst.
# ---------------------------------------------------------------------------


class TestServerCrashSafety:
    def _spawn_server(self, path: str) -> tuple[subprocess.Popen, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", path,
             "--port", "0", "--sync", "always"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        assert process.stdout is not None
        line = process.stdout.readline()
        assert "listening on" in line, f"server failed to start: {line!r}"
        port = int(line.rsplit(":", 1)[1])
        return process, port

    def test_kill9_mid_commit_burst_recovers_a_prefix(self, tmp_path):
        path = str(tmp_path / "db")
        # Seed the directory (the server opens an existing database).
        seed = HistoricalDatabase(path=path)
        seed.create_relation(_scheme(), storage="disk")
        seed.close()

        process, port = self._spawn_server(path)
        acked: list[int] = []
        burst_done = threading.Event()

        def burst():
            try:
                session = connect("127.0.0.1", port, timeout=10.0)
                for i in range(10_000):  # the kill ends the loop
                    session.insert("EMP", Lifespan.interval(0, 9),
                                   {"NAME": f"N{i:05d}", "SALARY": i,
                                    "DEPT": "X"})
                    acked.append(i)
            except (HRDMError, OSError):
                pass  # the server died under us — expected
            finally:
                burst_done.set()

        writer = threading.Thread(target=burst, daemon=True)
        writer.start()
        # Let the burst establish, then kill without any chance to flush.
        deadline = time.time() + JOIN_TIMEOUT
        while len(acked) < 25 and time.time() < deadline:
            time.sleep(0.01)
        assert len(acked) >= 25, "burst never got going"
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        burst_done.wait(JOIN_TIMEOUT)
        assert burst_done.is_set()

        reopened = HistoricalDatabase(path=path)
        try:
            recovered = sorted(int(t.key_value()[0][1:])
                               for t in reopened["EMP"])
        finally:
            reopened.close()
        # A prefix: nothing missing in the middle...
        assert recovered == list(range(len(recovered)))
        # ...and under sync="always" every acknowledged commit survived
        # (the in-flight insert may appear on top — acked but unreported).
        assert len(recovered) >= len(acked)
        assert len(recovered) <= len(acked) + 1

    def test_kill9_during_concurrent_conflicting_commits(self, tmp_path):
        """SIGKILL the server while 4 clients race conflicting
        transactions over one hot row. Recovery must show, per client,
        an atomic prefix of its acknowledged commits — paired rows
        never split — and nothing from a conflict-aborted commit."""
        path = str(tmp_path / "db")
        seed = HistoricalDatabase(path=path)
        seed.create_relation(_scheme(), storage="disk")
        seed.insert("EMP", Lifespan.interval(0, 9),
                    {"NAME": "HOT", "SALARY": 0, "DEPT": "X"})
        seed.close()

        process, port = self._spawn_server(path)
        n_clients = 4
        acked: list[list[int]] = [[] for _ in range(n_clients)]
        conflicts = [0] * n_clients
        done = [threading.Event() for _ in range(n_clients)]

        def burst(c: int):
            try:
                session = connect("127.0.0.1", port, timeout=10.0)
                for i in range(10_000):  # the kill ends the loop
                    while True:  # conflict-retry the same commit
                        txn = session.transaction()
                        txn.insert("EMP", Lifespan.interval(0, 9),
                                   {"NAME": f"A{c}-{i:04d}", "SALARY": i,
                                    "DEPT": "X"})
                        txn.insert("EMP", Lifespan.interval(0, 9),
                                   {"NAME": f"B{c}-{i:04d}", "SALARY": i,
                                    "DEPT": "X"})
                        txn.update("EMP", ("HOT",), 5,
                                   {"SALARY": c * 100_000 + i})
                        try:
                            txn.commit()
                        except ConflictError:
                            conflicts[c] += 1  # lost the HOT race: retry
                            continue
                        acked[c].append(i)
                        break
            except (HRDMError, OSError):
                pass  # the server died under us — expected
            finally:
                done[c].set()

        writers = [threading.Thread(target=burst, args=(c,), daemon=True)
                   for c in range(n_clients)]
        for writer in writers:
            writer.start()
        deadline = time.time() + JOIN_TIMEOUT
        while (any(len(a) < 8 for a in acked) and time.time() < deadline):
            time.sleep(0.01)
        assert all(len(a) >= 8 for a in acked), "burst never got going"
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        for flag in done:
            flag.wait(JOIN_TIMEOUT)
            assert flag.is_set()
        # Contention was real: the hot row forced lost races + retries.
        assert sum(conflicts) > 0

        reopened = HistoricalDatabase(path=path)
        try:
            names = {t.key_value()[0] for t in reopened["EMP"]}
            assert "HOT" in names
            for c in range(n_clients):
                a_rows = sorted(int(n.split("-")[1]) for n in names
                                if n.startswith(f"A{c}-"))
                b_rows = sorted(int(n.split("-")[1]) for n in names
                                if n.startswith(f"B{c}-"))
                # Commits are atomic: the A/B pair lands or vanishes
                # together, and what lands is a gap-free prefix.
                assert a_rows == b_rows
                assert a_rows == list(range(len(a_rows)))
                # sync="always": every acknowledged commit survived; at
                # most the one in-flight commit rides on top unreported.
                assert len(acked[c]) <= len(a_rows) <= len(acked[c]) + 1
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# The HRQL shell against a server.
# ---------------------------------------------------------------------------


SESSION_SCRIPT = [
    "\\set min 21000",
    "\\relations",
    "SELECT IF SALARY >= :min IN EMP",
    "SELECT WHEN DEPT = 'Toys' IN EMP",
    "WHEN (SELECT WHEN SALARY >= :min IN EMP)",
    "\\timelines EMP",
    "TIMESLICE EMP TO [2, 4]",
    "SELECT GIBBERISH",
    "SELECT IF X = 1 IN NOPE",
]


def _run_script(env, lines) -> str:
    from repro.query.__main__ import execute

    state = {"env": env}
    params: dict = {}
    return "\n".join(execute(line, state["env"], params, state)
                     for line in lines)


class TestShellAgainstServer:
    def test_same_script_identical_output(self):
        """The acceptance bar: one session script, embedded vs
        ``\\connect``-ed, byte-identical output."""
        embedded_db = HistoricalDatabase("served")
        embedded_db.create_relation(_scheme(), storage="disk")
        _populate(embedded_db)
        embedded_output = _run_script(embedded_db, SESSION_SCRIPT)

        served_db = HistoricalDatabase("served")
        served_db.create_relation(_scheme(), storage="disk")
        _populate(served_db)
        with DatabaseServer(served_db) as server:
            session = connect(*server.address)
            try:
                remote_output = _run_script(session, SESSION_SCRIPT)
            finally:
                session.close()
        assert remote_output == embedded_output

    def test_connect_command_switches_the_session(self, server):
        from repro.query.__main__ import execute

        host, port = server.address
        state = {"env": HistoricalDatabase("local")}
        response = execute(f"\\connect {host}:{port}", state["env"], {}, state)
        assert "connected to database 'served'" in response
        assert isinstance(state["env"], Client)
        out = execute("\\relations", state["env"], {}, state)
        assert "EMP" in out and "[disk]" in out
        state["env"].close()

    def test_connect_usage_and_failure(self):
        from repro.query.__main__ import execute

        env = HistoricalDatabase("local")
        state = {"env": env}
        assert execute("\\connect", env, {}, state) == \
            "usage: \\connect HOST:PORT[,HOST:PORT...]"
        out = execute("\\connect 127.0.0.1:1", env, {}, state)
        assert out.startswith("error:")
        assert state["env"] is env  # failed connect keeps the session

    def test_timing_toggle_wraps_statements(self, server):
        from repro.query.__main__ import execute

        session = connect(*server.address)
        state = {"env": session}
        assert execute("\\timing", session, {}, state) == "timing is on"
        out = execute("SELECT IF SALARY >= 0 IN EMP", session, {}, state)
        assert out.splitlines()[-1].startswith("Time: ")
        assert execute("\\timing", session, {}, state) == "timing is off"
        out = execute("SELECT IF SALARY >= 0 IN EMP", session, {}, state)
        assert not out.splitlines()[-1].startswith("Time: ")
        session.close()


# ---------------------------------------------------------------------------
# The reconnect contract: a dropped connection is transient, not fatal.
# ---------------------------------------------------------------------------


class TestClientReconnect:
    """The client survives server bounces: reads retry transparently,
    mutations surface the retryable ConnectionLostError, prepared
    statements re-prepare, and open transactions report their loss."""

    def _bounce(self, db, address):
        """A fresh server on the same (host, port)."""
        replacement = DatabaseServer(db, host=address[0], port=address[1])
        replacement.start()
        return replacement

    def test_read_retries_transparently(self, db):
        from repro.core.errors import ConnectionLostError  # noqa: F401

        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        before = {t.key_value()[0] for t in session["EMP"]}
        address = server.address
        server.stop()
        replacement = self._bounce(db, address)
        try:
            # No explicit reconnect call: the read finds the dead
            # socket, re-dials, and retries the frame once.
            after = {t.key_value()[0] for t in session["EMP"]}
            assert after == before
            assert session.query("SELECT WHEN SALARY >= 0 IN EMP").rows()
        finally:
            session.close()
            replacement.stop()

    def test_mutation_surfaces_retryable_error(self, db):
        from repro.core.errors import ConnectionLostError

        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        address = server.address
        server.stop()
        with pytest.raises(ConnectionLostError) as info:
            session.insert("EMP", Lifespan.interval(0, 9),
                           {"NAME": "Lost", "SALARY": 1, "DEPT": "X"})
        assert info.value.retryable is True
        # The session is not poisoned: once the server is back, the
        # caller decides to re-run and it just works.
        replacement = self._bounce(db, address)
        try:
            session.insert("EMP", Lifespan.interval(0, 9),
                           {"NAME": "Found", "SALARY": 1, "DEPT": "X"})
            assert "Found" in {t.key_value()[0] for t in session["EMP"]}
        finally:
            session.close()
            replacement.stop()

    def test_prepared_statement_survives_bounce(self, db):
        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        prepared = session.prepare("SELECT WHEN SALARY >= :m IN EMP")
        assert prepared.query({"m": 0}).rows()
        address = server.address
        server.stop()
        replacement = self._bounce(db, address)
        try:
            # The server-side statement died with the connection; the
            # client re-prepares under the hood.
            assert prepared.query({"m": 0}).rows()
        finally:
            session.close()
            replacement.stop()

    def test_open_transaction_is_lost_with_the_connection(self, db):
        from repro.core.errors import ConnectionLostError

        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        txn = session.transaction()
        txn.insert("EMP", Lifespan.interval(0, 9),
                   {"NAME": "Buffered", "SALARY": 1, "DEPT": "X"})
        address = server.address
        server.stop()
        replacement = self._bounce(db, address)
        try:
            with pytest.raises(ConnectionLostError):
                txn.commit()
            assert txn.state == "rolled-back"
            # The buffered insert never made it anywhere.
            assert "Buffered" not in {t.key_value()[0]
                                      for t in session["EMP"]}
            # The session itself moves on: a fresh transaction commits.
            with session.transaction() as fresh:
                fresh.insert("EMP", Lifespan.interval(0, 9),
                             {"NAME": "Fresh", "SALARY": 1, "DEPT": "X"})
            assert "Fresh" in {t.key_value()[0] for t in session["EMP"]}
        finally:
            session.close()
            replacement.stop()

    def test_run_transaction_retries_precommit_drop(self, db):
        """A drop while the body runs re-runs the body; the commit of
        the re-run lands."""
        server = DatabaseServer(db)
        server.start()
        session = connect(*server.address)
        address = server.address
        bounced = []

        def body(txn):
            if not bounced:
                # Simulate a drop mid-body: bounce the server under
                # the open transaction.
                running = server if not bounced else None
                running.stop()
                bounced.append(self._bounce(db, address))
            txn.insert("EMP", Lifespan.interval(0, 9),
                       {"NAME": "Retried", "SALARY": 1, "DEPT": "X"})
            return "ok"

        try:
            assert session.run_transaction(body) == "ok"
            assert "Retried" in {t.key_value()[0] for t in session["EMP"]}
        finally:
            session.close()
            for running in bounced:
                running.stop()
