"""Hash sharding: placement, routing, 2PC, the coordinator, crashes.

Unit layer — the three sharding primitives in isolation: the
deterministic :func:`shard_of` hash and the durable
:class:`ShardCatalog` (placement metadata, shard-count pinning), the
presumed-abort :class:`DecisionLog` (fsynced commit point, torn-tail
truncation), and the router's forward / fanout / gather classification
with conservative shard-key pinning. The embedded database's own 2PC
surface (``Transaction.prepare``, ``resolve_prepared``,
``in_doubt_transactions``, WAL record kinds) is pinned here too, since
the coordinator's correctness rests on it.

Integration layer — an in-process coordinator over two real
:class:`ShardWorker` servers: DDL partitioning (hashed split,
broadcast copies, shard_by overrides), query parity against the
embedded engine across every routing mode, cross-shard transaction
atomicity (2PC) vs the single-shard 1PC fast path, and all three
in-doubt resolution paths (startup sweep, lazy STATUS sweep, the
worker's own RESOLVE poll).

``sharded`` tier (``-m sharded``; the CI sharding-smoke job) — real
subprocess workers: kill -9 of a participant mid-2PC recovers with
every acknowledged commit present and no in-doubt transaction left
unresolved, the ``python -m repro.sharding`` CLI end to end, and
oracle-verified ``engine="sharded"`` workload scenario runs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.client import Client, connect
from repro.core import domains
from repro.core.errors import (ConflictError, RelationError, ShardingError,
                               StorageError, TransactionError)
from repro.core.lifespan import Lifespan
from repro.database import HistoricalDatabase
from repro.core.scheme import RelationScheme
from repro.query.parser import parse
from repro.sharding import (Coordinator, DecisionLog, Placement,
                            ShardCatalog, ShardWorker, referenced_relations,
                            route_statement, shard_of)
from repro.storage.wal import WALError, WriteAheadLog
from repro.storage import wal as wal_mod
from repro.workloads.harness import run_scenario
from repro.workloads.personas import Knobs

JOIN_TIMEOUT = 60.0

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _scheme(name: str = "EMP") -> RelationScheme:
    return RelationScheme(name, {
        "NAME": domains.cd(domains.STRING),
        "SALARY": domains.td(domains.INTEGER),
        "DEPT": domains.td(domains.STRING),
    }, key=["NAME"])


def _dept_scheme() -> RelationScheme:
    return RelationScheme("DEPT", {
        "DNAME": domains.cd(domains.STRING),
        "FLOOR": domains.td(domains.INTEGER),
    }, key=["DNAME"])


def _insert(target, name: str, salary: int, dept: str = "Toys") -> None:
    target.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": name, "SALARY": salary, "DEPT": dept})


def _rows(relation) -> list:
    """A relation's value as an order-independent comparable list."""
    return sorted(repr(t) for t in relation)


def _names_on_shard(shard: int, n_shards: int, count: int,
                    prefix: str = "k") -> list:
    """Deterministic key names that hash to the given shard."""
    names, i = [], 0
    while len(names) < count:
        name = f"{prefix}{shard}-{i}"
        if shard_of([name], n_shards) == shard:
            names.append(name)
        i += 1
    return names


def _await(predicate, timeout: float = JOIN_TIMEOUT) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached before the deadline")


class _Cluster:
    """N in-process shard workers behind one in-process coordinator."""

    def __init__(self, tmp_path, n_shards: int = 2, broadcast=(),
                 tag: str = "c"):
        self.workers = []
        try:
            for i in range(n_shards):
                worker = ShardWorker(str(tmp_path / f"{tag}-shard{i}"),
                                     shard_id=i)
                worker.start()
                self.workers.append(worker)
            self.coordinator = Coordinator(
                str(tmp_path / f"{tag}-coordinator"),
                [w.address for w in self.workers], broadcast=broadcast)
            self.coordinator.start()
        except BaseException:
            self.close()
            raise

    def connect(self) -> Client:
        return connect(*self.coordinator.address, timeout=30.0)

    def close(self) -> None:
        if getattr(self, "coordinator", None) is not None:
            self.coordinator.stop()
            self.coordinator = None
        for worker in self.workers:
            worker.stop()
        self.workers = []

    def __enter__(self) -> "_Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# Placement: the deterministic hash and the durable catalog.
# ---------------------------------------------------------------------------


class TestShardOf:
    def test_deterministic_and_covers_every_shard(self):
        homes = [shard_of([f"emp{i:03d}"], 4) for i in range(200)]
        assert homes == [shard_of([f"emp{i:03d}"], 4) for i in range(200)]
        assert set(homes) == {0, 1, 2, 3}  # no shard starves

    def test_subprocess_agrees(self):
        """crc32 over the canonical rendering is PYTHONHASHSEED-proof."""
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "999"
        out = subprocess.check_output(
            [sys.executable, "-c",
             "from repro.sharding import shard_of; "
             "print([shard_of(['emp%03d' % i], 4) for i in range(50)])"],
            env=env, text=True)
        assert eval(out) == [shard_of([f"emp{i:03d}"], 4) for i in range(50)]

    def test_type_tagged_rendering(self):
        # 1, "1", and True render apart, so mixed-type keys can't collide
        # by coincidence of str().
        large = 1_000_003
        assert shard_of([1], large) != shard_of(["1"], large)
        assert shard_of([True], large) != shard_of([1], large)

    def test_compound_keys_hash_all_parts(self):
        large = 1_000_003
        assert shard_of(["a", "b"], large) != shard_of(["b", "a"], large)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShardingError):
            shard_of(["x"], 0)
        with pytest.raises(ShardingError):
            shard_of([["not", "scalar"]], 4)


class TestPlacement:
    def test_shard_by_must_be_key_attributes(self):
        with pytest.raises(ShardingError, match="key attributes"):
            Placement("EMP", "hashed", ["NAME"], ["SALARY"], {}, "memory")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ShardingError, match="unknown placement"):
            Placement("EMP", "sprayed", ["NAME"], ["NAME"], {}, "memory")

    def test_hashed_needs_a_shard_key(self):
        with pytest.raises(ShardingError, match="shard_by"):
            Placement("EMP", "hashed", ["NAME"], [], {}, "memory")

    def test_shard_key_projection(self):
        entry = Placement("READING", "hashed", ["SENSOR", "CHANNEL"],
                          ["SENSOR"], {}, "disk")
        assert entry.shard_key_of(("s7", 3)) == ["s7"]
        assert entry.hashed and not entry.broadcast

    def test_json_roundtrip(self):
        entry = Placement("EMP", "broadcast", ["NAME"], [], {"s": 1}, "disk")
        again = Placement.from_json("EMP", entry.to_json())
        assert (again.placement, again.key, again.shard_by, again.storage) \
            == ("broadcast", ("NAME",), (), "disk")


class TestShardCatalog:
    def _entry(self, name: str = "EMP") -> Placement:
        return Placement(name, "hashed", ["NAME"], ["NAME"], {}, "memory")

    def test_add_get_remove_persist(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        catalog = ShardCatalog(path, 3)
        catalog.add(self._entry())
        catalog.add(Placement("DEPT", "broadcast", ["DNAME"], [], {}, "disk"))
        reopened = ShardCatalog(path, 3)
        assert reopened.names() == ["DEPT", "EMP"]
        assert reopened.get("EMP").hashed
        assert reopened.get("DEPT").broadcast
        assert "EMP" in reopened and len(reopened) == 2
        reopened.remove("EMP")
        assert ShardCatalog(path, 3).names() == ["DEPT"]

    def test_shard_count_is_pinned(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        ShardCatalog(path, 2).add(self._entry())
        with pytest.raises(ShardingError, match="2 shard"):
            ShardCatalog(path, 3)


# ---------------------------------------------------------------------------
# The decision log: presumed abort, durable commit point, torn tails.
# ---------------------------------------------------------------------------


class TestDecisionLog:
    def test_presumed_abort_for_unknown_ids(self, tmp_path):
        log = DecisionLog(str(tmp_path / "decisions.log"))
        assert log.resolve("txn-never-seen") == "abort"
        log.close()

    def test_recorded_commits_survive_reopen(self, tmp_path):
        path = str(tmp_path / "decisions.log")
        log = DecisionLog(path)
        log.record("txn-1", "commit")
        log.record("txn-2", "abort")
        log.close()
        again = DecisionLog(path)
        assert again.resolve("txn-1") == "commit"
        assert again.resolve("txn-2") == "abort"
        assert again.decided() == {"txn-1": "commit", "txn-2": "abort"}
        again.close()

    def test_torn_tail_is_a_decision_that_never_happened(self, tmp_path):
        path = str(tmp_path / "decisions.log")
        log = DecisionLog(path)
        log.record("txn-1", "commit")
        log.close()
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:  # half a frame: the crash window
            fh.write(b"\x00\x00\x00\x63\xde\xad")
        again = DecisionLog(path)
        assert again.resolve("txn-1") == "commit"
        assert again.resolve("txn-torn") == "abort"
        again.close()
        assert os.path.getsize(path) == intact  # tail truncated in place

    def test_unknown_outcome_rejected(self, tmp_path):
        log = DecisionLog(str(tmp_path / "decisions.log"))
        with pytest.raises(ShardingError, match="outcome"):
            log.record("txn-1", "maybe")
        log.close()


# ---------------------------------------------------------------------------
# The embedded 2PC surface the coordinator drives.
# ---------------------------------------------------------------------------


class TestWALRecordKinds:
    def test_prepare_and_decide_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([wal_mod.encode_drop("A")])
        wal.append([wal_mod.encode_drop("B")], kind="prepare", txn_id="t1")
        wal.append([], kind="decide-commit", txn_id="t1")
        wal.append([wal_mod.encode_drop("C")], kind="prepare", txn_id="t2")
        wal.append([], kind="decide-abort", txn_id="t2")
        wal.close()
        records = WriteAheadLog(path, sync="always").recover()
        assert [(r.kind, r.txn_id) for r in records] == [
            ("commit", ""), ("prepare", "t1"), ("decide-commit", "t1"),
            ("prepare", "t2"), ("decide-abort", "t2")]

    def test_decisions_need_a_transaction_id(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync="always")
        with pytest.raises(WALError, match="transaction id"):
            wal.append([], kind="decide-commit")
        with pytest.raises(WALError, match="kind"):
            wal.append([wal_mod.encode_drop("A")], kind="maybe", txn_id="t")
        wal.close()


class TestPreparedTransactions:
    def _open(self, tmp_path, tag: str = "db") -> HistoricalDatabase:
        db = HistoricalDatabase(path=str(tmp_path / tag), sync="always")
        if "EMP" not in db.relations():
            db.create_relation(_scheme(), storage="disk")
        return db

    def test_prepare_pins_invisible_until_commit_decision(self, tmp_path):
        db = self._open(tmp_path)
        txn = db.transaction()
        _insert(txn, "e1", 10)
        txn.prepare("txn-a")
        assert db.in_doubt_transactions() == ["txn-a"]
        # Applied but pinned: readers don't see the prepared write yet.
        assert len(db.query("SELECT IF NAME = 'e1' IN EMP").relation) == 0
        db.resolve_prepared("txn-a", commit=True)
        assert db.in_doubt_transactions() == []
        assert len(db.query("SELECT IF NAME = 'e1' IN EMP").relation) == 1
        db.close()

    def test_abort_decision_rolls_the_prepare_back(self, tmp_path):
        db = self._open(tmp_path)
        txn = db.transaction()
        _insert(txn, "e1", 10)
        txn.prepare("txn-a")
        db.resolve_prepared("txn-a", commit=False)
        assert db.in_doubt_transactions() == []
        assert len(db["EMP"]) == 0
        db.close()

    def test_prepare_pins_its_keys_against_other_writers(self, tmp_path):
        db = self._open(tmp_path)
        _insert(db, "e1", 10)
        txn = db.transaction()
        txn.update("EMP", ("e1",), 5, {"SALARY": 20})
        txn.prepare("txn-a")
        rival = db.transaction()
        rival.update("EMP", ("e1",), 5, {"SALARY": 30})
        with pytest.raises(ConflictError):
            rival.commit()
        db.resolve_prepared("txn-a", commit=True)
        db.close()

    def test_reopen_recovers_the_in_doubt_window(self, tmp_path):
        db = self._open(tmp_path)
        txn = db.transaction()
        _insert(txn, "e1", 10)
        txn.prepare("txn-a")
        db.close()  # the decision never arrived
        again = self._open(tmp_path)
        assert again.in_doubt_transactions() == ["txn-a"]
        assert len(again["EMP"]) == 0
        again.resolve_prepared("txn-a", commit=True)
        assert len(again["EMP"]) == 1
        again.close()
        # The decision is in the log too: a further reopen stays resolved.
        final = self._open(tmp_path)
        assert final.in_doubt_transactions() == []
        assert len(final["EMP"]) == 1
        final.close()

    def test_checkpoint_refused_while_in_doubt(self, tmp_path):
        db = self._open(tmp_path)
        txn = db.transaction()
        _insert(txn, "e1", 10)
        txn.prepare("txn-a")
        with pytest.raises(StorageError, match="prepared"):
            db.checkpoint()
        db.resolve_prepared("txn-a", commit=False)
        db.checkpoint()
        db.close()

    def test_resolving_an_unknown_id_errors(self, tmp_path):
        db = self._open(tmp_path)
        with pytest.raises(TransactionError, match="no prepared"):
            db.resolve_prepared("txn-ghost", commit=True)
        db.close()

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    @pytest.mark.parametrize("commit", [True, False])
    def test_in_doubt_window_is_invisible_and_loses_no_acked_commit(
            self, tmp_path, storage, commit):
        """A prepare leaves nothing applied: a disjoint-key commit inside
        the window neither publishes the undecided tuple nor is undone
        by an abort decision."""
        path = str(tmp_path / "db")
        db = HistoricalDatabase(path=path, sync="always")
        db.create_relation(_scheme(), storage=storage)
        for name in ("a", "d"):
            _insert(db, name, 1)
        txn = db.transaction()
        _insert(txn, "b", 2)
        txn.prepare("t1")

        def visible() -> list:
            assert _rows(db.relations()["EMP"]) == _rows(db["EMP"])
            return sorted(t.key_value()[0] for t in
                          db.query("SELECT IF SALARY >= 0 IN EMP").relation)

        assert visible() == ["a", "d"]
        _insert(db, "c", 3)  # acknowledged inside the window
        assert visible() == ["a", "c", "d"]
        db.resolve_prepared("t1", commit)
        _insert(db, "e", 4)
        expected = ["a", "b", "c", "d", "e"] if commit else ["a", "c", "d", "e"]
        assert visible() == expected
        live = _rows(db["EMP"])
        db.close()
        reopened = HistoricalDatabase(path=path)
        assert _rows(reopened["EMP"]) == live
        reopened.close()

    @pytest.mark.parametrize("entry_point", [
        lambda db: db.replace("EMP", db["EMP"].to_relation()),
        lambda db: db.evolve_scheme("EMP", _scheme()),
        lambda db: db.drop_relation("EMP"),
        lambda db: db.create_relation(_scheme(), storage="disk"),
    ], ids=["replace", "evolve_scheme", "drop_relation", "create_relation"])
    def test_relation_granular_writes_respect_the_pin(self, tmp_path,
                                                      entry_point):
        db = self._open(tmp_path)
        _insert(db, "a", 1)
        txn = db.transaction()
        _insert(txn, "b", 2)
        txn.prepare("t1")
        before = _rows(db["EMP"])
        with pytest.raises(ConflictError,
                           match="in-doubt two-phase transaction 't1'"):
            entry_point(db)
        assert _rows(db["EMP"]) == before
        db.resolve_prepared("t1", commit=True)
        assert len(db["EMP"]) == 2
        db.close()


# ---------------------------------------------------------------------------
# The router: forward / fanout / gather, conservative pinning.
# ---------------------------------------------------------------------------


class TestRouter:
    @pytest.fixture()
    def catalog(self, tmp_path):
        catalog = ShardCatalog(str(tmp_path / "catalog.json"), 4)
        catalog.add(Placement("EMP", "hashed", ["NAME"], ["NAME"],
                              {}, "memory"))
        catalog.add(Placement("DEPT", "broadcast", ["DNAME"], [],
                              {}, "memory"))
        return catalog

    def _route(self, source: str, catalog, params=None):
        return route_statement(parse(source), catalog, params)

    def test_referenced_relations_first_use_order(self):
        node = parse("EMP JOIN DEPT ON DEPT = DNAME")
        assert referenced_relations(node) == ("EMP", "DEPT")

    def test_full_shard_key_equality_pins_one_shard(self, catalog):
        route = self._route("SELECT IF NAME = 'e7' IN EMP", catalog)
        assert route.mode == "forward"
        assert route.shard == shard_of(["e7"], 4)

    def test_conjunction_still_pins(self, catalog):
        route = self._route(
            "SELECT IF NAME = 'e7' AND SALARY >= 10 IN EMP", catalog)
        assert (route.mode, route.shard) == ("forward", shard_of(["e7"], 4))

    def test_disjunction_cannot_pin(self, catalog):
        route = self._route(
            "SELECT IF NAME = 'e7' OR SALARY >= 10 IN EMP", catalog)
        assert route.mode == "fanout"

    def test_bound_parameter_pins_unbound_fans_out(self, catalog):
        source = "SELECT IF NAME = :n IN EMP"
        bound = self._route(source, catalog, {"n": "e7"})
        assert (bound.mode, bound.shard) == ("forward", shard_of(["e7"], 4))
        assert self._route(source, catalog).mode == "fanout"

    def test_non_key_predicate_fans_out(self, catalog):
        assert self._route("SELECT IF SALARY >= 5 IN EMP",
                           catalog).mode == "fanout"

    def test_rename_disables_the_pin(self, catalog):
        route = self._route(
            "SELECT IF N = 'e7' IN (RENAME NAME TO N IN EMP)", catalog)
        assert route.mode == "fanout"

    def test_broadcast_only_forwards_to_any_shard(self, catalog):
        route = self._route("SELECT IF FLOOR = 2 IN DEPT", catalog)
        assert (route.mode, route.shard) == ("forward", None)

    def test_join_gathers(self, catalog):
        assert self._route("EMP JOIN DEPT ON DEPT = DNAME",
                           catalog).mode == "gather"

    def test_projection_gathers(self, catalog):
        assert self._route("PROJECT NAME, SALARY FROM (EMP)",
                           catalog).mode == "gather"

    def test_unknown_relation_gathers_for_the_canonical_error(self, catalog):
        assert self._route("SELECT IF X = 1 IN GHOST",
                           catalog).mode == "gather"

    def test_explain_gathers(self, catalog):
        assert self._route("EXPLAIN SELECT IF NAME = 'e7' IN EMP",
                           catalog).mode == "gather"

    def test_when_fans_out_with_lifespan_union(self, catalog):
        route = self._route("WHEN (SELECT WHEN SALARY >= 5 IN EMP)", catalog)
        assert (route.mode, route.when) == ("fanout", True)

    def test_when_over_a_pinned_chain_forwards(self, catalog):
        route = self._route("WHEN (SELECT WHEN NAME = 'e7' IN EMP)", catalog)
        assert (route.mode, route.shard, route.when) \
            == ("forward", shard_of(["e7"], 4), True)


# ---------------------------------------------------------------------------
# Integration: an in-process coordinator over two real shard servers.
# ---------------------------------------------------------------------------


class TestCoordinatorDDL:
    def test_hashed_create_partitions_seed_tuples(self, tmp_path):
        db = HistoricalDatabase("seed")
        db.create_relation(_scheme())
        for i in range(20):
            _insert(db, f"emp{i:03d}", i)
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme(), db["EMP"], storage="disk")
                assert len(session["EMP"]) == 20  # merged view is complete
            counts = []
            for worker in cluster.workers:
                part = worker.db["EMP"]
                counts.append(len(part))
                for t in part:  # every tuple is on its hash home
                    assert shard_of([t.key_value()[0]], 2) \
                        == worker.shard_id
            assert sum(counts) == 20
            assert all(count > 0 for count in counts)  # actually split
        db.close()

    def test_broadcast_create_copies_everywhere(self, tmp_path):
        db = HistoricalDatabase("seed")
        db.create_relation(_dept_scheme())
        for name in ("Toys", "Tools", "Books"):
            db.insert("DEPT", Lifespan.interval(0, 9),
                      {"DNAME": name, "FLOOR": 1})
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_dept_scheme(), db["DEPT"],
                                        placement="broadcast")
                assert len(session["DEPT"]) == 3  # not double-counted
            for worker in cluster.workers:
                assert len(worker.db["DEPT"]) == 3  # a full copy each
            assert cluster.coordinator.catalog.get("DEPT").broadcast
        db.close()

    def test_default_broadcast_names_apply_without_options(self, tmp_path):
        with _Cluster(tmp_path, broadcast=("DEPT",)) as cluster:
            with cluster.connect() as session:
                session.create_relation(_dept_scheme())
                session.create_relation(_scheme())
            catalog = cluster.coordinator.catalog
            assert catalog.get("DEPT").broadcast
            assert catalog.get("EMP").hashed

    def test_shard_by_override_keeps_a_group_together(self, tmp_path):
        scheme = RelationScheme("READING", {
            "SENSOR": domains.cd(domains.STRING),
            "CHANNEL": domains.cd(domains.INTEGER),
            "VALUE": domains.td(domains.INTEGER),
        }, key=["SENSOR", "CHANNEL"])
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(scheme, shard_by=["SENSOR"])
                for sensor in ("s1", "s2", "s3"):
                    for channel in range(4):
                        session.insert(
                            "READING", Lifespan.interval(0, 9),
                            {"SENSOR": sensor, "CHANNEL": channel,
                             "VALUE": channel})
            # All of one sensor's channels live on one shard.
            for sensor in ("s1", "s2", "s3"):
                holders = [w.shard_id for w in cluster.workers
                           if any(t.key_value()[0] == sensor
                                  for t in w.db["READING"])]
                assert holders == [shard_of([sensor], 2)]

    def test_drop_removes_everywhere_and_from_the_catalog(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                _insert(session, "e1", 1)
                session.drop_relation("EMP")
                assert "EMP" not in session
            for worker in cluster.workers:
                assert "EMP" not in worker.db.relations()
            assert cluster.coordinator.catalog.get("EMP") is None

    def test_ddl_refused_inside_a_transaction(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                session.request({"op": "begin"})
                with pytest.raises(TransactionError, match="CREATE"):
                    session.create_relation(_dept_scheme())
                with pytest.raises(TransactionError, match="DROP"):
                    session.drop_relation("EMP")
                session.request({"op": "rollback"})

    def test_evolve_reaches_every_shard(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                for i in range(8):
                    _insert(session, f"emp{i:03d}", i)
                evolved = RelationScheme("EMP", {
                    "NAME": domains.cd(domains.STRING),
                    "SALARY": domains.td(domains.INTEGER),
                    "DEPT": domains.td(domains.STRING),
                    "GRADE": domains.td(domains.INTEGER),
                }, key=["NAME"])
                session.evolve_scheme("EMP", evolved)
            for worker in cluster.workers:
                assert "GRADE" in worker.db["EMP"].scheme.attributes


class TestCoordinatorQueries:
    @pytest.fixture()
    def parity(self, tmp_path):
        """The same small catalog embedded and sharded, for comparison."""
        reference = HistoricalDatabase("reference")
        reference.create_relation(_scheme())
        reference.create_relation(_dept_scheme())
        cluster = _Cluster(tmp_path, broadcast=("DEPT",))
        session = cluster.connect()
        session.create_relation(_scheme())
        session.create_relation(_dept_scheme())
        for target in (reference, session):
            for name, floor in (("Toys", 1), ("Tools", 2)):
                target.insert("DEPT", Lifespan.interval(0, 9),
                              {"DNAME": name, "FLOOR": floor})
            for i in range(12):
                _insert(target, f"emp{i:03d}", i,
                        "Toys" if i % 2 else "Tools")
            target.update("EMP", ("emp003",), 5, {"SALARY": 50})
            target.terminate("EMP", ("emp004",), 6)
        yield reference, session
        session.close()
        cluster.close()
        reference.close()

    @pytest.mark.parametrize("source", [
        "SELECT IF NAME = 'emp003' IN EMP",            # forward, pinned
        "SELECT IF SALARY >= 6 IN EMP",                # fanout
        "SELECT IF FLOOR = 2 IN DEPT",                 # forward, broadcast
        "PROJECT NAME, SALARY FROM (SELECT IF SALARY >= 3 IN EMP)",  # gather
        "EMP JOIN DEPT ON DEPT = DNAME",               # gather, mixed
    ])
    def test_relation_answers_match_the_embedded_engine(self, parity, source):
        reference, session = parity
        assert _rows(session.query(source).relation) \
            == _rows(reference.query(source).relation)

    @pytest.mark.parametrize("source", [
        "WHEN (SELECT WHEN NAME = 'emp003' IN EMP)",   # forward, pinned
        "WHEN (SELECT WHEN SALARY >= 6 IN EMP)",       # fanout, union
    ])
    def test_when_answers_match_the_embedded_engine(self, parity, source):
        reference, session = parity
        assert session.query(source).lifespan \
            == reference.query(source).lifespan

    def test_explain_runs_through_the_gather_planner(self, parity):
        _, session = parity
        result = session.query("EXPLAIN EMP JOIN DEPT ON DEPT = DNAME")
        assert result.kind == "plan"
        assert "JOIN" in str(result.explanation).upper()

    def test_prepared_statements_reroute_per_binding(self, parity):
        reference, session = parity
        ready = session.prepare("SELECT IF NAME = :n IN EMP")
        for name in ("emp001", "emp002", "emp007"):
            assert _rows(ready.query({"n": name}).relation) == _rows(
                reference.query("SELECT IF NAME = :n IN EMP",
                                {"n": name}).relation)

    def test_relations_info_merges_hashed_counts_once(self, parity):
        _, session = parity
        info = {r["name"]: r["n_tuples"] for r in session.relations_info()}
        assert info["EMP"] == 12  # summed across shards, each key once
        assert info["DEPT"] == 2  # broadcast copies counted once


class TestCoordinatorTransactions:
    @pytest.fixture()
    def cluster(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
            yield cluster

    def test_cross_shard_commit_is_atomic_and_logged(self, cluster):
        a = _names_on_shard(0, 2, 1)[0]
        b = _names_on_shard(1, 2, 1)[0]
        with cluster.connect() as session:
            _insert(session, a, 1)
            _insert(session, b, 1)
            with session.transaction() as txn:
                txn.update("EMP", (a,), 5, {"SALARY": 100})
                txn.update("EMP", (b,), 5, {"SALARY": 200})
            snap = session.query(
                "SELECT IF SALARY >= 100 IN EMP").snapshot(7)
            assert len(snap) == 2  # both effects, atomically
        decided = cluster.coordinator.decisions.decided()
        assert list(decided.values()) == ["commit"]

    def test_rollback_leaves_no_trace_on_any_shard(self, cluster):
        a = _names_on_shard(0, 2, 1)[0]
        b = _names_on_shard(1, 2, 1)[0]
        with cluster.connect() as session:
            txn = session.transaction()
            _insert(txn, a, 1)
            _insert(txn, b, 1)
            txn.rollback()
            assert len(session["EMP"]) == 0
        assert cluster.coordinator.decisions.decided() == {}
        for worker in cluster.workers:
            assert len(worker.db["EMP"]) == 0

    def test_single_shard_transactions_take_the_1pc_fast_path(self, cluster):
        names = _names_on_shard(0, 2, 2)
        with cluster.connect() as session:
            with session.transaction() as txn:
                _insert(txn, names[0], 1)
                _insert(txn, names[1], 2)
            assert len(session["EMP"]) == 2
        # One participant: a plain forwarded COMMIT, no 2PC decision.
        assert cluster.coordinator.decisions.decided() == {}

    def test_broadcast_autocommit_writes_everywhere_atomically(
            self, tmp_path):
        with _Cluster(tmp_path, broadcast=("DEPT",), tag="b") as cluster:
            with cluster.connect() as session:
                session.create_relation(_dept_scheme())
                session.insert("DEPT", Lifespan.interval(0, 9),
                               {"DNAME": "Toys", "FLOOR": 1})
            for worker in cluster.workers:
                assert len(worker.db["DEPT"]) == 1
            # The multi-shard auto-commit ran as a mini-2PC.
            decided = cluster.coordinator.decisions.decided()
            assert list(decided.values()) == ["commit"]

    def test_empty_transaction_commits_without_participants(self, cluster):
        with cluster.connect() as session:
            with session.transaction():
                pass
        assert cluster.coordinator.decisions.decided() == {}


class TestCoordinatorStatus:
    def test_status_frame_shape(self, tmp_path):
        with _Cluster(tmp_path, broadcast=("DEPT",)) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                session.create_relation(_dept_scheme())
                _insert(session, "e1", 1)
                status = session.status()
            assert status["role"] == "coordinator"
            assert status["n_shards"] == 2
            assert status["relations"] == {"EMP": "hashed",
                                           "DEPT": "broadcast"}
            assert len(status["shards"]) == 2
            for row in status["shards"]:
                assert row["ok"] is True
                assert row["in_doubt"] == []
                assert row["tuples"] >= 0 and row["lsn"] >= 1

    def test_status_reports_an_unreachable_shard(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            cluster.workers[1].stop()
            with cluster.connect() as session:
                rows = {r["id"]: r for r in session.status()["shards"]}
            assert rows[0]["ok"] is True
            assert rows[1]["ok"] is False and rows[1]["error"]
            cluster.workers = cluster.workers[:1]  # already stopped

    def test_restart_recovers_catalog_and_routing(self, tmp_path):
        workers = [ShardWorker(str(tmp_path / f"shard{i}"), shard_id=i)
                   for i in range(2)]
        for worker in workers:
            worker.start()
        try:
            coordinator = Coordinator(str(tmp_path / "coord"),
                                      [w.address for w in workers])
            coordinator.start()
            with connect(*coordinator.address) as session:
                session.create_relation(_scheme())
                for i in range(8):
                    _insert(session, f"emp{i:03d}", i)
            coordinator.stop()
            again = Coordinator(str(tmp_path / "coord"),
                                [w.address for w in workers])
            again.start()
            with connect(*again.address) as session:
                assert len(session["EMP"]) == 8
                assert session.query(
                    "SELECT IF NAME = 'emp003' IN EMP").relation
            assert again.catalog.get("EMP").hashed
            again.stop()
        finally:
            for worker in workers:
                worker.stop()

    def test_restart_with_a_different_shard_count_is_refused(self, tmp_path):
        workers = [ShardWorker(str(tmp_path / f"shard{i}"), shard_id=i)
                   for i in range(2)]
        for worker in workers:
            worker.start()
        try:
            coordinator = Coordinator(str(tmp_path / "coord"),
                                      [w.address for w in workers])
            coordinator.start()
            coordinator.stop()
            with pytest.raises(ShardingError, match="shard"):
                Coordinator(str(tmp_path / "coord"), [workers[0].address])
        finally:
            for worker in workers:
                worker.stop()


class TestInDoubtResolution:
    """All three paths that settle a participant's lingering prepare."""

    def _prepare_on(self, worker, txn_id: str, name: str,
                    salary: int) -> None:
        txn = worker.db.transaction()
        txn.update("EMP", (name,), 5, {"SALARY": salary})
        txn.prepare(txn_id)

    @pytest.fixture()
    def cluster(self, tmp_path):
        with _Cluster(tmp_path) as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                _insert(session, _names_on_shard(0, 2, 1)[0], 1)
                _insert(session, _names_on_shard(1, 2, 1)[0], 1)
            yield cluster

    def test_status_probe_sweeps_in_doubt_from_the_log(self, cluster):
        worker = cluster.workers[1]
        name = _names_on_shard(1, 2, 1)[0]
        self._prepare_on(worker, "txn-sweep-commit", name, 77)
        cluster.coordinator.decisions.record("txn-sweep-commit", "commit")
        with cluster.connect() as session:
            session.status()  # the probe doubles as the lazy sweep
            _await(lambda: worker.db.in_doubt_transactions() == [])
            snap = session.query(
                "SELECT IF SALARY = 77 IN EMP").snapshot(7)
            assert len(snap) == 1

    def test_status_probe_presumes_abort_without_a_decision(self, cluster):
        worker = cluster.workers[0]
        name = _names_on_shard(0, 2, 1)[0]
        self._prepare_on(worker, "txn-coordinator-died", name, 88)
        with cluster.connect() as session:
            session.status()
            _await(lambda: worker.db.in_doubt_transactions() == [])
            assert session.query(
                "SELECT IF SALARY = 88 IN EMP").snapshot(7) is None or \
                len(session.query(
                    "SELECT IF SALARY = 88 IN EMP").snapshot(7)) == 0

    def test_worker_resolve_poll_asks_the_coordinator(self, cluster):
        worker = cluster.workers[1]
        name = _names_on_shard(1, 2, 1)[0]
        self._prepare_on(worker, "txn-poll-commit", name, 99)
        cluster.coordinator.decisions.record("txn-poll-commit", "commit")
        worker.coordinator = cluster.coordinator.address
        assert worker.resolve_in_doubt() == 1
        assert worker.db.in_doubt_transactions() == []
        with cluster.connect() as session:
            assert len(session.query(
                "SELECT IF SALARY = 99 IN EMP").snapshot(7)) == 1

    def test_ddl_to_a_shard_in_doubt_is_refused_until_decided(self, cluster):
        worker = cluster.workers[1]
        name = _names_on_shard(1, 2, 1)[0]
        self._prepare_on(worker, "txn-pins-emp", name, 55)
        evolved = RelationScheme("EMP", {
            "NAME": domains.cd(domains.STRING),
            "SALARY": domains.td(domains.INTEGER),
            "DEPT": domains.td(domains.STRING),
            "BONUS": domains.td(domains.INTEGER),
        }, key=["NAME"])
        with cluster.connect() as session:
            with pytest.raises(ConflictError, match="in-doubt"):
                session.evolve_scheme("EMP", evolved)
            for shard in cluster.workers:  # refused atomically
                assert "BONUS" not in shard.db.scheme("EMP")
            worker.db.resolve_prepared("txn-pins-emp", commit=True)
            session.evolve_scheme("EMP", evolved)
            for shard in cluster.workers:
                assert "BONUS" in shard.db.scheme("EMP")
            assert len(session.query(
                "SELECT IF SALARY = 55 IN EMP").snapshot(7)) == 1

    def test_resolve_op_answers_presumed_abort_over_the_wire(self, cluster):
        cluster.coordinator.decisions.record("txn-known", "commit")
        with cluster.connect() as session:
            known = session.request({"op": "resolve", "txn_id": "txn-known"})
            unknown = session.request({"op": "resolve",
                                       "txn_id": "txn-unknown"})
        assert known["outcome"] == "commit"
        assert unknown["outcome"] == "abort"

    def test_startup_sweep_resolves_before_serving(self, tmp_path):
        with _Cluster(tmp_path, tag="s") as cluster:
            with cluster.connect() as session:
                session.create_relation(_scheme())
                name = _names_on_shard(1, 2, 1)[0]
                _insert(session, name, 1)
            worker = cluster.workers[1]
            self._prepare_on(worker, "txn-startup", name, 55)
            cluster.coordinator.decisions.record("txn-startup", "commit")
            coordinator_path = cluster.coordinator.path
            addresses = [w.address for w in cluster.workers]
            cluster.coordinator.stop()
            # A fresh coordinator's start() sweeps before accepting.
            cluster.coordinator = Coordinator(coordinator_path, addresses)
            cluster.coordinator.start()
            _await(lambda: worker.db.in_doubt_transactions() == [])
            with cluster.connect() as session:
                assert len(session.query(
                    "SELECT IF SALARY = 55 IN EMP").snapshot(7)) == 1


# ---------------------------------------------------------------------------
# Real processes: kill -9 mid-2PC, the CLI, oracle-verified scenarios.
# ---------------------------------------------------------------------------


def _spawn(args: list, marker: str = "listening on"):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, env=env)
    assert process.stdout is not None
    line = process.stdout.readline()
    assert marker in line, f"process failed to start: {line!r}"
    return process, int(line.rsplit(":", 1)[1])


def _spawn_worker(path: str, shard_id: int, coordinator=None):
    args = ["-m", "repro.sharding", "worker", path, "--port", "0",
            "--shard-id", str(shard_id), "--sync", "always"]
    if coordinator is not None:
        args += ["--coordinator", f"{coordinator[0]}:{coordinator[1]}"]
    return _spawn(args)


def _kill9(process) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=30)


@pytest.mark.sharded
class TestKill9Mid2PC:
    def test_acked_commits_survive_and_in_doubt_resolves(self, tmp_path):
        """Kill -9 a participant holding prepares; restart it; every
        acknowledged commit is present and no in-doubt entry remains."""
        shard1_path = str(tmp_path / "shard1")
        worker0, port0 = _spawn_worker(str(tmp_path / "shard0"), 0)
        worker1, port1 = _spawn_worker(shard1_path, 1)
        coordinator = Coordinator(str(tmp_path / "coord"),
                                  [f"127.0.0.1:{port0}",
                                   f"127.0.0.1:{port1}"])
        coordinator.start()
        names0 = _names_on_shard(0, 2, 6)
        names1 = _names_on_shard(1, 2, 7)
        try:
            with connect(*coordinator.address, timeout=30.0) as session:
                session.create_relation(_scheme(), storage="disk")
                for name in (*names0, *names1):
                    _insert(session, name, 1)
                # Acknowledged cross-shard commits — must all survive.
                for i in range(5):
                    with session.transaction() as txn:
                        txn.update("EMP", (names0[i],), 5,
                                   {"SALARY": 100 + i})
                        txn.update("EMP", (names1[i],), 5,
                                   {"SALARY": 100 + i})

            # Now wedge shard 1 mid-2PC by hand: one prepare whose
            # commit decision is logged but never delivered (the
            # coordinator "crashed" between its log append and the
            # decide), and one the coordinator never decided.
            with Client("127.0.0.1", port1, timeout=30.0) as direct:
                direct.request({"op": "begin"})
                direct.update("EMP", (names1[5],), 5, {"SALARY": 500})
                direct.request({"op": "txn_prepare",
                                "txn_id": "txn-decided-lost"})
                assert direct.status()["in_doubt"] == ["txn-decided-lost"]
            coordinator.decisions.record("txn-decided-lost", "commit")
            with Client("127.0.0.1", port1, timeout=30.0) as direct:
                direct.request({"op": "begin"})
                direct.update("EMP", (names1[6],), 5, {"SALARY": 600})
                direct.request({"op": "txn_prepare",
                                "txn_id": "txn-never-decided"})

            _kill9(worker1)
            worker1, port1 = _spawn_worker(
                shard1_path, 1, coordinator=coordinator.address)
            # The restarted worker recovered both prepares in doubt; its
            # RESOLVE poll (and the coordinator's STATUS sweep) settle
            # them: logged commit applies, the orphan presumed-aborts.
            coordinator.shards[1] = [("127.0.0.1", port1)]

            def settled() -> bool:
                with Client("127.0.0.1", port1, timeout=30.0) as direct:
                    return direct.status()["in_doubt"] == []

            _await(settled)
            with connect(*coordinator.address, timeout=30.0) as session:
                session.status()  # one sweep, in case the poll raced us
                snap = session.query(
                    "SELECT IF SALARY >= 100 IN EMP").snapshot(7)
                by_name = {t["NAME"]: t["SALARY"] for t in snap}
            for i in range(5):  # every acked cross-shard commit, intact
                assert by_name[names0[i]] == 100 + i
                assert by_name[names1[i]] == 100 + i
            assert by_name[names1[5]] == 500   # decision log won
            assert names1[6] not in by_name    # presumed abort held
        finally:
            coordinator.stop()
            for process in (worker0, worker1):
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)

    def test_cli_cluster_end_to_end(self, tmp_path):
        """worker + coordinator subcommands, driven like an operator."""
        worker0, port0 = _spawn_worker(str(tmp_path / "shard0"), 0)
        worker1, port1 = _spawn_worker(str(tmp_path / "shard1"), 1)
        coordinator, cport = _spawn(
            ["-m", "repro.sharding", "coordinator",
             str(tmp_path / "coord"), "--port", "0",
             "--shard", f"127.0.0.1:{port0}",
             "--shard", f"127.0.0.1:{port1}",
             "--broadcast", "DEPT"])
        try:
            with connect("127.0.0.1", cport, timeout=30.0) as session:
                assert session.status()["role"] == "coordinator"
                session.create_relation(_scheme())
                for i in range(10):
                    _insert(session, f"emp{i:03d}", i)
                assert len(session["EMP"]) == 10
                assert len(session.query(
                    "SELECT IF SALARY >= 5 IN EMP").snapshot(5)) == 5
        finally:
            for process in (coordinator, worker0, worker1):
                process.terminate()
            for process in (coordinator, worker0, worker1):
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=30)


@pytest.mark.sharded
class TestShardedScenarios:
    def test_hr_rehires_two_shards_oracle_verified(self, tmp_path):
        result = run_scenario("hr_rehires", Knobs(ops_per_persona=25),
                              engine="sharded", storage="memory",
                              path=str(tmp_path / "hr"), shards=2)
        assert result.verified
        assert all(s.failures == 0 for s in result.personas.values())

    def test_enrollment_churn_broadcast_dimensions(self, tmp_path):
        result = run_scenario("enrollment_churn", Knobs(ops_per_persona=25),
                              engine="sharded", storage="memory",
                              path=str(tmp_path / "enroll"), shards=3)
        assert result.verified
        assert all(s.failures == 0 for s in result.personas.values())
