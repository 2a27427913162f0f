"""The commit contract, table-driven.

Every way a catalog changes runs through one pipeline
(``HistoricalDatabase._commit``), so one table pins one contract for
all of them, on both storage kinds:

* **success** — the expected number of WAL records (one, or PREPARE +
  decision for a two-phase round), the expected number of publishes
  (and plan-cache version bumps), the published cut equal to the
  backends, and the reopened catalog equal to the live one;
* **a failing constraint** and **an injected WAL write fault** — the
  catalog cut, ``published_commits``, the WAL position and the version
  all unchanged, and the next commit still succeeds and reopens.
"""

import threading

import pytest

from repro.core import domains as d
from repro.core.errors import (ConflictError, IntegrityError, QueryError,
                               RelationError, StorageError)
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.database import Constraint, HistoricalDatabase
from repro.database.session import Transaction
from repro.faults import FaultSchedule, injected
from repro.storage import pager as pager_mod
from repro.storage.engine import encode_tuple

SPAN = Lifespan.interval(0, 9)


def _scheme(name: str, *extra: str) -> RelationScheme:
    attributes = {"NAME": d.cd(d.STRING), "SALARY": d.td(d.INTEGER)}
    attributes.update((a, d.td(d.INTEGER)) for a in extra)
    return RelationScheme(name, attributes, key=["NAME"])


def _row(name: str, salary: int = 1) -> dict:
    return {"NAME": name, "SALARY": salary}


class Veto(Constraint):
    """Passes until armed, then fails every sweep."""

    name = "veto"
    armed = False

    def check(self, db) -> None:
        if self.armed:
            raise IntegrityError("vetoed")


def _two_phase(commit: bool):
    def run(db, storage):
        txn = db.transaction()
        txn.insert("EMP", SPAN, _row("b"))
        txn.update("AUX", ("x",), 5, {"SALARY": 7})
        txn.prepare("t1")
        db.resolve_prepared("t1", commit)
    return run


def _batch(db, storage):
    with db.transaction() as txn:
        txn.insert("EMP", SPAN, _row("b"))
        txn.evolve_scheme("AUX", _scheme("AUX", "BONUS"))
        txn.update("AUX", ("x",), 5, {"BONUS": 3})


#: entry point → (run(db, storage), WAL records, publishes) on success.
ENTRY_POINTS = {
    "create_relation": (lambda db, storage: db.create_relation(
        _scheme("NEW"), [HistoricalTuple.build(_scheme("NEW"), SPAN,
                                               _row("n"))],
        storage=storage), 1, 1),
    "drop_relation": (lambda db, storage: db.drop_relation("AUX"), 1, 1),
    "replace": (lambda db, storage: db.replace("EMP", HistoricalRelation(
        _scheme("EMP"), [HistoricalTuple.build(_scheme("EMP"), SPAN,
                                               _row("only"))])), 1, 1),
    "evolve_scheme": (lambda db, storage: db.evolve_scheme(
        "EMP", _scheme("EMP", "BONUS")), 1, 1),
    "insert": (lambda db, storage: db.insert("EMP", SPAN, _row("b")), 1, 1),
    "update": (lambda db, storage: db.update(
        "EMP", ("a",), 5, {"SALARY": 2}), 1, 1),
    "terminate": (lambda db, storage: db.terminate("EMP", ("a",), 5), 1, 1),
    "reincarnate": (lambda db, storage: db.reincarnate(
        "EMP", ("a",), Lifespan.interval(20, 29), _row("a", 3)), 1, 1),
    "transaction": (_batch, 1, 1),
    "prepare_commit": (_two_phase(True), 2, 1),
    "prepare_abort": (_two_phase(False), 2, 0),
}


def _cut(catalog) -> dict:
    """name → (scheme, exact record encodings) of a name → relation map."""
    return {name: (pager_mod.scheme_to_json(relation.scheme),
                   sorted(encode_tuple(t) for t in relation))
            for name, relation in catalog.items()}


def _counters(db) -> tuple:
    return (db._concurrency.published_commits, db._durability.position)


def _assert_consistent(db, path: str) -> None:
    """Readers, backends and a cold reopen all agree."""
    live = _cut(db.relations())
    assert live == _cut({name: db[name] for name in db})
    assert db.in_doubt_transactions() == []
    db.close()
    reopened = HistoricalDatabase(path=path)
    try:
        assert _cut(reopened.relations()) == live
        assert reopened.in_doubt_transactions() == []
    finally:
        reopened.close()


@pytest.fixture(params=["memory", "disk"])
def storage(request):
    return request.param


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "db")


@pytest.fixture
def db(path, storage):
    database = HistoricalDatabase(path=path, sync="always")
    database.create_relation(_scheme("EMP"), storage=storage)
    database.create_relation(_scheme("AUX"), storage=storage)
    database.insert("EMP", SPAN, _row("a"))
    database.insert("EMP", SPAN, _row("d"))
    database.insert("AUX", SPAN, _row("x"))
    yield database
    database.close()


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
class TestCommitContract:
    def test_success_is_one_record_one_publish(self, db, path, storage,
                                               entry_point):
        run, records, publishes = ENTRY_POINTS[entry_point]
        before = _cut(db.relations())
        published, (generation, lsn) = _counters(db)
        run(db, storage)
        assert _counters(db) == (published + publishes,
                                 (generation, lsn + records))
        assert (_cut(db.relations()) != before) == bool(publishes)
        _assert_consistent(db, path)

    def test_failing_constraint_leaves_no_trace(self, db, path, storage,
                                                entry_point):
        run = ENTRY_POINTS[entry_point][0]
        veto = Veto()
        db.add_constraint(veto)
        before, counters = _cut(db.relations()), _counters(db)
        veto.armed = True
        # drop_relation reports a refused drop as a RelationError.
        with pytest.raises((IntegrityError, RelationError)):
            run(db, storage)
        veto.armed = False
        self._assert_untouched_then_commits(db, path, before, counters)

    def test_wal_write_fault_leaves_no_trace(self, db, path, storage,
                                             entry_point):
        run = ENTRY_POINTS[entry_point][0]
        before, counters = _cut(db.relations()), _counters(db)
        with injected(FaultSchedule().fail("wal", "write", count=1)):
            with pytest.raises((OSError, StorageError)):
                run(db, storage)
        self._assert_untouched_then_commits(db, path, before, counters)

    @staticmethod
    def _assert_untouched_then_commits(db, path, before, counters) -> None:
        assert _cut(db.relations()) == before
        assert _cut({name: db[name] for name in db}) == before
        assert _counters(db) == counters
        db.insert("EMP", SPAN, _row("next"))
        assert db["EMP"].get("next") is not None
        _assert_consistent(db, path)


class TestDecisionLogFault:
    @pytest.mark.parametrize("commit", [True, False])
    def test_failed_decision_keeps_the_stash_and_retries(self, db, path,
                                                         commit):
        txn = db.transaction()
        txn.insert("EMP", SPAN, _row("b"))
        txn.prepare("t1")
        before, counters = _cut(db.relations()), _counters(db)
        with injected(FaultSchedule().fail("wal", "write", count=1)):
            with pytest.raises((OSError, StorageError)):
                db.resolve_prepared("t1", commit)
        assert db.in_doubt_transactions() == ["t1"]
        assert (_cut(db.relations()), _counters(db)) == (before, counters)
        with pytest.raises(ConflictError, match="in-doubt"):
            db.insert("EMP", SPAN, _row("b"))
        db.resolve_prepared("t1", commit)
        assert (db["EMP"].get("b") is not None) == commit
        _assert_consistent(db, path)


class TestPessimisticRelationWrites:
    """``evolve_scheme`` re-homes the live relation with the commit lock
    held, so ordinary keyed write traffic can neither make it lose a
    first-committer-wins race nor be lost under it."""

    def test_evolve_under_concurrent_writers_never_conflicts(self, storage):
        db = HistoricalDatabase("t")
        db.create_relation(_scheme("EMP"), storage=storage)
        with db.transaction() as txn:
            for i in range(1000):
                txn.insert("EMP", SPAN, _row(f"n{i}"))
        stop = threading.Event()
        acked = [{}, {}]
        failures = []

        def writer(slot: int) -> None:
            salary = 1
            try:
                while not stop.is_set():
                    salary += 1
                    key = f"n{slot * 500 + salary % 500}"
                    db.update("EMP", (key,), 5, {"SALARY": salary})
                    acked[slot][key] = salary
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        try:
            for round_ in range(6):
                extra = ("BONUS",) if round_ % 2 == 0 else ()
                db.evolve_scheme("EMP", _scheme("EMP", *extra))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert failures == []
        assert acked[0] and acked[1]
        for key, salary in {**acked[0], **acked[1]}.items():
            assert db["EMP"].get(key).at("SALARY", 5) == salary

    def test_a_racing_drop_is_not_reported_as_a_constraint(self, db):
        db.drop_relation("AUX")
        with pytest.raises(RelationError, match="no relation named"):
            db.drop_relation("AUX")

    def test_any_sweep_failure_refuses_the_drop(self, db):
        class Stale(Constraint):
            name = "stale"

            def check(self, db) -> None:
                if "AUX" not in db:
                    raise QueryError("AUX is gone")

        db.add_constraint(Stale())
        with pytest.raises(RelationError, match="a registered constraint "
                                                "still references it"):
            db.drop_relation("AUX")
        assert "AUX" in db


class TestTracerContract:
    """``benchmarks/account/trace.py`` patches ``vars(owner)[name]``: the
    spanned entry points must stay defined on their own class."""

    def test_spanned_entry_points_live_in_their_class_dict(self):
        for method in ("insert", "update", "terminate", "reincarnate",
                       "evolve_scheme", "checkpoint"):
            assert method in vars(HistoricalDatabase)
        assert "commit" in vars(Transaction)

    def test_autocommit_never_goes_through_transaction_commit(
            self, db, monkeypatch):
        def forbidden(self):
            raise AssertionError("auto-commit reached Transaction.commit")
        monkeypatch.setattr(Transaction, "commit", forbidden)
        db.insert("EMP", SPAN, _row("b"))
        db.evolve_scheme("EMP", _scheme("EMP", "BONUS"))
        assert db["EMP"].get("b") is not None
