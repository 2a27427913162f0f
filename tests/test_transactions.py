"""Tests for transactional sessions: buffering, commit, atomic rollback."""

import pytest

from repro.core import domains as d
from repro.core.errors import IntegrityError, RelationError, TransactionError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.database import HistoricalDatabase, NonDecreasing
from repro.database.evolution import add_attribute


@pytest.fixture
def scheme():
    return RelationScheme(
        "EMP",
        {"NAME": d.cd(d.STRING), "SALARY": d.td(d.INTEGER)},
        key=["NAME"],
    )


@pytest.fixture(params=["memory", "disk"])
def db(request, scheme):
    database = HistoricalDatabase("test")
    database.create_relation(scheme, storage=request.param)
    return database


class TestCommit:
    def test_commit_applies_all_buffered_mutations(self, db):
        with db.transaction() as txn:
            txn.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 10})
            txn.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Bob", "SALARY": 20})
            txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 30})
        assert len(db["EMP"]) == 2
        assert db["EMP"].get("Ada").at("SALARY", 60) == 30
        assert db["EMP"].get("Bob").at("SALARY", 60) == 20

    def test_nothing_visible_before_commit(self, db):
        txn = db.transaction()
        txn.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 10})
        assert len(db["EMP"]) == 0
        txn.commit()
        assert len(db["EMP"]) == 1

    def test_reads_see_own_writes(self, db):
        with db.transaction() as txn:
            txn.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 10})
            assert txn.get("EMP", "Ada") is not None
            t = txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 30})
            assert txn.get("EMP", "Ada") == t

    def test_terminate_and_reincarnate_buffered(self, db):
        db.insert("EMP", Lifespan.interval(0, 49), {"NAME": "Ada", "SALARY": 10})
        with db.transaction() as txn:
            txn.terminate("EMP", ("Ada",), at=30)
            txn.reincarnate("EMP", ("Ada",), Lifespan.interval(40, 60),
                            {"NAME": "Ada", "SALARY": 20})
        t = db["EMP"].get("Ada")
        assert t.lifespan == Lifespan((0, 29), (40, 60))
        assert t.at("SALARY", 50) == 20

    def test_empty_transaction_commits_quietly(self, db):
        with db.transaction():
            pass
        assert len(db["EMP"]) == 0

    def test_commit_is_single_shot(self, db):
        txn = db.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("EMP", Lifespan.interval(0, 9), {"NAME": "A", "SALARY": 1})
        with pytest.raises(TransactionError):
            txn.commit()

    def test_constraints_checked_once_at_commit(self, db):
        # Intermediate states may violate; only the committed state counts.
        db.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 50})
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        with db.transaction() as txn:
            # Buffer a decrease, then repair it before commit.
            txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 10})
            txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 60})
        assert db["EMP"].get("Ada").at("SALARY", 60) == 60

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_batched_load_equals_per_call_load(self, scheme, storage):
        """A bulk load through one transaction (one constraint sweep)
        commits exactly what the same inserts auto-committed one by one
        (one sweep each) do."""
        rows = [(Lifespan.interval(i, i + 20), {"NAME": f"E{i:02d}",
                                                 "SALARY": 100 * i})
                for i in range(25)]
        per_call, batched = (HistoricalDatabase(name) for name in "pb")
        for database in (per_call, batched):
            database.create_relation(scheme, storage=storage)
            database.add_constraint(NonDecreasing("EMP", "SALARY"))
        for lifespan, values in rows:
            per_call.insert("EMP", lifespan, values)
        with batched.transaction() as txn:
            for lifespan, values in rows:
                txn.insert("EMP", lifespan, values)
        assert len(batched["EMP"]) == len(rows)
        assert set(batched["EMP"]) == set(per_call["EMP"])


class TestRollback:
    def test_exception_rolls_back(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("EMP", Lifespan.interval(0, 99),
                           {"NAME": "Ada", "SALARY": 10})
                raise RuntimeError("abort")
        assert len(db["EMP"]) == 0

    def test_explicit_rollback(self, db):
        with db.transaction() as txn:
            txn.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 10})
            txn.rollback()
        assert len(db["EMP"]) == 0
        assert txn.state == "rolled-back"

    def test_constraint_violation_at_commit_restores_catalog(self, db):
        db.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 50})
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        before = db["EMP"]
        with pytest.raises(IntegrityError):
            with db.transaction() as txn:
                txn.insert("EMP", Lifespan.interval(0, 99),
                           {"NAME": "Bob", "SALARY": 20})
                txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 5})
        assert db["EMP"].get("Bob") is None
        assert db["EMP"].get("Ada").at("SALARY", 60) == 50
        if db.storage("EMP") == "memory":
            assert db["EMP"] is before  # the exact prior relation object

    def test_failed_commit_marks_transaction_dead(self, db):
        db.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 50})
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        txn = db.transaction()
        txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 5})
        with pytest.raises(IntegrityError):
            txn.commit()
        assert txn.state == "rolled-back"
        with pytest.raises(TransactionError):
            txn.commit()

    def test_no_phantom_reads_after_commit_or_failure(self, db):
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        txn = db.transaction()
        txn.insert("EMP", Lifespan.interval(0, 9), {"NAME": "Ada", "SALARY": 1})
        txn.commit()
        with pytest.raises(TransactionError):
            txn.get("EMP", "Ada")
        failing = db.transaction()
        failing.update("EMP", ("Ada",), at=5, changes={"SALARY": 0})
        with pytest.raises(IntegrityError):
            failing.commit()
        with pytest.raises(TransactionError):
            failing.get("EMP", "Ada")
        with pytest.raises(TransactionError):
            failing.scheme("EMP")

    def test_multi_relation_rollback_restores_every_relation(self, db, scheme):
        other = RelationScheme(
            "DEPT", {"DNAME": d.cd(d.STRING), "HEAD": d.td(d.STRING)},
            key=["DNAME"],
        )
        db.create_relation(other)
        db.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 50})
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        with pytest.raises(IntegrityError):
            with db.transaction() as txn:
                txn.insert("DEPT", Lifespan.interval(0, 99),
                           {"DNAME": "Toys", "HEAD": "Ada"})
                txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 5})
        assert len(db["DEPT"]) == 0
        assert db["EMP"].get("Ada").at("SALARY", 60) == 50


class TestEvolveInTransaction:
    def test_buffered_evolution_applies_at_commit(self, db, scheme):
        db.insert("EMP", Lifespan.interval(0, 99), {"NAME": "Ada", "SALARY": 10})
        evolved = add_attribute(scheme, "DEPT", d.td(d.STRING), since=50)
        with db.transaction() as txn:
            txn.evolve_scheme("EMP", evolved)
            assert "DEPT" in txn.scheme("EMP")
            txn.update("EMP", ("Ada",), at=60, changes={"DEPT": "Toys"})
        assert "DEPT" in db.scheme("EMP")
        assert db["EMP"].get("Ada").at("DEPT", 70) == "Toys"

    def test_rolled_back_evolution_leaves_scheme(self, db, scheme):
        evolved = add_attribute(scheme, "DEPT", d.td(d.STRING), since=50)
        with db.transaction() as txn:
            txn.evolve_scheme("EMP", evolved)
            txn.rollback()
        assert "DEPT" not in db.scheme("EMP")


class TestTransactionErrors:
    def test_unknown_relation(self, db):
        with db.transaction() as txn:
            with pytest.raises(RelationError):
                txn.insert("NOPE", Lifespan.interval(0, 9), {"X": 1})

    def test_illegal_buffered_mutation_surfaces_immediately(self, db):
        with db.transaction() as txn:
            txn.insert("EMP", Lifespan.interval(0, 9), {"NAME": "A", "SALARY": 1})
            with pytest.raises(RelationError):
                txn.insert("EMP", Lifespan.interval(20, 29),
                           {"NAME": "A", "SALARY": 2})
        # The legal part still committed.
        assert len(db["EMP"]) == 1
