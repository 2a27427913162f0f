"""Concurrency: snapshot isolation, COW clones, MVCC commits.

The acceptance bar for the service subsystem: packs of reader threads
racing committing writers over memory *and* disk relations must only
ever observe committed snapshots (no torn transactions), and the final
state must equal a serial replay of the acknowledged commits. Every
stress run also feeds a per-session operation history to the
snapshot-isolation oracle (``repro.workloads.oracle``), which
re-checks the invariants post-hoc from the recorded schedule. The unit
tests pin the mechanisms underneath — frozen stored relations, page
copy-on-write clones, and the published read environment.
(``tests/test_mvcc.py`` covers the writer-writer conflict side.)
"""

from __future__ import annotations

import threading

import pytest

from repro.core import domains
from repro.core.errors import ConflictError, StorageError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.database import HistoricalDatabase
from repro.storage.engine import StoredRelation

from repro.workloads.oracle import HistoryOracle

#: Generous upper bound for joining worker threads — a deadlock fails
#: the test instead of hanging the suite.
JOIN_TIMEOUT = 60.0


def _scheme(name: str) -> RelationScheme:
    return RelationScheme(name, {
        "K": domains.cd(domains.INTEGER),
        "V": domains.td(domains.INTEGER),
    }, key=["K"])


def _tuple(scheme: RelationScheme, k: int, v: int) -> HistoricalTuple:
    ls = Lifespan.interval(0, 9)
    return HistoricalTuple.build(scheme, ls, {"K": k, "V": v})


def _join(threads):
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "worker thread deadlocked"


# ---------------------------------------------------------------------------
# Copy-on-write snapshot clones of stored relations.
# ---------------------------------------------------------------------------


class TestCowClone:
    def _stored(self, n: int = 20) -> StoredRelation:
        scheme = _scheme("S")
        stored = StoredRelation(scheme, page_size=512)
        for i in range(n):
            stored.insert(_tuple(scheme, i, i * 10))
        return stored

    def test_frozen_relation_refuses_mutation(self):
        stored = self._stored()
        stored.freeze()
        with pytest.raises(StorageError):
            stored.insert(_tuple(stored.scheme, 99, 0))
        with pytest.raises(StorageError):
            stored.delete(0)
        with pytest.raises(StorageError):
            stored.replace(_tuple(stored.scheme, 1, 1))
        with pytest.raises(StorageError):
            stored.compact()

    def test_clone_mutations_invisible_to_original(self):
        stored = self._stored()
        stored.freeze()
        before = {t.key_value(): t for t in stored.scan()}
        clone = stored.cow_clone()
        clone.replace(_tuple(stored.scheme, 3, 999))
        clone.insert(_tuple(stored.scheme, 100, 1))
        clone.delete(7)
        after = {t.key_value(): t for t in stored.scan()}
        assert after == before  # the frozen snapshot never moved
        assert clone.get(3).value("V")(0) == 999
        assert clone.get(100) is not None
        assert clone.get(7) is None
        assert stored.get(3).value("V")(0) == 30
        assert stored.get(7) is not None

    def test_clone_shares_untouched_pages(self):
        stored = self._stored(n=50)
        stored.freeze()
        clone = stored.cow_clone()
        shared_before = len(clone._heap._shared)
        assert shared_before == len(stored._heap._pages) > 1
        clone.replace(_tuple(stored.scheme, 0, 1))  # touches few pages
        assert len(clone._heap._shared) >= shared_before - 2
        assert any(clone._heap._pages[i] is stored._heap._pages[i]
                   for i in clone._heap._shared)

    def test_clone_answers_equal_original_before_divergence(self):
        stored = self._stored()
        stored.freeze()
        clone = stored.cow_clone()
        assert clone.to_relation() == stored.to_relation()
        assert clone.alive_at(5) == stored.alive_at(5)

    def test_reads_on_frozen_snapshot_still_work(self):
        stored = self._stored()
        stored.freeze()
        # caching reads, index rebuilds, and stats are all legal on a
        # frozen snapshot — they replace whole objects, never answers.
        assert len(stored.alive_at(0)) == 20
        assert stored.statistics().n_tuples == 20
        assert len(list(stored.scan())) == 20


# ---------------------------------------------------------------------------
# The published read environment.
# ---------------------------------------------------------------------------


class TestPublishedEnvironment:
    def _db(self) -> HistoricalDatabase:
        db = HistoricalDatabase("iso")
        db.create_relation(_scheme("R"), storage="memory")
        db.create_relation(_scheme("S"), storage="disk")
        return db

    def test_env_is_a_committed_cut(self):
        db = self._db()
        env_before = db._env()
        db.insert("R", Lifespan.interval(0, 9), {"K": 1, "V": 1})
        env_after = db._env()
        assert env_after is not env_before
        assert len(env_before["R"]) == 0  # the old snapshot never moves
        assert len(env_after["R"]) == 1

    def test_unchanged_relations_keep_their_objects(self):
        db = self._db()
        env_before = db._env()
        db.insert("R", Lifespan.interval(0, 9), {"K": 1, "V": 1})
        env_after = db._env()
        assert env_after["S"] is env_before["S"]  # untouched ⇒ same object
        assert env_after["R"] is not env_before["R"]

    def test_failed_commit_publishes_nothing(self):
        db = self._db()
        db.insert("S", Lifespan.interval(0, 9), {"K": 1, "V": 1})
        env = db._env()
        with pytest.raises(Exception):
            db.insert("S", Lifespan.interval(0, 9), {"K": 1, "V": 2})
        assert db._env() is env  # duplicate birth: no publish

    def test_transaction_publishes_once_atomically(self):
        db = self._db()
        published_before = db._concurrency.published_commits
        with db.transaction() as txn:
            for i in range(5):
                txn.insert("R", Lifespan.interval(0, 9), {"K": i, "V": i})
                txn.insert("S", Lifespan.interval(0, 9), {"K": i, "V": i})
        assert db._concurrency.published_commits == published_before + 1
        env = db._env()
        assert len(env["R"]) == len(env["S"]) == 5

    def test_disk_mutation_after_query_does_not_disturb_snapshot(self):
        db = self._db()
        for i in range(8):
            db.insert("S", Lifespan.interval(0, 9), {"K": i, "V": i})
        snapshot = db._env()["S"]
        rows_before = {t.key_value() for t in snapshot}
        db.insert("S", Lifespan.interval(0, 9), {"K": 99, "V": 99})
        db.terminate("S", (3,), at=5)
        assert {t.key_value() for t in snapshot} == rows_before
        assert len(db._env()["S"]) == 9


# ---------------------------------------------------------------------------
# The stress test: ≥8 concurrent readers + 1 writer, memory and disk.
# ---------------------------------------------------------------------------


N_READERS = 8
N_COMMITS = 120


class TestReadersWriterStress:
    """Every read observes a committed snapshot; final state equals a
    serial replay of the acknowledged commits."""

    def _run_stress(self, db: HistoricalDatabase) -> list[int]:
        """One writer committing [R+S] transactions against N_READERS
        snapshot readers. Returns the acknowledged commit sequence."""
        acked: list[int] = []
        failures: list[str] = []
        done = threading.Event()
        oracle = HistoryOracle()

        def writer():
            try:
                for i in range(N_COMMITS):
                    txn = db.transaction()
                    txn.insert("R", Lifespan.interval(0, 9),
                               {"K": i, "V": i * 10})
                    txn.insert("S", Lifespan.interval(0, 9),
                               {"K": i, "V": i * 10})
                    oracle.begin_commit("writer", {"R": {i}, "S": {i}})
                    txn.commit()
                    oracle.committed("writer")
                    acked.append(i)
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"writer: {exc!r}")
            finally:
                done.set()

        def reader(seed: int):
            try:
                observed = 0
                while True:
                    finished = done.is_set()  # read before the snapshot
                    env = db._env()
                    r, s = env["R"], env["S"]
                    # Atomic cut: the transaction touched both relations,
                    # so a torn snapshot would show unequal counts.
                    r_keys = {t.key_value()[0] for t in r}
                    s_keys = {t.key_value()[0] for t in s}
                    oracle.observed(f"reader-{seed}",
                                    {"R": r_keys, "S": s_keys})
                    if r_keys != s_keys:
                        failures.append(
                            f"reader {seed}: torn transaction "
                            f"(|R|={len(r_keys)}, |S|={len(s_keys)})")
                        return
                    # Committed prefix: inserts are sequential, so any
                    # committed snapshot holds exactly {0..k-1}.
                    if r_keys != set(range(len(r_keys))):
                        failures.append(
                            f"reader {seed}: non-prefix snapshot {sorted(r_keys)[:5]}...")
                        return
                    # And the planner path reads the same snapshot.
                    if seed % 2 == 0:
                        result = db.query("SELECT IF V >= 0 IN S")
                        if len(result.relation) < observed:
                            failures.append(
                                f"reader {seed}: snapshot went backwards")
                            return
                        observed = len(result.relation)
                    if finished:
                        return
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"reader {seed}: {exc!r}")

        readers = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(N_READERS)]
        writer_thread = threading.Thread(target=writer, daemon=True)
        for thread in readers:
            thread.start()
        writer_thread.start()
        _join([writer_thread, *readers])
        assert not failures, failures[:3]
        oracle.verify(invariant=lambda cut: cut["R"] == cut["S"])
        return acked

    def _assert_serial_replay(self, db: HistoricalDatabase,
                              acked: list[int]) -> None:
        assert acked == list(range(N_COMMITS))  # every commit acknowledged
        replay = HistoricalDatabase("replay")
        replay.create_relation(_scheme("R"), storage="memory")
        replay.create_relation(_scheme("S"), storage="disk")
        for i in acked:
            with replay.transaction() as txn:
                txn.insert("R", Lifespan.interval(0, 9), {"K": i, "V": i * 10})
                txn.insert("S", Lifespan.interval(0, 9), {"K": i, "V": i * 10})
        for name in ("R", "S"):
            assert set(iter(db[name])) == set(iter(replay[name]))

    def test_ephemeral_stress(self):
        db = HistoricalDatabase("stress")
        db.create_relation(_scheme("R"), storage="memory")
        db.create_relation(_scheme("S"), storage="disk")
        acked = self._run_stress(db)
        self._assert_serial_replay(db, acked)

    def test_durable_stress_with_group_commit(self, tmp_path):
        db = HistoricalDatabase(path=str(tmp_path / "db"),
                                sync="batch", wal_batch_size=16)
        db.create_relation(_scheme("R"), storage="memory")
        db.create_relation(_scheme("S"), storage="disk")
        acked = self._run_stress(db)
        self._assert_serial_replay(db, acked)
        db.flush()
        db.close()
        reopened = HistoricalDatabase(path=str(tmp_path / "db"))
        try:
            assert {t.key_value()[0] for t in reopened["S"]} == set(acked)
            assert {t.key_value()[0] for t in reopened["R"]} == set(acked)
        finally:
            reopened.close()

    def test_concurrent_autocommit_writers_serialize(self):
        db = HistoricalDatabase("writers")
        db.create_relation(_scheme("R"), storage="disk")
        failures: list[str] = []

        def writer(base: int):
            try:
                for i in range(40):
                    db.insert("R", Lifespan.interval(0, 9),
                              {"K": base + i, "V": i})
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(repr(exc))

        threads = [threading.Thread(target=writer, args=(base,), daemon=True)
                   for base in (0, 1000, 2000, 3000)]
        for thread in threads:
            thread.start()
        _join(threads)
        assert not failures, failures
        assert len(db["R"]) == 160
        expected = {base + i for base in (0, 1000, 2000, 3000)
                    for i in range(40)}
        assert {t.key_value()[0] for t in db["R"]} == expected

    def test_conflicting_writers_with_oracle(self):
        """Writers racing over one shared key pool: every commit either
        acks or aborts with the typed conflict, retries converge, and
        the oracle certifies no observer ever saw an aborted write."""
        db = HistoricalDatabase("conflict-stress")
        db.create_relation(_scheme("R"), storage="disk")
        oracle = HistoryOracle()
        failures: list[str] = []
        conflicts = [0] * 4
        done = threading.Event()
        pool = list(range(24))

        def writer(w: int):
            name = f"writer-{w}"
            try:
                # Every writer races to birth every pool key: exactly
                # one birth per key can land, the rest must lose either
                # the optimistic race (ConflictError, retried) or the
                # serial duplicate check (RelationError, key is done).
                for key in pool:
                    while True:
                        txn = db.transaction()
                        try:
                            txn.insert("R", Lifespan.interval(0, 9),
                                       {"K": key, "V": w})
                        except Exception:
                            txn.rollback()  # born already: key is done
                            break
                        oracle.begin_commit(name, {"R": {key}})
                        try:
                            txn.commit()
                        except ConflictError:
                            oracle.aborted(name)
                            conflicts[w] += 1
                            continue  # retry against a fresh snapshot
                        oracle.committed(name)
                        break
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"{name}: {exc!r}")

        def reader(seed: int):
            try:
                while True:
                    finished = done.is_set()
                    keys = {t.key_value()[0] for t in db._env()["R"]}
                    oracle.observed(f"reader-{seed}", {"R": keys})
                    if finished:
                        return
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"reader {seed}: {exc!r}")

        readers = [threading.Thread(target=reader, args=(i,), daemon=True)
                   for i in range(2)]
        writers = [threading.Thread(target=writer, args=(w,), daemon=True)
                   for w in range(4)]
        for thread in readers + writers:
            thread.start()
        _join(writers)
        done.set()
        _join(readers)
        assert not failures, failures[:3]
        assert {t.key_value()[0] for t in db["R"]} == set(pool)  # converged
        oracle.verify()


# ---------------------------------------------------------------------------
# Mutation-after-close: one consistent error from every entry point.
# ---------------------------------------------------------------------------


def _closed_db(tmp_path) -> HistoricalDatabase:
    db = HistoricalDatabase(path=str(tmp_path / "db"))
    db.create_relation(_scheme("R"), storage="memory")
    db.insert("R", Lifespan.interval(0, 9), {"K": 1, "V": 1})
    db.close()
    return db


_EVOLVED = RelationScheme("R", {
    "K": domains.cd(domains.INTEGER),
    "V": domains.td(domains.INTEGER),
    "W": domains.td(domains.INTEGER),
}, key=["K"])

MUTATIONS = {
    "insert": lambda db: db.insert(
        "R", Lifespan.interval(0, 9), {"K": 2, "V": 2}),
    "update": lambda db: db.update("R", (1,), 5, {"V": 9}),
    "terminate": lambda db: db.terminate("R", (1,), 5),
    "reincarnate": lambda db: db.reincarnate(
        "R", (1,), Lifespan.interval(20, 29), {"K": 1, "V": 3}),
    "evolve": lambda db: db.evolve_scheme("R", _EVOLVED),
    "replace": lambda db: db.replace("R", db["R"].to_relation()
                                     if hasattr(db["R"], "to_relation")
                                     else db["R"]),
    "create": lambda db: db.create_relation(_scheme("T")),
    "drop": lambda db: db.drop_relation("R"),
    "transaction": lambda db: db.transaction(),
    "checkpoint": lambda db: db.checkpoint(),
    "flush": lambda db: db.flush(),
}


class TestMutationAfterClose:
    @pytest.mark.parametrize("entry_point", sorted(MUTATIONS))
    def test_every_entry_point_raises_storage_error(self, tmp_path,
                                                    entry_point):
        db = _closed_db(tmp_path)
        with pytest.raises(StorageError):
            MUTATIONS[entry_point](db)

    def test_open_transaction_commit_fails_after_close(self, tmp_path):
        db = HistoricalDatabase(path=str(tmp_path / "db"))
        db.create_relation(_scheme("R"), storage="memory")
        txn = db.transaction()
        txn.insert("R", Lifespan.interval(0, 9), {"K": 1, "V": 1})
        db.close()
        with pytest.raises(StorageError):
            txn.commit()

    def test_catalog_untouched_by_post_close_commit_attempt(self, tmp_path):
        db = HistoricalDatabase(path=str(tmp_path / "db"))
        db.create_relation(_scheme("R"), storage="memory")
        txn = db.transaction()
        txn.insert("R", Lifespan.interval(0, 9), {"K": 7, "V": 7})
        db.close()
        with pytest.raises(StorageError):
            txn.commit()
        reopened = HistoricalDatabase(path=str(tmp_path / "db"))
        try:
            assert len(reopened["R"]) == 0
        finally:
            reopened.close()

    def test_reads_still_work_after_close(self, tmp_path):
        db = _closed_db(tmp_path)
        assert len(db["R"]) == 1
        assert len(db.query("SELECT IF V >= 0 IN R").relation) == 1
