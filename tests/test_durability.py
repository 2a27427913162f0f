"""Durable databases: open/close, checkpoints, and crash recovery.

The heart of this file is the kill-9-at-random-offset property test:
run a scripted history of commits against a durable database with
``sync="always"`` (so every acknowledged commit is a WAL frame on
disk), then simulate a crash by truncating — or corrupting — a *copy*
of the directory's log at an arbitrary byte offset, reopen, and check
the recovered catalog equals the state after the last commit whose
frame survived intact. Both recovery paths are covered: pure WAL
replay, and checkpoint snapshot + WAL tail (including databases whose
relations live on the memory backend).
"""

import os
import random
import shutil

import pytest

from repro.core import domains as d
from repro.core.errors import RecoveryError, RelationError, StorageError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.time_domain import TimeDomain
from repro.database import HistoricalDatabase, add_attribute
from repro.storage.pager import WAL_FILE, Pager


def _scheme(name="EMP"):
    from repro.core.scheme import RelationScheme

    return RelationScheme(
        name,
        {"NAME": d.cd(d.STRING), "SALARY": d.td(d.INTEGER),
         "DEPT": d.td(d.STRING)},
        key=["NAME"],
    )


def _catalog_state(db):
    """The comparable value of the whole catalog."""
    state = {}
    for name in db:
        relation = db[name]
        if not isinstance(relation, HistoricalRelation):
            relation = relation.to_relation()
        state[name] = (db.storage(name), relation)
    return state


def _scripted_history(db):
    """Run a commit script covering every WAL op type.

    Yields ``(label)`` after each commit so the caller can snapshot
    the expected state and the WAL boundary.
    """
    ls = Lifespan.interval(0, 99)
    db.create_relation(_scheme("EMP"), storage="disk", page_size=512)
    yield "create EMP (disk)"
    db.create_relation(_scheme("DEPT"), storage="memory")
    yield "create DEPT (memory)"
    db.insert("EMP", ls, {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Toys"})
    yield "insert Ada"
    with db.transaction() as txn:
        txn.insert("EMP", Lifespan.interval(10, 99),
                   {"NAME": "Bob", "SALARY": 40_000, "DEPT": "Shoes"})
        txn.insert("DEPT", ls, {"NAME": "Cyd", "SALARY": 45_000, "DEPT": "Toys"})
        txn.update("EMP", ("Ada",), at=50, changes={"SALARY": 60_000})
    yield "transaction (two relations)"
    db.terminate("EMP", ("Bob",), at=70)
    yield "terminate Bob"
    db.reincarnate("EMP", ("Bob",), Lifespan.interval(80, 99),
                   {"NAME": "Bob", "SALARY": 42_000, "DEPT": "Toys"})
    yield "reincarnate Bob"
    db.evolve_scheme("DEPT", add_attribute(db.scheme("DEPT"), "TITLE",
                                           d.td(d.STRING), since=0))
    yield "evolve DEPT (install)"
    db.drop_relation("DEPT")
    yield "drop DEPT"
    db.update("EMP", ("Ada",), at=90, changes={"DEPT": "Books"})
    yield "update Ada"


def _run_history(path, checkpoint_after=None):
    """Execute the script; return (expected states, WAL frame boundaries).

    ``expected[i]`` is the catalog state after commit ``i``;
    ``boundaries[i]`` the WAL byte length at that point. With
    *checkpoint_after*, a checkpoint is taken after that commit index —
    boundaries then only track post-checkpoint commits (earlier states
    live in the snapshot, index -1 meaning "checkpoint state").
    """
    db = HistoricalDatabase("crashdb", path=path, sync="always")
    wal_path = os.path.join(path, WAL_FILE)
    expected, boundaries = [], []
    for i, _label in enumerate(_scripted_history(db)):
        if checkpoint_after is not None and i == checkpoint_after:
            db.checkpoint()
        expected.append(_catalog_state(db))
        boundaries.append(os.path.getsize(wal_path))
    db.close()
    return expected, boundaries


def _crash_copy(path, tmp_path, trial, mutate):
    """Copy the database directory and apply *mutate* to its WAL."""
    dst = str(tmp_path / f"crash-{trial}")
    shutil.copytree(path, dst)
    mutate(os.path.join(dst, WAL_FILE))
    return dst


def _surviving_commit(boundaries, offset):
    """Index of the last commit whose frame ends at or before *offset*."""
    last = -1
    for i, end in enumerate(boundaries):
        if end <= offset:
            last = i
    return last


class TestKill9AtRandomOffset:
    """The acceptance-criterion property test."""

    def test_truncation_at_every_sampled_offset(self, tmp_path):
        src = str(tmp_path / "db")
        expected, boundaries = _run_history(src)
        rng = random.Random(1987)
        offsets = {0, boundaries[-1]}
        for lo, hi in zip([0] + boundaries, boundaries):
            offsets.update({lo, (lo + hi) // 2, max(lo, hi - 1)})
        offsets.update(rng.randrange(0, boundaries[-1] + 1) for _ in range(10))
        for trial, offset in enumerate(sorted(offsets)):
            dst = _crash_copy(src, tmp_path, f"t{trial}", lambda wal, o=offset: (
                open(wal, "r+b").truncate(o)))
            db = HistoricalDatabase(path=dst)
            survivor = _surviving_commit(boundaries, offset)
            want = {} if survivor < 0 else expected[survivor]
            assert _catalog_state(db) == want, (
                f"truncated at {offset}: expected state after commit {survivor}"
            )
            db.close()

    def test_corruption_at_random_offsets(self, tmp_path):
        src = str(tmp_path / "db")
        expected, boundaries = _run_history(src)
        rng = random.Random(87)
        for trial in range(12):
            offset = rng.randrange(0, boundaries[-1])

            def flip(wal, o=offset):
                with open(wal, "r+b") as fh:
                    fh.seek(o)
                    byte = fh.read(1)
                    fh.seek(o)
                    fh.write(bytes([byte[0] ^ 0xFF]))

            dst = _crash_copy(src, tmp_path, f"c{trial}", flip)
            db = HistoricalDatabase(path=dst)
            # replay stops at the frame containing the flipped byte
            survivor = _surviving_commit(boundaries, offset)
            want = {} if survivor < 0 else expected[survivor]
            assert _catalog_state(db) == want
            db.close()

    def test_checkpointed_memory_to_disk_path(self, tmp_path):
        """The memory→disk checkpointed path of the acceptance criterion."""
        src = str(tmp_path / "db")
        expected, boundaries = _run_history(src, checkpoint_after=4)
        # After the checkpoint the WAL restarts: boundaries for commits
        # 0..3 are pre-checkpoint sizes; recompute survivors only over
        # the post-checkpoint tail.
        tail = [(i, end) for i, end in enumerate(boundaries) if i >= 4]
        rng = random.Random(7)
        samples = {end for _, end in tail}
        samples.update(rng.randrange(0, tail[-1][1] + 1) for _ in range(8))
        for trial, offset in enumerate(sorted(samples)):
            dst = _crash_copy(src, tmp_path, f"m{trial}", lambda wal, o=offset: (
                open(wal, "r+b").truncate(o)))
            db = HistoricalDatabase(path=dst)
            survivor = 4  # the checkpoint includes commits 0..4
            for i, end in tail:
                if end <= offset:
                    survivor = i
            assert _catalog_state(db) == expected[survivor], (
                f"truncated at {offset}"
            )
            db.close()


class TestCheckpointCrashWindows:
    """Crashes inside the checkpoint protocol itself."""

    def _loaded(self, path):
        db = HistoricalDatabase("ckpt", path=path, sync="always")
        db.create_relation(_scheme("EMP"), storage="disk")
        db.insert("EMP", Lifespan.interval(0, 99),
                  {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Toys"})
        db.insert("EMP", Lifespan.interval(5, 99),
                  {"NAME": "Bob", "SALARY": 40_000, "DEPT": "Shoes"})
        return db

    def test_crash_before_manifest_flip(self, tmp_path):
        """New-generation snapshots written, manifest not yet flipped."""
        path = str(tmp_path / "db")
        db = self._loaded(path)
        state = _catalog_state(db)
        manager = db._durability
        # Step 1 of the protocol only: snapshots at G+1, no flip.
        for name, backend in db._backends.items():
            manager.pager.write_snapshot(name, manager.generation + 1,
                                         backend.to_snapshot())
        db.close()
        recovered = HistoricalDatabase(path=path)
        assert _catalog_state(recovered) == state
        recovered.close()

    def test_crash_between_flip_and_wal_truncation(self, tmp_path):
        """Manifest flipped; stale WAL records must be skipped by generation."""
        path = str(tmp_path / "db")
        db = self._loaded(path)
        state = _catalog_state(db)
        manager = db._durability
        new_gen = manager.generation + 1
        for name, backend in db._backends.items():
            manager.pager.write_snapshot(name, new_gen, backend.to_snapshot())
        manager.write_manifest(db, new_gen)  # flip...
        db.close()  # ...and crash before wal.reset: stale records remain
        assert os.path.getsize(os.path.join(path, WAL_FILE)) > 0
        recovered = HistoricalDatabase(path=path)
        assert _catalog_state(recovered) == state  # not applied twice
        recovered.close()

    def test_torn_manifest_tmp_is_harmless(self, tmp_path):
        path = str(tmp_path / "db")
        db = self._loaded(path)
        state = _catalog_state(db)
        db.checkpoint()
        db.close()
        with open(os.path.join(path, "manifest.json.tmp"), "w") as fh:
            fh.write('{"half a manifest')
        recovered = HistoricalDatabase(path=path)
        assert _catalog_state(recovered) == state
        recovered.close()

    def test_checkpoint_prunes_old_generations(self, tmp_path):
        path = str(tmp_path / "db")
        db = self._loaded(path)
        db.checkpoint()
        db.checkpoint()
        pager = Pager(path)
        assert not os.path.exists(pager.snapshot_path("EMP", 1))
        assert os.path.exists(pager.snapshot_path("EMP", 2))
        db.close()

    def test_enospc_during_checkpoint_leaves_previous_generation(
            self, tmp_path):
        """A full disk mid-checkpoint loses nothing and stops nothing.

        Injected through the fault layer rather than a mock: the
        pager's snapshot write raises ENOSPC exactly where a real
        ``write()`` would, the tmp-file discipline keeps the previous
        generation intact, and the database keeps serving and
        committing afterwards — the checkpoint simply failed.
        """
        from repro.faults import FaultSchedule, injected

        path = str(tmp_path / "db")
        db = self._loaded(path)
        state = _catalog_state(db)
        generation = db._durability.generation
        with injected(FaultSchedule().fail("pager", "write", count=1)):
            with pytest.raises(OSError) as info:
                db.checkpoint()
        assert "No space left on device" in str(info.value)
        # The previous generation and manifest are untouched...
        assert db._durability.generation == generation
        pager = Pager(path)
        assert not os.path.exists(pager.snapshot_path("EMP", generation + 1))
        assert _catalog_state(db) == state
        # ...the database still takes commits and checkpoints...
        db.insert("EMP", Lifespan.interval(0, 99),
                  {"NAME": "Cyd", "SALARY": 45_000, "DEPT": "Toys"})
        assert db.checkpoint() == generation + 1
        after = _catalog_state(db)
        db.close()
        # ...and a reopen recovers the post-failure state exactly.
        recovered = HistoricalDatabase(path=path)
        assert _catalog_state(recovered) == after
        recovered.close()


class TestOpenCloseLifecycle:
    def test_fresh_empty_directory(self, tmp_path):
        path = str(tmp_path / "newdb")
        db = HistoricalDatabase(path=path)  # name defaults to the basename
        assert db.name == "newdb"
        assert db.durable and db.path == os.path.abspath(path)
        assert len(db) == 0
        db.close()
        again = HistoricalDatabase(path=path)  # reopenable before any commit
        assert len(again) == 0
        again.close()

    def test_reopen_empty_wal_after_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path)
        db.create_relation(_scheme())
        db.checkpoint()
        db.close()
        again = HistoricalDatabase(path=path)
        assert list(again) == ["EMP"]
        again.close()

    def test_name_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "db")
        HistoricalDatabase("alpha", path=path).close()
        with pytest.raises(RecoveryError):
            HistoricalDatabase("beta", path=path)

    def test_time_domain_persists_via_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", TimeDomain(0, 120, granularity="month",
                                                now=60), path=path)
        db.time_domain.advance(5)
        db.checkpoint()
        db.close()
        again = HistoricalDatabase(path=path)
        assert again.time_domain == TimeDomain(0, 120, granularity="month",
                                               now=65)
        again.close()

    def test_closed_database_refuses_commits(self, tmp_path):
        db = HistoricalDatabase(path=str(tmp_path / "db"))
        db.create_relation(_scheme())
        db.close()
        db.close()  # idempotent
        with pytest.raises(StorageError):
            db.insert("EMP", Lifespan.interval(0, 9),
                      {"NAME": "Ada", "SALARY": 1, "DEPT": "Toys"})

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "db")
        with HistoricalDatabase(path=path) as db:
            db.create_relation(_scheme())
        with pytest.raises(StorageError):
            db.drop_relation("EMP")

    def test_ephemeral_checkpoint_refused(self):
        db = HistoricalDatabase("mem")
        assert not db.durable and db.path is None
        with pytest.raises(RelationError):
            db.checkpoint()
        with pytest.raises(RelationError):
            db.flush()
        db.close()  # no-op for uniformity

    def test_ephemeral_still_requires_name(self):
        with pytest.raises(RelationError):
            HistoricalDatabase()

    def test_group_commit_flush(self, tmp_path):
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path, sync="batch", wal_batch_size=100)
        db.create_relation(_scheme())
        db.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": "Ada", "SALARY": 1, "DEPT": "Toys"})
        db.flush()
        state = _catalog_state(db)
        db.close()
        again = HistoricalDatabase(path=path)
        assert _catalog_state(again) == state
        again.close()

    @pytest.mark.parametrize("sync", ["always", "batch", "never"])
    def test_every_sync_policy_reopens_to_the_committed_state(self, tmp_path,
                                                              sync):
        """A sync policy trades fsyncs for throughput, never contents: the
        scripted history (every WAL op type) reopens intact under each."""
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path, sync=sync)
        for _ in _scripted_history(db):
            pass
        state = _catalog_state(db)
        db.close()
        again = HistoricalDatabase(path=path)
        assert _catalog_state(again) == state
        again.close()


class TestRecoveredSemantics:
    """A recovered database is a full citizen, not a read-only husk."""

    def test_queries_mutations_and_constraints_after_reopen(self, tmp_path):
        from repro.database import NonDecreasing

        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path, sync="always")
        db.create_relation(_scheme(), storage="disk")
        db.insert("EMP", Lifespan.interval(0, 99),
                  {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Toys"})
        db.close()

        again = HistoricalDatabase(path=path)
        result = again.query("SELECT WHEN SALARY >= :min IN EMP",
                             {"min": 40_000})
        assert len(result.rows()) == 1
        again.add_constraint(NonDecreasing("EMP", "SALARY"))
        with pytest.raises(Exception):
            again.update("EMP", ("Ada",), at=10, changes={"SALARY": 1})
        again.update("EMP", ("Ada",), at=10, changes={"SALARY": 55_000})
        state = _catalog_state(again)
        again.close()
        third = HistoricalDatabase(path=path)
        assert _catalog_state(third) == state
        third.close()

    def test_failed_commit_is_not_logged(self, tmp_path):
        """A constraint-rejected mutation must not reach the WAL."""
        from repro.database import NonDecreasing

        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path, sync="always")
        db.create_relation(_scheme())
        db.insert("EMP", Lifespan.interval(0, 99),
                  {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Toys"})
        db.add_constraint(NonDecreasing("EMP", "SALARY"))
        wal_size = os.path.getsize(os.path.join(path, WAL_FILE))
        with pytest.raises(Exception):
            db.update("EMP", ("Ada",), at=10, changes={"SALARY": 1})
        assert os.path.getsize(os.path.join(path, WAL_FILE)) == wal_size
        state = _catalog_state(db)
        db.close()
        again = HistoricalDatabase(path=path)
        assert _catalog_state(again) == state
        again.close()


class TestSingleOpener:
    def test_second_open_refused_until_close(self, tmp_path):
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path)
        with pytest.raises(StorageError):
            HistoricalDatabase(path=path)
        db.close()
        again = HistoricalDatabase(path=path)  # lock released with close
        again.close()

    def test_crash_leaves_no_stale_lock(self, tmp_path):
        """The flock dies with the holder: a copied directory (as after
        a crash) opens fine even though its LOCK file exists."""
        path = str(tmp_path / "db")
        db = HistoricalDatabase("x", path=path)
        db.create_relation(_scheme())
        db.close()
        assert os.path.exists(os.path.join(path, "LOCK"))
        again = HistoricalDatabase(path=path)
        again.close()


class TestFailedAppendRetraction:
    def _db_with_ada(self, path):
        db = HistoricalDatabase("x", path=path, sync="always")
        db.create_relation(_scheme())
        db.insert("EMP", Lifespan.interval(0, 99),
                  {"NAME": "Ada", "SALARY": 50_000, "DEPT": "Toys"})
        return db

    def test_fsync_failure_retracts_suffix_and_takes_log_offline(
            self, tmp_path, monkeypatch):
        """A failed group fsync must not leave unsynced frames behind.

        The fsync runs *after* the commit lock is released (the WAL's
        deferred leader/follower group sync), so the commit is already
        published in memory when the disk says no. The committer gets
        the error (the commit was never acknowledged durable), the
        unsynced suffix is cut back out of the log, and the log goes
        offline — a reopen recovers exactly the durable prefix.
        """
        path = str(tmp_path / "db")
        db = self._db_with_ada(path)
        state = _catalog_state(db)
        wal_size = os.path.getsize(os.path.join(path, WAL_FILE))

        real_fsync = os.fsync
        failures = [OSError(28, "No space left on device")]

        def fail_once(fd):
            if failures:
                raise failures.pop()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_once)
        with pytest.raises(OSError):
            db.insert("EMP", Lifespan.interval(0, 99),
                      {"NAME": "Bob", "SALARY": 40_000, "DEPT": "Shoes"})
        monkeypatch.undo()

        # The commit surfaced as failed but was already published: Bob
        # is visible in-process, yet his unacknowledged frame is gone
        # from the log (the suffix retraction really truncated it).
        assert db["EMP"].get("Bob") is not None
        assert os.path.getsize(os.path.join(path, WAL_FILE)) == wal_size
        # The in-memory state now diverges from the durable history, so
        # the log refuses to keep appending (a later record would leave
        # a hole in the replayable history).
        with pytest.raises(StorageError):
            db.insert("EMP", Lifespan.interval(0, 99),
                      {"NAME": "Cyd", "SALARY": 45_000, "DEPT": "Toys"})
        db.close()
        again = HistoricalDatabase(path=path)  # recovers the prefix:
        assert _catalog_state(again) == state  # no Bob, no Cyd
        again.close()

    def test_fsync_failure_during_retraction_still_recovers_on_reopen(
            self, tmp_path, monkeypatch):
        """Even if the retraction's own fsync fails too, the log stays
        offline and a reopen recovers the durable prefix."""
        path = str(tmp_path / "db")
        db = self._db_with_ada(path)
        state = _catalog_state(db)

        def always_fail(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", always_fail)
        with pytest.raises(OSError):
            db.insert("EMP", Lifespan.interval(0, 99),
                      {"NAME": "Bob", "SALARY": 40_000, "DEPT": "Shoes"})
        monkeypatch.undo()

        with pytest.raises(StorageError):   # the log is offline now
            db.insert("EMP", Lifespan.interval(0, 99),
                      {"NAME": "Cyd", "SALARY": 45_000, "DEPT": "Toys"})
        db.close()
        again = HistoricalDatabase(path=path)  # reopen recovers
        assert _catalog_state(again) == state
        again.close()
