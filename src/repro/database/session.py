"""Transactional sessions — snapshot reads, private write-sets,
optimistic commit.

:class:`Transaction` gives :class:`HistoricalDatabase` its bulk *and*
its concurrent-writer path. A session captures a
:class:`~repro.database.concurrency.Snapshot` when it opens and runs
its whole body against that committed cut **without holding any
lock** — many sessions build their changes at once:

* **reads** go through the snapshot plus the session's private overlay
  (a transaction sees its own buffered writes, and nothing committed
  after it began — repeatable reads by construction);
* **buffered mutations** (inserts / updates / terminates /
  reincarnates / schema evolutions) land in a per-relation overlay and
  are recorded in a :class:`~repro.database.concurrency.WriteSet`
  together with the *delta lifespan* each write modifies;
* at commit the session turns its overlays into **steps** — one
  ``apply`` (keyed batch) or ``install`` (evolved relation) per touched
  relation — and hands them, with the write-set and the snapshot's
  commit id, to the database's one commit pipeline
  (``HistoricalDatabase._commit``): encode outside the commit lock,
  then validate → run → sweep → log → publish inside it. Validation is
  first-committer-wins: if any commit newer than the session's
  snapshot wrote an overlapping ``(relation, key)`` — or touched a
  relation this session evolved / that was evolved under it — the
  commit aborts with a retryable
  :class:`~repro.core.errors.ConflictError` and the catalog is left
  exactly as if the session never existed
  (``HistoricalDatabase.run_transaction`` wraps the retry loop);
* the database's own ``insert`` / ``update`` / ``terminate`` /
  ``reincarnate`` are one-op sessions over this class, so the
  buffering and write-set rules here are the only copy;
* :meth:`Transaction.prepare` is the same hand-off with a transaction
  id: the pipeline stops after the sweep, takes the changes back out
  and stashes the steps under the pinned write-set (see
  ``HistoricalDatabase.resolve_prepared``).

Usage::

    with db.transaction() as txn:
        for row in feed:
            txn.insert("EMP", row.lifespan, row.values)
    # committed here; or roll back by raising / calling txn.rollback()

A transaction is single-shot: once committed or rolled back it refuses
further operations. Queries through ``db.query`` keep seeing the
committed state until commit (the buffered view is private to the
transaction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.core.errors import RelationError, TransactionError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.database import mutations
from repro.database.concurrency import Snapshot, WriteSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.database.database import HistoricalDatabase


class _PendingRelation:
    """One relation's buffered view inside a transaction.

    ``base`` is the relation's value in the session's snapshot — reads
    never touch the live catalog. ``overlay`` maps keys to their
    pending tuple values; ``replaced`` holds a full replacement
    relation once a schema evolution has been buffered (evolution
    re-homes *every* tuple, so from that point the pending state is a
    whole new relation value plus later overlay entries on the evolved
    scheme).
    """

    def __init__(self, name: str, base) -> None:
        self.name = name
        self.base = base
        self.scheme: RelationScheme = base.scheme
        self.overlay: Dict[tuple, HistoricalTuple] = {}
        self.replaced: Optional[HistoricalRelation] = None

    def get(self, key: tuple) -> Optional[HistoricalTuple]:
        if key in self.overlay:
            return self.overlay[key]
        if self.replaced is not None:
            return self.replaced.get(*key)
        return self.base.get(*key)

    def put(self, t: HistoricalTuple) -> None:
        self.overlay[t.key_value()] = t

    def current_tuples(self) -> list[HistoricalTuple]:
        """Every tuple as the transaction currently sees the relation."""
        merged: Dict[tuple, HistoricalTuple] = {}
        source = self.replaced if self.replaced is not None else self.base
        for t in source:
            merged[t.key_value()] = t
        merged.update(self.overlay)
        return list(merged.values())

    def evolve(self, new_scheme: RelationScheme) -> None:
        rehomed = mutations.rehome(self.current_tuples(), new_scheme,
                                   self.name)
        self.replaced = HistoricalRelation(new_scheme, rehomed)
        self.scheme = new_scheme
        self.overlay.clear()


class Transaction:
    """A snapshot-isolated, optimistically-committed mutation session."""

    def __init__(self, db: "HistoricalDatabase") -> None:
        self._db = db
        self._snapshot: Snapshot = db._concurrency.snapshot()
        self._write_set = WriteSet()
        self._pending: Dict[str, _PendingRelation] = {}
        self._state = "active"
        db._concurrency.begin(self._snapshot)

    # -- lifecycle ---------------------------------------------------------

    @property
    def state(self) -> str:
        """"active", "committed", "prepared", or "rolled-back"."""
        return self._state

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self._state == "active":
                self.rollback()
            return False  # propagate the exception
        if self._state == "active":
            self.commit()
        return False

    def commit(self) -> None:
        """Validate and apply every buffered change atomically.

        The steps (one
        :meth:`~repro.core.relation.HistoricalRelation.with_tuples`
        pass or one storage-engine batch per touched relation) go
        through the database's commit pipeline
        (``HistoricalDatabase._commit``): the write-ahead-log record is
        encoded with no lock held; the commit lock then covers only
        first-committer-wins **validation** of the write-set against
        every commit since this session's snapshot (a loss raises the
        retryable :class:`~repro.core.errors.ConflictError` and rolls
        back), batch application, one constraint sweep over the fully
        applied state, the WAL append — on a durable database the whole
        transaction is **one** log record — and snapshot publication.
        The record's fsync runs *after* the lock is released, and the
        commit only returns once it is durable per the sync policy. Any
        failure restores every relation (in reverse application order)
        and re-raises with the catalog untouched.
        """
        self._commit()

    def prepare(self, txn_id: str) -> None:
        """Phase one of a two-phase commit: vote yes and go in doubt.

        Runs everything :meth:`commit` runs up to the constraint sweep
        — first-committer-wins validation, batch application, the
        single sweep — then takes the changes back out of the
        backends: instead of a commit record it logs a **PREPARE**
        record (force-synced regardless of sync policy: the yes vote
        must survive a crash) and instead of publishing it **pins**
        the write-set and stashes the steps. The prepared changes are
        invisible to readers and conflict with every other committer
        until :meth:`HistoricalDatabase.resolve_prepared` applies the
        coordinator's decision. Failure anywhere (validation loss,
        constraint violation, log error) is a **no vote**: the session
        rolls back, exactly like a failed commit.

        The session itself ends here — the decision belongs to the
        database (a coordinator may deliver it on another connection,
        or after a crash-reopen).
        """
        self._ensure_active()
        if not txn_id:
            raise TransactionError("a prepare needs a transaction id")
        self._commit(txn_id)

    def _commit(self, txn_id: Optional[str] = None) -> None:
        """Hand the buffered steps to the database's commit pipeline —
        as a commit, or with *txn_id* as a prepare."""
        self._ensure_active()
        action = "commit" if txn_id is None else "prepare"
        self._db._ensure_mutable(f"{action} a transaction")
        try:
            steps: list = []
            for name, pending in self._pending.items():
                if pending.replaced is not None:
                    steps.append(("install", name, pending.replaced.with_tuples(
                        pending.overlay.values())))
                elif pending.overlay:
                    steps.append(("apply", name, pending.overlay))
            if steps:
                self._db._commit(self._write_set, steps,
                                 self._snapshot.commit_id, txn_id)
            elif txn_id is not None:
                raise TransactionError(
                    f"transaction {txn_id!r} has nothing to prepare")
        except BaseException:
            self._finish("rolled-back")
            raise
        self._finish("committed" if txn_id is None else "prepared")

    def rollback(self) -> None:
        """Discard every buffered change; the catalog was never touched."""
        self._ensure_active()
        self._finish("rolled-back")

    def _finish(self, state: str) -> None:
        self._pending.clear()
        self._state = state
        self._db._concurrency.end(self._snapshot)

    def _ensure_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction already {self._state}")

    # -- snapshot reads ----------------------------------------------------

    def get(self, name: str, *key: Any) -> Optional[HistoricalTuple]:
        """The tuple with *key* as this transaction sees it: its own
        buffered writes over the begin-time snapshot."""
        self._ensure_active()
        return self._touch(name).get(tuple(key))

    def scheme(self, name: str) -> RelationScheme:
        """The (possibly already evolved) scheme as the transaction sees it."""
        self._ensure_active()
        return self._touch(name).scheme

    # -- buffered mutations ------------------------------------------------

    def insert(self, name: str, lifespan: Lifespan,
               values: Mapping[str, Any]) -> HistoricalTuple:
        """Buffer an object's *birth* (see ``HistoricalDatabase.insert``)."""
        pending = self._mutable(name)
        t = mutations.build_insert(pending.scheme, lifespan, values,
                                   pending.get, name)
        pending.put(t)
        self._write_set.record(name, t.key_value(), mutations.delta_insert(t))
        return t

    def terminate(self, name: str, key: tuple, at: int) -> HistoricalTuple:
        """Buffer an object's *death* (see ``HistoricalDatabase.terminate``)."""
        pending = self._mutable(name)
        before = self._existing(pending, name, key)
        t = mutations.build_terminate(before, at)
        pending.put(t)
        self._write_set.record(name, t.key_value(),
                               mutations.delta_terminate(before, t))
        return t

    def reincarnate(self, name: str, key: tuple, lifespan: Lifespan,
                    values: Mapping[str, Any]) -> HistoricalTuple:
        """Buffer a *rebirth* (see ``HistoricalDatabase.reincarnate``)."""
        pending = self._mutable(name)
        merged = mutations.build_reincarnate(
            pending.scheme, self._existing(pending, name, key), lifespan, values
        )
        pending.put(merged)
        self._write_set.record(name, merged.key_value(),
                               mutations.delta_reincarnate(lifespan))
        return merged

    def update(self, name: str, key: tuple, at: int,
               changes: Mapping[str, Any]) -> HistoricalTuple:
        """Buffer new values from *at* on (see ``HistoricalDatabase.update``)."""
        pending = self._mutable(name)
        updated = mutations.build_update(
            pending.scheme, self._existing(pending, name, key), at, changes
        )
        pending.put(updated)
        self._write_set.record(name, updated.key_value(),
                               mutations.delta_update(updated, at))
        return updated

    def evolve_scheme(self, name: str, new_scheme: RelationScheme) -> None:
        """Buffer a schema evolution, re-homing the buffered view.

        Later buffered mutations in the same transaction operate on the
        evolved scheme. An evolution is a **relation-granular** write:
        it conflicts with *any* concurrent commit touching the
        relation, in either direction (the re-homed value is built from
        this session's snapshot, so a concurrent keyed write would
        otherwise be silently lost).
        """
        self._mutable(name).evolve(new_scheme)
        self._write_set.record_relation(name)

    # -- helpers -----------------------------------------------------------

    def _touch(self, name: str) -> _PendingRelation:
        if name not in self._pending:
            base = self._snapshot.relation(name)
            if base is None:
                raise RelationError(f"no relation named {name!r}")
            self._pending[name] = _PendingRelation(name, base)
        return self._pending[name]

    def _mutable(self, name: str) -> _PendingRelation:
        self._ensure_active()
        return self._touch(name)

    def _existing(self, pending: _PendingRelation, name: str,
                  key: tuple) -> HistoricalTuple:
        t = pending.get(tuple(key))
        if t is None:
            raise RelationError(f"no tuple with key {tuple(key)!r} in {name!r}")
        return t

    def __repr__(self) -> str:
        touched = ", ".join(sorted(self._pending)) or "nothing"
        return (f"Transaction({self._state}, snapshot "
                f"{self._snapshot.commit_id}, buffering {touched})")
