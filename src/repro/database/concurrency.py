"""Concurrency control — snapshot reads, optimistic multi-writer commits.

The paper describes a *database system*; a system has many callers.
:class:`ConcurrencyManager` is the piece that lets one
:class:`~repro.database.database.HistoricalDatabase` serve concurrent
readers **and concurrent writers** (one worker thread per server
connection, see :mod:`repro.server`) with three guarantees:

**Readers never block and never see half a transaction.** Every
successful commit *publishes* a fresh read environment — a plain dict
of relation name → relation value, built after the commit's changes
(all of them) are applied and logged. Capturing a snapshot is one
attribute read (atomic under the interpreter lock), so queries pay
nothing for isolation: they plan and execute against the published
dict while later commits publish newer ones. The values inside a
published environment are immutable by construction:

* memory relations are immutable
  :class:`~repro.core.relation.HistoricalRelation` values already —
  mutations install a *new* relation object, the published one is
  never touched;
* disk relations are **frozen** at publish time
  (:meth:`~repro.storage.engine.StoredRelation.freeze`); the next
  commit's batch goes through a page-level copy-on-write clone
  (:meth:`~repro.storage.engine.StoredRelation.cow_clone`), so a
  reader mid-scan keeps a consistent heap no matter how many commits
  land meanwhile. Mutating a frozen snapshot directly is a loud
  :class:`~repro.core.errors.StorageError`, not a torn read.

**Writers run concurrently and validate at commit** — multi-version
concurrency control with optimistic (first-committer-wins) conflict
resolution. A transactional session captures a :class:`Snapshot` when
it opens, buffers its changes in a private :class:`WriteSet` *without
holding any lock*, and only serializes for the short commit critical
section: :meth:`validate` the write-set against every commit that
published after the session's snapshot, apply the batches, append the
write-ahead-log record, publish. Two sessions conflict when they wrote
an overlapping ``(relation, key)`` pair — the later committer aborts
with a retryable :class:`~repro.core.errors.ConflictError` — or when
either performed a relation-granular write (schema evolution,
``replace``, DDL), which conflicts with *any* concurrent write to that
relation. The error carries the **temporal overlap** of the two
writers' modified lifespan regions, computed from the per-key deltas
each write-set records, so callers can see *when* in the history the
collision happened (an empty overlap means the writers touched the
same object at disjoint times; the stored unit is the whole tuple
version, so first-committer-wins still applies).

**The WAL append is the sole serialization point.** The commit lock is
held only across validate + apply + log + publish — never across a
transaction body — so concurrent committers queue for microseconds,
and the write-ahead log's group commit (``sync="batch"``) absorbs the
resulting commit stream into one fsync per batch window.

Validation history is bounded: committed write-sets are retained while
any live snapshot might still need them (sessions register through
:meth:`begin` / :meth:`end`), with a hard cap so an abandoned session
cannot pin memory forever. A commit whose snapshot predates the
retained window aborts conservatively with :class:`ConflictError`
rather than guess.

The per-relation snapshot identity is the storage engine's existing
mutation-version counters: an unchanged relation keeps its object (and
its decoded-tuple cache) across any number of publishes; only touched
relations are replaced. ``tests/test_concurrency.py`` stress-tests the
reader invariants, ``tests/test_mvcc.py`` the writer ones
(serial-order equivalence, first-committer-wins, temporal overlap).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.errors import ConflictError
from repro.core.lifespan import Lifespan

#: A published read environment: relation name → immutable relation value.
ReadEnv = Dict[str, Any]

#: Committed write-sets retained for validation, no matter how old the
#: oldest registered snapshot is. An abandoned (never committed, never
#: rolled back) session loses the ability to commit rather than pin the
#: log forever.
MAX_COMMIT_LOG = 4096


class Snapshot:
    """One committed cut: the environment plus its commit identity.

    ``commit_id`` is the number of commits published when the cut was
    captured — the validation horizon: a session built on this snapshot
    must be checked against every write-set published *after* it.
    """

    __slots__ = ("commit_id", "env")

    def __init__(self, commit_id: int, env: ReadEnv):
        self.commit_id = commit_id
        self.env = env

    def relation(self, name: str):
        """The snapshot value of *name*, or None if absent from the cut."""
        return self.env.get(name)

    def __repr__(self) -> str:
        return f"Snapshot(commit {self.commit_id}, {len(self.env)} relations)"


class WriteSet:
    """A transaction's write intent, at key and relation granularity.

    ``record`` notes a keyed write together with its **delta lifespan**
    — the temporal region where the new tuple version differs from the
    snapshot base (computed by the ``delta_*`` helpers in
    :mod:`repro.database.mutations`). ``record_relation`` notes a
    relation-granular write (schema evolution, whole-relation replace,
    create, drop) that conflicts with any concurrent write to the same
    relation.
    """

    __slots__ = ("keys", "relations")

    def __init__(self) -> None:
        #: relation → key → delta lifespan (union over repeated writes).
        self.keys: Dict[str, Dict[tuple, Lifespan]] = {}
        #: relations written wholesale (install / create / drop).
        self.relations: set[str] = set()

    def record(self, relation: str, key: tuple, delta: Lifespan) -> None:
        """Note a keyed write with the lifespan region it modifies."""
        deltas = self.keys.setdefault(relation, {})
        previous = deltas.get(key)
        deltas[key] = delta if previous is None else (previous | delta)

    def record_relation(self, relation: str) -> None:
        """Note a relation-granular write (conflicts with everything)."""
        self.relations.add(relation)

    @property
    def empty(self) -> bool:
        return not self.keys and not self.relations

    def touched(self) -> set[str]:
        """Every relation this write-set modifies."""
        return self.relations | set(self.keys)

    def conflict_with(self, earlier: "WriteSet"
                      ) -> Optional[Tuple[str, Optional[tuple],
                                          Optional[Lifespan]]]:
        """The first conflict against an *earlier committed* write-set.

        Returns ``(relation, key, overlap)`` — ``key`` None for a
        relation-granular collision, ``overlap`` the temporal
        intersection of the two delta regions for a keyed one — or
        None when the write-sets are disjoint.
        """
        for relation in self.touched():
            if relation in earlier.relations:
                return relation, None, None
        for relation in self.relations:
            if relation in earlier.keys:
                return relation, None, None
        for relation, deltas in self.keys.items():
            earlier_deltas = earlier.keys.get(relation)
            if not earlier_deltas:
                continue
            for key, delta in deltas.items():
                other = earlier_deltas.get(key)
                if other is not None:
                    return relation, key, delta & other
        return None

    def __repr__(self) -> str:
        keyed = sum(len(d) for d in self.keys.values())
        return (f"WriteSet({keyed} keyed writes, "
                f"{len(self.relations)} relation-granular)")


class ConcurrencyManager:
    """Snapshot publication and optimistic commit validation for one
    database."""

    def __init__(self) -> None:
        self._commit_lock = threading.RLock()
        #: The committed state as one atomic pair: (commit id, read
        #: environment). Replaced (never mutated) by :meth:`publish` /
        #: :meth:`committed`; reading it is one reference load.
        self._state: Tuple[int, ReadEnv] = (0, {})
        #: Committed write-sets newer than the oldest live snapshot:
        #: list of (commit_id, WriteSet), ascending.
        self._log: list[Tuple[int, WriteSet]] = []
        #: Snapshots older than this cannot be validated any more
        #: (their history has been pruned).
        self._floor = 0
        #: Registered live snapshots: commit_id → session count.
        self._active: Dict[int, int] = {}
        self._active_lock = threading.Lock()
        #: Prepared (voted-yes, undecided) two-phase write-sets, pinned
        #: until their coordinator's decision arrives: txn_id → WriteSet.
        #: Guarded by the commit lock.
        self._prepared: Dict[str, WriteSet] = {}

    # -- snapshot side -------------------------------------------------------

    @property
    def published_commits(self) -> int:
        """Commits published so far (also the latest snapshot identity)."""
        return self._state[0]

    def read_env(self) -> ReadEnv:
        """The latest committed read environment (lock-free).

        The returned dict must be treated as immutable; it is shared
        between every reader that captured the same snapshot.
        """
        return self._state[1]

    def snapshot(self) -> Snapshot:
        """Capture the latest committed cut with its identity (lock-free)."""
        commit_id, env = self._state
        return Snapshot(commit_id, env)

    def begin(self, snapshot: Snapshot) -> None:
        """Register *snapshot* as live: its validation history is pinned
        (up to the hard cap) until :meth:`end`."""
        with self._active_lock:
            self._active[snapshot.commit_id] = (
                self._active.get(snapshot.commit_id, 0) + 1)

    def end(self, snapshot: Snapshot) -> None:
        """Deregister a snapshot registered with :meth:`begin`."""
        with self._active_lock:
            count = self._active.get(snapshot.commit_id, 0) - 1
            if count > 0:
                self._active[snapshot.commit_id] = count
            else:
                self._active.pop(snapshot.commit_id, None)

    # -- writer side ---------------------------------------------------------

    def write(self) -> threading.RLock:
        """The commit lock; ``with db._concurrency.write(): ...``.

        Held only for the commit critical section — validate, apply,
        WAL append, publish — never across a transaction body.
        Reentrant, so a holder may enter the pipeline
        (``evolve_scheme`` re-homes the live relation under the lock,
        then commits) or call locked accessors (``checkpoint`` asking
        for ``in_doubt_transactions``) without special casing.
        """
        return self._commit_lock

    def validate(self, write_set: WriteSet, snapshot_id: int) -> None:
        """First-committer-wins: abort if any commit newer than
        *snapshot_id* overlaps *write_set*.

        Must be called under :meth:`write`. Raises
        :class:`~repro.core.errors.ConflictError` on the first
        overlapping ``(relation, key)`` pair (with the temporal overlap
        of the two delta regions), on any relation-granular collision,
        or — conservatively — when *snapshot_id* predates the retained
        validation history.
        """
        if write_set.empty:
            return
        if snapshot_id < self._floor:
            raise ConflictError(
                f"snapshot (commit {snapshot_id}) predates the retained "
                f"validation history (floor {self._floor}); the transaction "
                f"outlived {MAX_COMMIT_LOG}+ concurrent commits — retry "
                f"against a fresh snapshot"
            )
        for commit_id, committed in self._log:
            if commit_id <= snapshot_id:
                continue
            hit = write_set.conflict_with(committed)
            if hit is None:
                continue
            relation, key, overlap = hit
            if key is None:
                raise ConflictError(
                    f"write-write conflict on relation {relation!r}: a "
                    f"relation-granular write (DDL, evolution, or replace) "
                    f"committed first (commit {commit_id}); retry against a "
                    f"fresh snapshot",
                    relation=relation,
                )
            where = (f"overlapping during {overlap}" if not overlap.is_empty
                     else "at temporally disjoint regions of the same object")
            raise ConflictError(
                f"write-write conflict on key {key!r} of {relation!r} "
                f"({where}): commit {commit_id} wrote it first; retry "
                f"against a fresh snapshot",
                relation=relation, key=key, overlap=overlap,
            )
        for txn_id, prepared in self._prepared.items():
            hit = write_set.conflict_with(prepared)
            if hit is None:
                continue
            relation, key, _ = hit
            raise ConflictError(
                f"write-write conflict with in-doubt two-phase transaction "
                f"{txn_id!r} on {relation!r}"
                + (f" key {key!r}" if key is not None else "")
                + ": its prepare holds the write until the coordinator's "
                "decision lands; retry",
                relation=relation, key=key,
            )

    # -- two-phase commit ----------------------------------------------------

    def pin_prepared(self, txn_id: str, write_set: WriteSet) -> None:
        """Pin a voted-yes write-set until its decision resolves it.

        Must be called under :meth:`write`, after :meth:`validate`
        accepted the write-set. Until :meth:`unpin_prepared`, every
        other committer (and every other prepare) conflicts with it —
        the in-doubt transaction's locks, in MVCC terms.
        """
        self._prepared[txn_id] = write_set

    def unpin_prepared(self, txn_id: str) -> Optional[WriteSet]:
        """Release a pinned prepare (decision arrived); returns its
        write-set, or None if *txn_id* was not pinned."""
        return self._prepared.pop(txn_id, None)

    def committed(self, backends: Mapping[str, Any],
                  write_set: WriteSet) -> ReadEnv:
        """Publish a successful commit and retain its write-set.

        Must be called under :meth:`write`, after the WAL append. The
        new read environment reuses every untouched relation's object
        and freezes/replaces only the relations *write_set* names, so
        publish cost is proportional to the commit, not the catalog.
        """
        commit_id, env = self._state
        new_env = dict(env)
        for name in write_set.touched():
            backend = backends.get(name)
            if backend is None:  # dropped from the catalog
                new_env.pop(name, None)
            else:
                backend.freeze()
                new_env[name] = backend.source()
        new_id = commit_id + 1
        self._log.append((new_id, write_set))
        self._prune(new_id)
        self._state = (new_id, new_env)
        return new_env

    def publish(self, backends: Mapping[str, Any]) -> ReadEnv:
        """Publish the whole catalog as the read environment (open time).

        Freezes every disk relation about to be shared and swaps the
        environment in one reference assignment — used when the catalog
        is (re)built wholesale rather than changed by one commit.
        """
        env: ReadEnv = {}
        for name, backend in backends.items():
            backend.freeze()
            env[name] = backend.source()
        commit_id, _ = self._state
        self._state = (commit_id + 1, env)
        return env

    def _prune(self, new_id: int) -> None:
        """Drop validation history no live snapshot can still need."""
        with self._active_lock:
            horizon = min(self._active, default=new_id)
        keep_from = 0
        n = len(self._log)
        if n > MAX_COMMIT_LOG:  # hard cap beats even a pinned snapshot
            keep_from = n - MAX_COMMIT_LOG
        while keep_from < n and self._log[keep_from][0] <= horizon:
            keep_from += 1
        if keep_from:
            self._floor = max(self._floor, self._log[keep_from - 1][0])
            del self._log[:keep_from]

    def __repr__(self) -> str:
        commit_id, env = self._state
        return (f"ConcurrencyManager({len(env)} relations published, "
                f"{commit_id} commits, {len(self._log)} retained write-sets)")
