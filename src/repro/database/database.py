"""The historical database — a named catalog of historical relations.

Figure 1 of the paper shows the instance hierarchy: a database is a set
of relations, each a set of tuples. :class:`HistoricalDatabase` is the
mutable top-level object tying together:

* a :class:`~repro.core.time_domain.TimeDomain` giving chronons meaning
  and carrying the movable ``now``;
* a catalog of named relations, each behind a storage backend — held
  in memory (:class:`~repro.core.relation.HistoricalRelation`) or on
  the Figure 9 storage engine
  (:class:`~repro.storage.engine.StoredRelation`), chosen per relation
  with ``create_relation(..., storage="memory" | "disk")``; both
  satisfy the :class:`~repro.core.protocols.Relation` protocol and
  answer the same queries;
* update operations phrased in lifespan terms — :meth:`insert` (birth),
  :meth:`terminate` (death), :meth:`reincarnate` (rebirth of the same
  key, Section 1's hire / fire / re-hire cycle) — each a one-op
  transaction, checked against the registered integrity constraints
  at its commit, with atomic rollback on violation;
* transactional sessions (:meth:`transaction`) that buffer mutations,
  apply them per relation in one batch, and defer the constraint sweep
  to commit — the bulk path;
* one commit pipeline (``_commit``) behind every one of them and
  behind DDL, ``replace`` and two-phase prepares: a commit is a
  write-set plus a list of steps over the four catalog ops the
  write-ahead log knows (:data:`repro.database.durability.CATALOG_OPS`);
* schema evolution via attribute lifespans
  (:mod:`repro.database.evolution`);
* HRQL querying through the cost-based planner — :meth:`query` returns
  a typed :class:`~repro.database.result.QueryResult`, ``:name``
  parameters bind at plan time, every statement's plan is cached by
  its text and binding, and :meth:`prepare` hands out a handle on one
  statement's text;
* durability (``path=...``) — the catalog lives in a directory, every
  commit appends a checksummed write-ahead-log record
  (:mod:`repro.database.durability`), :meth:`checkpoint` writes a
  consistent snapshot, and reopening after a crash replays the log to
  the last committed state;
* concurrency (:mod:`repro.database.concurrency`) — multi-version
  concurrency control: queries read published committed snapshots
  without blocking, transactional sessions build private write-sets
  concurrently against their begin-time snapshot and validate at
  commit (first-committer-wins, retryable
  :class:`~repro.core.errors.ConflictError` on a lost race —
  :meth:`run_transaction` wraps the retry loop), so one catalog safely
  serves many threads (and, through :mod:`repro.server`, many network
  clients).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, NamedTuple, Optional, Union

from repro.core.domains import ValueDomain
from repro.core.errors import (ConflictError, HRDMError, IntegrityError,
                               RelationError, StorageError, TransactionError)
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.time_domain import T_MAX, T_MIN, TimeDomain
from repro.core.tuples import HistoricalTuple
from repro.database import durability, mutations
from repro.database.backends import BACKENDS, DiskBackend, MemoryBackend
from repro.database.concurrency import ConcurrencyManager, WriteSet
from repro.database.durability import DurabilityManager
from repro.database.prepared import PreparedQuery, StatementCache, answer
from repro.database.result import QueryResult
from repro.database.session import Transaction
from repro.planner.explain import PlanExplanation, explain_plan

#: A catalog entry's storage backend.
Backend = Union[MemoryBackend, DiskBackend]


def _relation_write_set(*names: str) -> WriteSet:
    """The write-set of a relation-granular commit (DDL, replace, a
    logged record): conflicts with any concurrent write to *names*."""
    write_set = WriteSet()
    for name in names:
        write_set.record_relation(name)
    return write_set


class _PreparedTxn(NamedTuple):
    """One voted-yes, undecided two-phase transaction on this database:
    a pinned write-set plus the stashed steps a commit decision will
    run. Nothing of it is applied to the backends — the same shape
    whether this process ran the prepare, recovered it from the WAL, or
    received it on the replica stream."""

    write_set: WriteSet
    steps: list


class HistoricalDatabase:
    """A mutable catalog of historical relations sharing one time domain.

    Without *path* the database is ephemeral — it dies with the
    process. With *path* it is **durable**: the catalog lives under
    that directory, every committed mutation appends a write-ahead-log
    record (the commit's durability point, see
    :mod:`repro.storage.wal`), :meth:`checkpoint` writes a consistent
    snapshot and truncates the log, and constructing the database
    against an existing directory recovers the last committed state —
    including after a crash (torn log tails are detected by checksum
    and discarded).

    Parameters
    ----------
    name:
        The database name. Required for ephemeral databases; optional
        for durable ones (a fresh directory defaults to its basename,
        an existing one supplies its own — passing a *different* name
        is an error).
    time_domain:
        The shared :class:`~repro.core.time_domain.TimeDomain`. For an
        existing durable database the persisted domain wins.
    path:
        Directory of a durable database (created if missing).
    sync:
        WAL fsync policy: ``"always"`` (fsync per commit),
        ``"batch"`` (group commit: fsync every *wal_batch_size*
        commits and on :meth:`flush` / :meth:`close`), or ``"never"``.
    wal_batch_size:
        Group-commit window for ``sync="batch"``.
    domains:
        Custom :class:`~repro.core.domains.ValueDomain` objects by
        name, to restore membership enforcement for schemes that use
        them (built-in domains round-trip automatically).
    """

    def __init__(self, name: Optional[str] = None,
                 time_domain: Optional[TimeDomain] = None, *,
                 path: Optional[str] = None,
                 sync: str = "batch",
                 wal_batch_size: int = 64,
                 domains: Optional[Mapping[str, ValueDomain]] = None):
        if path is None and not name:
            raise RelationError("database needs a non-empty name")
        self.name = name or ""
        self.time_domain = time_domain or TimeDomain(T_MIN, T_MAX)
        self._backends: Dict[str, Backend] = {}
        self._constraints: list = []
        #: Every HRQL statement's plan, keyed by its text and binding
        #: (see :mod:`repro.database.prepared`).
        self._statements = StatementCache()
        #: MVCC machinery (see :mod:`repro.database.concurrency`).
        #: Queries read the last published environment; transactional
        #: sessions snapshot at begin and validate at commit; the
        #: commit lock serializes only the validate/apply/log/publish
        #: critical section.
        self._concurrency = ConcurrencyManager()
        #: Prepared-but-undecided two-phase transactions: txn_id →
        #: :class:`_PreparedTxn`. Guarded by the commit lock.
        self._prepared_txns: Dict[str, _PreparedTxn] = {}
        self._durability: Optional[DurabilityManager] = None
        if path is not None:
            self._durability = DurabilityManager(path, sync, wal_batch_size,
                                                 domains)
            self._durability.open(self, name)
        self._concurrency.publish(self._backends)

    # -- catalog -----------------------------------------------------------

    def create_relation(self, scheme: RelationScheme,
                        tuples: Any = (), *,
                        storage: str = "memory", **backend_options):
        """Create a relation and return its catalog value.

        *storage* selects the physical home: ``"memory"`` (an immutable
        :class:`~repro.core.relation.HistoricalRelation`) or ``"disk"``
        (a :class:`~repro.storage.engine.StoredRelation` on heap pages
        with key and interval indexes; accepts ``page_size=``). Both
        satisfy the :class:`~repro.core.protocols.Relation` protocol
        and behave identically under queries and mutations.
        """
        self._ensure_mutable("create a relation")
        try:
            factory = BACKENDS[storage]
        except KeyError:
            options = ", ".join(sorted(BACKENDS))
            raise RelationError(
                f"unknown storage {storage!r}; expected one of: {options}"
            ) from None
        backend = factory(scheme, tuples, **backend_options)
        self._commit(_relation_write_set(scheme.name),
                     [("create", scheme.name, backend)])
        return backend.source()

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog.

        Registered constraints are re-checked against the shrunken
        catalog: a constraint that still references the dropped
        relation would silently go stale, so the drop is refused (and
        rolled back) until the constraint is removed.
        """
        self._ensure_mutable("drop a relation")
        try:
            self._commit(_relation_write_set(name), [("drop", name, None)])
        except (ConflictError, StorageError):
            raise  # the pipeline's own refusals, not a constraint's
        except HRDMError as exc:
            if name not in self._backends:
                raise  # never existed, or another drop got there first
            raise RelationError(
                f"cannot drop relation {name!r}: a registered constraint "
                f"still references it ({exc}); remove the constraint first"
            ) from exc

    def relation(self, name: str):
        """The current value of the named relation.

        Returns the catalog object itself — a
        :class:`~repro.core.relation.HistoricalRelation` or a
        :class:`~repro.storage.engine.StoredRelation` — both satisfying
        the :class:`~repro.core.protocols.Relation` protocol.
        """
        return self._backend(name).source()

    def storage(self, name: str) -> str:
        """The storage kind of the named relation: "memory" or "disk"."""
        return self._backend(name).kind

    def __getitem__(self, name: str):
        return self.relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __iter__(self) -> Iterator[str]:
        return iter(self._backends)

    def __len__(self) -> int:
        return len(self._backends)

    def relations(self) -> dict[str, Any]:
        """A snapshot copy of the whole catalog (name → relation).

        The copy is the last *published* (committed) environment — an
        atomic cut across all relations, safe to read while other
        threads commit (see :mod:`repro.database.concurrency`).
        """
        return dict(self._concurrency.read_env())

    def scheme(self, name: str) -> RelationScheme:
        """The scheme of the named relation."""
        return self._backend(name).scheme

    def replace(self, name: str, relation: HistoricalRelation) -> None:
        """Install a new relation value under an existing name.

        The algebra returns fresh relations; ``replace`` is how a
        computed result becomes the new stored state (re-encoded onto
        the storage engine for disk-backed entries). Constraints are
        re-checked, and the prior value restored on violation.
        """
        self._ensure_mutable("replace a relation")
        self._commit(_relation_write_set(name), [("install", name, relation)])

    # -- lifespan-phrased updates -------------------------------------------

    def insert(self, name: str, lifespan: Lifespan,
               values: Mapping[str, Any]) -> HistoricalTuple:
        """Insert a new object (tuple) — its database *birth*.

        ``values`` follows :meth:`HistoricalTuple.build` conventions
        (scalars become constant functions over the value lifespan).
        """
        self._ensure_mutable("insert")
        return self._one_op("insert", name, lifespan, values)

    def terminate(self, name: str, key: tuple, at: int) -> HistoricalTuple:
        """End an object's current incarnation — its *death* at chronon *at*.

        The tuple's lifespan (and all values) are truncated to times
        strictly before *at*.
        """
        self._ensure_mutable("terminate")
        return self._one_op("terminate", name, key, at)

    def reincarnate(self, name: str, key: tuple, lifespan: Lifespan,
                    values: Mapping[str, Any]) -> HistoricalTuple:
        """Re-open an object's history — Section 1's *reincarnation*.

        The new *lifespan* must be disjoint from the existing one; the
        new values extend the object's temporal functions.
        """
        self._ensure_mutable("reincarnate")
        return self._one_op("reincarnate", name, key, lifespan, values)

    def update(self, name: str, key: tuple, at: int,
               changes: Mapping[str, Any]) -> HistoricalTuple:
        """Record new attribute values from chronon *at* onwards.

        For each attribute in *changes*, the stored function keeps its
        history before *at* and takes the new constant value on the
        remainder of the tuple's (and attribute's) lifespan.
        """
        self._ensure_mutable("update")
        return self._one_op("update", name, key, at, changes)

    # -- transactions -------------------------------------------------------

    def transaction(self) -> Transaction:
        """Open a transactional session buffering mutations until commit.

        ::

            with db.transaction() as txn:
                txn.insert("EMP", lifespan, values)
                txn.update("EMP", key, at=50, changes={...})

        All buffered changes apply atomically at the end of the
        ``with`` block: one batched pass per touched relation and a
        single constraint sweep, instead of one full sweep per
        mutation — the bulk-load fast path. On any error (including a
        constraint violation at commit) the catalog is left exactly as
        it was when the transaction began.

        Sessions are **snapshot-isolated and optimistic**: the body
        runs against the committed cut captured here, with no lock
        held, and commit validates first-committer-wins — a lost race
        raises the retryable
        :class:`~repro.core.errors.ConflictError` (see
        :meth:`run_transaction` for the canonical retry loop).
        """
        self._ensure_mutable("open a transaction")
        return Transaction(self)

    def run_transaction(self, body, *, attempts: int = 5):
        """Run *body* in a transaction, retrying on commit conflicts.

        *body* receives the open :class:`Transaction` and its return
        value is returned on success. Each attempt runs against a fresh
        snapshot; a commit that loses its first-committer-wins race
        (:class:`~repro.core.errors.ConflictError`) is retried up to
        *attempts* times, then the final conflict propagates. Any other
        exception rolls back and propagates immediately. *body* may
        commit or roll back explicitly; it must be safe to re-run.

        ::

            def give_raise(txn):
                return txn.update("EMP", ("Ada",), at=50,
                                  changes={"SALARY": 60_000})

            updated = db.run_transaction(give_raise)
        """
        return self._run_session(body, lambda txn: txn.commit(), attempts)

    def _one_op(self, op: str, *args):
        """Run one mutation as a one-op transactional session.

        An auto-commit call *is* a transaction that buffers a single
        :class:`Transaction` op and commits: built against a snapshot
        with no lock held, validated first-committer-wins, and retried
        against a fresh snapshot on a lost race — so the caller sees
        the outcomes a serial schedule would (a duplicate birth fails
        with :class:`~repro.core.errors.RelationError`, a disjoint-key
        write simply lands). Only a standing conflict — a stream of
        relation-granular commits, or an in-doubt prepare pinning the
        key — exhausts the retries and surfaces the
        :class:`~repro.core.errors.ConflictError`.
        """
        return self._run_session(lambda txn: getattr(txn, op)(*args),
                                 Transaction._commit)

    def _run_session(self, body, commit, attempts: int = 5):
        """The conflict-retry loop: *body* on a fresh session, then
        *commit*, again from the top when the commit loses its race."""
        attempts = max(1, attempts)
        for attempt in range(attempts):
            txn = self.transaction()
            try:
                result = body(txn)
            except BaseException:
                if txn.state == "active":
                    txn.rollback()
                raise
            if txn.state != "active":  # body committed / rolled back itself
                return result
            try:
                commit(txn)
            except ConflictError:
                if attempt == attempts - 1:
                    raise
                continue
            return result

    # -- two-phase commit -----------------------------------------------------

    def in_doubt_transactions(self) -> list[str]:
        """The ids of prepared (voted-yes, undecided) transactions.

        Non-empty only while this database is a two-phase-commit
        participant between a PREPARE and its coordinator's decision —
        including just after a crash-reopen that recovered PREPARE
        records without decisions (presumed abort: the shard worker
        resolves each against the coordinator's decision log, see
        :mod:`repro.sharding`).
        """
        with self._concurrency.write():
            return list(self._prepared_txns)

    def _ensure_decided(self, action: str) -> None:
        """Refuse *action* while a two-phase transaction is in doubt.

        A checkpoint truncates the log, and a shipped snapshot starts
        its reader past the current position: either would put a
        PREPARE record out of reach before a decision resolved it.
        """
        pending = self.in_doubt_transactions()
        if pending:
            raise StorageError(
                f"cannot {action} with prepared two-phase transactions "
                f"pending ({', '.join(sorted(pending))}): their PREPARE "
                f"records must stay in the log until a decision resolves "
                f"them")

    def resolve_prepared(self, txn_id: str, commit: bool) -> None:
        """Apply the coordinator's decision to a prepared transaction.

        The decision is logged first, so a later reopen replays
        deterministically. ``commit=True`` then runs the stashed steps
        and publishes the write-set exactly as an ordinary commit would
        — constraints are **not** re-checked; they passed at prepare
        time, which is what the yes vote promised. ``commit=False``
        drops the stash. Either way the pinned write-set is released.
        """
        self._ensure_mutable("resolve a prepared transaction")
        lsn = None
        with self._concurrency.write():
            if txn_id not in self._prepared_txns:
                raise TransactionError(
                    f"no prepared transaction {txn_id!r} on {self.name!r}")
            if self._durability is not None:
                lsn = self._durability.log_decision(txn_id, commit)
            self._decide(txn_id, commit)
        if lsn is not None:
            self._durability.ensure_durable(lsn)

    # -- durability ----------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when the database is backed by a directory on disk."""
        return self._durability is not None

    @property
    def path(self) -> Optional[str]:
        """The durable database directory, or None for ephemeral ones."""
        return None if self._durability is None else self._durability.path

    def checkpoint(self) -> int:
        """Write a consistent snapshot and truncate the write-ahead log.

        Every relation's heap pages and indexes are written at a new
        generation, the manifest flips atomically, and the WAL resets —
        so reopening costs a snapshot load instead of a long replay.
        The protocol is crash-safe at every boundary (see
        :meth:`repro.database.durability.DurabilityManager.checkpoint`).
        Returns the new checkpoint generation.
        """
        self._require_durable("checkpoint")
        with self._concurrency.write():
            return self._durability.checkpoint(self)

    def flush(self) -> None:
        """Force every acknowledged commit to stable storage.

        A no-op under ``sync="always"``; under ``"batch"`` / ``"never"``
        this is the group-commit boundary callers can invoke by hand.
        """
        self._require_durable("flush")
        self._durability.flush()

    @property
    def closed(self) -> bool:
        """True once a durable database has been :meth:`close`\\ d.

        Ephemeral databases are never closed (their ``close()`` is a
        no-op).
        """
        return self._durability is not None and self._durability.closed

    def close(self) -> None:
        """Flush and release the durable database's files (idempotent).

        Ephemeral databases accept ``close()`` as a no-op so callers
        can treat both kinds uniformly. A closed database refuses
        further mutations (``StorageError``); reopen it by
        constructing a new :class:`HistoricalDatabase` on the path.
        """
        if self._durability is not None:
            with self._concurrency.write():
                self._durability.close()

    def __enter__(self) -> "HistoricalDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _require_durable(self, action: str) -> None:
        if self._durability is None:
            raise RelationError(
                f"cannot {action}: {self.name!r} is not a durable database "
                f"(construct it with path=...)"
            )

    def _ensure_mutable(self, action: str) -> None:
        """Fail fast — with one consistent error — on a closed database.

        Every mutation entry point (insert / update / terminate /
        reincarnate / evolve / DDL / replace / transaction) calls this
        first, so mutation-after-``close()`` raises the same
        :class:`~repro.core.errors.StorageError` regardless of which
        path would otherwise have hit the durability layer first (or
        not at all, for paths that fail later).
        """
        if self.closed:
            raise StorageError(
                f"the database has been closed; cannot {action} "
                f"(reopen it with HistoricalDatabase(path=...))"
            )

    # -- internal apply/restore machinery -----------------------------------

    def _backend(self, name: str) -> Backend:
        try:
            return self._backends[name]
        except KeyError:
            raise RelationError(f"no relation named {name!r}") from None

    def _commit(self, write_set: WriteSet, steps: list,
                snapshot_id: Optional[int] = None,
                txn_id: Optional[str] = None) -> None:
        """The commit pipeline — every catalog change runs through here.

        *steps* are rows of the op table
        (:data:`repro.database.durability.CATALOG_OPS`); *write_set*
        names what they touch; *snapshot_id* is the commit the caller
        built them against (None: nothing was read, so only a pinned
        prepare can conflict). In order: encode the WAL ops with no
        lock held; take the commit lock; validate first-committer-wins;
        run the steps, collecting undo closures; sweep the constraints
        once over the fully applied state; append **one** WAL record;
        publish; release the lock; wait for the record's fsync
        (:meth:`~repro.database.durability.DurabilityManager.ensure_durable`,
        a leader/follower group sync that overlaps other committers'
        CPU work). Any failure undoes the steps in reverse and
        re-raises with the catalog, the log and the published cut
        untouched.

        With *txn_id* the same pipeline is phase one of a two-phase
        commit: after the sweep the steps are undone again, a PREPARE
        record is logged (force-synced before returning, whatever the
        sync policy — the yes vote must survive a crash) and the steps
        are stashed under the pinned write-set, so the backends never
        hold undecided changes.
        """
        manager = self._durability
        ops = (None if manager is None
               else [durability.encode_step(step) for step in steps])
        lsn = None
        undos: list = []
        with self._concurrency.write():
            if txn_id in self._prepared_txns:
                raise TransactionError(
                    f"transaction id {txn_id!r} is already prepared")
            if snapshot_id is None:
                snapshot_id = self._concurrency.published_commits
            self._concurrency.validate(write_set, snapshot_id)
            try:
                for step in steps:
                    undos.append(durability.run_step(self, step))
                self._check_constraints()
                if txn_id is None:
                    if ops:
                        lsn = manager.log_commit(ops)
                    self._concurrency.committed(self._backends, write_set)
                else:
                    while undos:
                        undos.pop()()
                    if ops:
                        lsn = manager.log_prepare(ops, txn_id)
                    self._stash_prepared(txn_id, write_set, steps)
            except BaseException:
                while undos:
                    undos.pop()()
                raise
        if lsn is not None:
            if txn_id is None:
                manager.ensure_durable(lsn)
            else:
                manager.force_durable()

    def _apply_logged(self, record) -> None:
        """Apply one record that is already in a log — recovery at
        open, the replica stream. A commit's steps run and publish; a
        PREPARE's steps are stashed under a pinned write-set (relation
        granularity: the record carries no per-key delta lifespans); a
        decision resolves its stash. Nothing is swept (the constraints
        passed when the record was written) and nothing is re-logged.
        Caller holds the commit lock.
        """
        if record.kind in ("decide-commit", "decide-abort"):
            self._decide(record.txn_id, record.kind == "decide-commit")
            return
        steps = self._durability.decode(self, record)
        if record.kind == "prepare":
            steps = list(steps)
            self._stash_prepared(
                record.txn_id,
                _relation_write_set(*(name for _, name, _ in steps)), steps)
        else:
            self._redo(steps, None)

    def _stash_prepared(self, txn_id: str, write_set: WriteSet,
                        steps: list) -> None:
        """Pin a prepare's write-set and keep its steps for the
        decision (caller holds the commit lock)."""
        self._prepared_txns[txn_id] = _PreparedTxn(write_set, steps)
        self._concurrency.pin_prepared(txn_id, write_set)

    def _decide(self, txn_id: str, commit: bool) -> None:
        """Unpin a stashed prepare and drop it or make it real (caller
        holds the commit lock and has the decision on record). An
        unknown id is a no-op."""
        state = self._prepared_txns.pop(txn_id, None)
        self._concurrency.unpin_prepared(txn_id)
        if commit and state is not None:
            self._redo(state.steps, state.write_set)

    def _redo(self, steps, write_set: Optional[WriteSet]) -> None:
        """Run steps that were validated, swept and logged before, then
        publish them (*write_set* None: relation-granular over the
        relations the steps name)."""
        names = []
        for step in steps:
            durability.run_step(self, step)
            names.append(step[1])
        self._concurrency.committed(
            self._backends,
            _relation_write_set(*names) if write_set is None else write_set)

    def _env(self) -> dict[str, Any]:
        """The planner / executor environment: name → tuple source.

        This is the last *published* environment — an immutable,
        committed snapshot (see :mod:`repro.database.concurrency`), so
        a query executes against one consistent state even while other
        threads commit.
        """
        return self._concurrency.read_env()

    # -- schema evolution (delegates) ----------------------------------------

    def evolve_scheme(self, name: str, new_scheme: RelationScheme) -> None:
        """Install an evolved scheme, re-homing every tuple.

        Values outside the new attribute lifespans are clipped; this is
        the low-level hook used by :mod:`repro.database.evolution`.
        Constraints are re-checked through the same install / restore
        path as every other mutation, so a violating evolution leaves
        the catalog untouched.

        Pessimistic, like :meth:`replace`: the re-homed value is built
        from the live relation with the commit lock held, so keyed
        commits landing meanwhile wait instead of invalidating it —
        only an in-doubt prepare pinning the relation conflicts.
        """
        self._ensure_mutable("evolve a scheme")
        with self._concurrency.write():
            rehomed = mutations.rehome(self._backend(name).source(),
                                       new_scheme, name)
            self._commit(_relation_write_set(name), [
                ("install", name, HistoricalRelation(new_scheme, rehomed))])

    # -- constraints ---------------------------------------------------------

    def add_constraint(self, constraint) -> None:
        """Register a constraint (see :mod:`repro.database.integrity`).

        The constraint is checked immediately and then after every
        mutation (at commit, for transactional sessions).
        """
        with self._concurrency.write():
            self._constraints.append(constraint)
            try:
                self._check_constraints()
            except IntegrityError:
                self._constraints.pop()
                raise

    def constraints(self) -> tuple:
        """The registered constraints."""
        return tuple(self._constraints)

    def _check_constraints(self) -> None:
        for constraint in self._constraints:
            constraint.check(self)

    # -- querying ------------------------------------------------------------

    def query(self, source,
              params: Optional[Mapping[str, Any]] = None, *,
              optimize: bool = True) -> QueryResult:
        """Run an HRQL statement against the catalog, via the planner.

        Every query is planned: normalized with the Section 5 rewrite
        laws (unless ``optimize=False``), translated to a physical
        plan with cost-chosen access paths, and executed against the
        catalog's mix of in-memory and stored relations. *params*
        binds ``:name`` parameters in the statement at plan time.
        *source* is HRQL text (text only: the text, with its binding,
        is the statement's identity in the plan cache).

        The plan comes from the database's one statement cache
        (:mod:`repro.database.prepared`): a repeated text and binding
        re-plans only after a commit, and then without re-parsing or
        re-normalizing. The plan's commit id and the environment it
        executes on are read together, from one published snapshot.

        Returns a typed :class:`~repro.database.result.QueryResult`:
        ``.relation`` for relation answers, ``.lifespan`` for top-level
        ``WHEN``, ``.explanation`` for ``EXPLAIN [ANALYZE]``, and
        ``.plan`` for the physical plan behind any of them.

        >>> db.query("SELECT WHEN SALARY >= :min IN EMP",
        ...          {"min": 30_000}).relation             # doctest: +SKIP
        """
        snapshot = self._concurrency.snapshot()
        planned = self._statements.plan(source, params, optimize, snapshot)
        return answer(planned.plan, planned.explain, snapshot.env)

    def explain(self, source,
                params: Optional[Mapping[str, Any]] = None, *,
                analyze: bool = False,
                optimize: bool = True) -> PlanExplanation:
        """EXPLAIN an HRQL query against the catalog.

        Equivalent to :meth:`query` on ``EXPLAIN [ANALYZE] <source>``,
        as a programmatic API, through the same statement cache.
        *source* is HRQL text and may itself be an ``EXPLAIN
        [ANALYZE]`` statement (its ``ANALYZE`` flag is honored
        alongside the *analyze* argument). *params* binds ``:name``
        parameters. ``ANALYZE`` records on a fresh copy of the plan,
        never on the cached one.
        """
        snapshot = self._concurrency.snapshot()
        planned = self._statements.plan(source, params, optimize, snapshot)
        return explain_plan(planned.plan, snapshot.env,
                            analyze or bool(planned.explain))

    def prepare(self, source: str) -> PreparedQuery:
        """A handle on an HRQL query, for repeated parameterized runs.

        Parses once to validate the text and report its ``:name``
        parameters (``EXPLAIN`` statements are refused — call
        ``.explain()`` on the handle). The returned
        :class:`~repro.database.prepared.PreparedQuery` is just the
        text: each run is :meth:`query` on it, served by the same plan
        cache as any other call with that text and binding.

        >>> ready = db.prepare("SELECT IF SALARY >= :min IN EMP")  # doctest: +SKIP
        >>> ready.query({"min": 30_000}).rows()                    # doctest: +SKIP
        """
        return PreparedQuery(self, source)

    # -- convenience ---------------------------------------------------------

    @property
    def now(self) -> int:
        """The database's current time."""
        return self.time_domain.now

    def snapshot(self, time: Optional[int] = None) -> dict[str, list[dict]]:
        """The classical view of the whole database at one chronon.

        Computed over the published read environment, so the view is a
        committed cut even under concurrent commits.
        """
        at = self.now if time is None else time
        return {name: relation.snapshot(at)
                for name, relation in self._env().items()}

    def __repr__(self) -> str:
        return f"HistoricalDatabase({self.name!r}, {len(self)} relations)"
