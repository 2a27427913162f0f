"""Durability — checkpoints, WAL commits, and crash recovery.

:class:`DurabilityManager` is the glue between a
:class:`~repro.database.database.HistoricalDatabase` and the storage
substrate's persistence machinery (:mod:`repro.storage.pager`,
:mod:`repro.storage.wal`). The database owns the in-memory truth; the
manager makes three promises about the directory behind it:

1. **Committed means durable** (modulo the chosen sync policy). Every
   commit — an auto-commit mutation, a DDL change, or a whole
   transaction — appends exactly one framed, checksummed WAL record
   *after* the in-memory apply and the constraint sweep succeeded.
   The WAL append is the commit's durability point.
2. **Checkpoints are consistent cuts.** ``checkpoint()`` writes every
   relation's snapshot at a new generation, atomically flips the
   manifest, and only then truncates the log. A crash at *any* point
   of that protocol recovers to a state that equals some committed
   state — never a torn mix.
3. **Reopen replays to the last commit.** ``open()`` loads the
   manifest's snapshots, then feeds the WAL's complete records
   (skipping stale generations, stopping at a torn tail) to
   ``HistoricalDatabase._apply_logged`` — the commit / prepare /
   decide state machine a replica's stream runs too — without
   re-running integrity constraints, which already passed when the
   record was written.

The module also owns the **op table** (:data:`CATALOG_OPS`): the four
ways a catalog changes — ``apply``, ``install``, ``create``, ``drop`` —
each stated once as *run* (returning its undo), *encode* (the WAL op)
and *decode*. The commit pipeline, recovery, replicas and stashed
two-phase prepares all speak lists of steps (:data:`Step`) over it.

The recovery invariant is property-tested in
``tests/test_durability.py``: truncate or corrupt the log at *any*
byte offset, reopen, and the recovered catalog equals the state after
the last surviving commit.
"""

from __future__ import annotations

import os
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Iterator, Mapping,
                    NamedTuple, Optional, Tuple)

from repro.core.domains import ValueDomain
from repro.core.errors import RecoveryError, RelationError, StorageError
from repro.core.relation import HistoricalRelation
from repro.core.tuples import HistoricalTuple
from repro.database.backends import BACKENDS
from repro.storage import pager as pager_mod
from repro.storage import wal as wal_mod
from repro.storage.engine import decode_tuple, encode_tuple
from repro.storage.pager import Pager
from repro.storage.wal import CommitRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.database.database import HistoricalDatabase


# -- the catalog-op table -----------------------------------------------------

#: One unit of catalog change: ``(op, relation name, payload)``. The
#: payload is the keyed batch (``apply``), the new relation value
#: (``install``), the ready-built backend (``create``) or None (``drop``).
Step = Tuple[str, str, Any]


def _run_apply(db, name: str, changes: Mapping[tuple, HistoricalTuple]):
    return db._backend(name).apply(changes)


def _run_install(db, name: str, relation: HistoricalRelation):
    return db._backend(name).install(relation)


def _run_create(db, name: str, backend):
    if name in db._backends:
        raise RelationError(f"relation {name!r} already exists")
    db._backends[name] = backend
    return partial(db._backends.pop, name)


def _run_drop(db, name: str, _):
    backend = db._backend(name)
    del db._backends[name]
    return partial(db._backends.__setitem__, name, backend)


def apply_op(name: str, changes: Mapping[tuple, HistoricalTuple]) -> bytes:
    """Encode a keyed batch of replacement tuples for *name*."""
    return wal_mod.encode_apply(
        name, (encode_tuple(t) for t in changes.values())
    )


def install_op(name: str, relation: HistoricalRelation) -> bytes:
    """Encode a whole-relation replacement (evolution, ``replace``)."""
    return wal_mod.encode_install(
        name, pager_mod.scheme_to_json(relation.scheme),
        (encode_tuple(t) for t in relation),
    )


def create_op(name: str, backend) -> bytes:
    """Encode a new catalog entry with its initial contents."""
    return wal_mod.encode_create(
        name, backend.kind, backend.options(),
        pager_mod.scheme_to_json(backend.scheme),
        (encode_tuple(t) for t in backend.source()),
    )


def drop_op(name: str, _) -> bytes:
    """Encode a catalog entry removal."""
    return wal_mod.encode_drop(name)


def _decode_apply(db, domains, name: str, blobs):
    scheme = db._backend(name).scheme
    changes = {}
    for blob in blobs:
        t = decode_tuple(blob, scheme)
        changes[t.key_value()] = t
    return changes


def _decode_install(db, domains, name: str, scheme_json: str, blobs):
    scheme = pager_mod.scheme_from_json(scheme_json, domains)
    return HistoricalRelation(
        scheme, [decode_tuple(blob, scheme) for blob in blobs])


def _decode_create(db, domains, name: str, kind: str, options: dict,
                   scheme_json: str, blobs):
    scheme = pager_mod.scheme_from_json(scheme_json, domains)
    return BACKENDS[kind](
        scheme, [decode_tuple(blob, scheme) for blob in blobs], **options)


def _decode_drop(db, domains, name: str):
    return None


class CatalogOp(NamedTuple):
    """One of the four ways a catalog changes, stated once.

    ``run(db, name, payload)`` makes the change in memory and returns
    the closure that undoes it; ``encode(name, payload)`` is its WAL
    op; ``decode(db, domains, name, *fields)`` rebuilds the payload
    from a decoded WAL op (:func:`repro.storage.wal.decode_op`).
    """

    run: Callable
    encode: Callable
    decode: Callable


#: The op table: every commit, every logged record and every stashed
#: prepare is a list of steps (:data:`Step`) over these four rows.
CATALOG_OPS = {
    "apply": CatalogOp(_run_apply, apply_op, _decode_apply),
    "install": CatalogOp(_run_install, install_op, _decode_install),
    "create": CatalogOp(_run_create, create_op, _decode_create),
    "drop": CatalogOp(_run_drop, drop_op, _decode_drop),
}


def run_step(db: "HistoricalDatabase", step: Step) -> Callable[[], Any]:
    """Make one step's change in memory; returns its undo closure."""
    op, name, payload = step
    return CATALOG_OPS[op].run(db, name, payload)


def encode_step(step: Step) -> bytes:
    """One step as a WAL op."""
    op, name, payload = step
    return CATALOG_OPS[op].encode(name, payload)


class DurabilityManager:
    """Pager + WAL behind one durable :class:`HistoricalDatabase`."""

    def __init__(self, path: str, sync: str = "batch", batch_size: int = 64,
                 domains: Optional[Mapping[str, ValueDomain]] = None):
        self.pager = Pager(path)
        self._lock = self.pager.acquire_lock()  # single writer per directory
        self.wal = WriteAheadLog(self.pager.wal_path, sync, batch_size)
        self.generation = 0
        self._domains = dict(domains or {})
        self._closed = False

    @property
    def path(self) -> str:
        """The database directory."""
        return self.pager.path

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the directory."""
        return self._closed

    # -- open / recover ----------------------------------------------------

    def open(self, db: "HistoricalDatabase",
             name: Optional[str]) -> None:
        """Load (or initialize) the directory into *db*.

        For an existing database: restores the catalog from the
        manifest's snapshots, then replays the WAL's surviving commit
        records on top. For a fresh or empty directory: initializes a
        generation-0 manifest so the database is reopenable from the
        very first commit.
        """
        manifest = self.pager.read_manifest()
        if manifest is None:
            db.name = name or os.path.basename(self.path.rstrip(os.sep)) or "db"
            self.generation = 0
            self.wal.recover()  # truncates any torn tail of a dead sibling
            self.wal.generation = 0
            self.write_manifest(db)
            return
        if name is not None and name != manifest["name"]:
            raise RecoveryError(
                f"the database at {self.path} is named {manifest['name']!r}, "
                f"not {name!r}"
            )
        db.name = manifest["name"]
        db.time_domain = pager_mod.time_domain_from_dict(manifest["time_domain"])
        self.generation = manifest["generation"]
        for rel_name, meta in manifest["relations"].items():
            scheme = pager_mod.scheme_from_dict(meta["scheme"], self._domains)
            raw = self.pager.read_snapshot(rel_name, self.generation)
            factory = BACKENDS[meta["storage"]]
            db._backends[rel_name] = factory.from_snapshot(
                scheme, raw, **meta.get("options", {})
            )
        # The fencing epoch survives restarts through the manifest; a
        # record committed after the last manifest write may carry a
        # newer one (promotion bumps the epoch, then keeps committing).
        self.wal.epoch = int(manifest.get("epoch", 0))
        records = self.wal.recover()
        self.wal.generation = self.generation
        for record in records:
            if record.generation < self.generation:
                continue  # predates the checkpoint; already in the snapshot
            if record.generation > self.generation:
                raise RecoveryError(
                    f"WAL record generation {record.generation} is ahead of "
                    f"the manifest ({self.generation}); refusing to guess"
                )
            # An undecided PREPARE stays stashed on *db* — presumed
            # abort: the owner resolves it against the coordinator's
            # decision log (see :mod:`repro.sharding`).
            db._apply_logged(record)
            if record.epoch > self.wal.epoch:
                self.wal.epoch = record.epoch
        # Restore the LSN floor: a checkpoint-emptied log carries no
        # records to speak for the counter, and replication positions
        # must stay monotone across restarts.
        self.wal.ensure_lsn(int(manifest.get("wal_lsn", 0)))

    def decode(self, db: "HistoricalDatabase",
               record: CommitRecord) -> Iterator[Step]:
        """The steps of a logged record, through the op table.

        Lazy on purpose: each step is decoded right before the caller
        runs it, against the schemes the steps before it left behind.
        """
        for tag, name, *fields in record.decoded():
            yield tag, name, CATALOG_OPS[tag].decode(
                db, self._domains, name, *fields)

    # -- commit logging ----------------------------------------------------

    def log_commit(self, ops: list) -> int:
        """Append one commit record; returns its LSN.

        The append is deferred-sync: it writes and flushes the frame
        (cheap, safe under the commit lock — commit order and WAL
        order stay identical) but leaves the fsync to
        :meth:`ensure_durable`, which the committer calls *after*
        releasing the commit lock and *before* acknowledging. The
        record is the durability point only once both halves ran.
        """
        self._ensure_open()
        return self.wal.append(ops, defer_sync=True)

    def ensure_durable(self, lsn: int) -> None:
        """Block until the record at *lsn* is durable per the sync
        policy (leader/follower group fsync — see
        :meth:`~repro.storage.wal.WriteAheadLog.sync_to`). Called off
        the commit lock so one committer's disk wait overlaps every
        other committer's CPU work."""
        self._ensure_open()
        self.wal.sync_to(lsn)

    # -- two-phase commit --------------------------------------------------

    def log_prepare(self, ops: list, txn_id: str) -> int:
        """Append a PREPARE record (deferred-sync); returns its LSN.

        The caller **must** call :meth:`force_durable` (off the commit
        lock) before voting yes — a prepare that is not on stable
        storage when the coordinator decides commit would be forgotten
        by a crash, and presumed abort would then lose an acknowledged
        decision.
        """
        self._ensure_open()
        return self.wal.append(ops, defer_sync=True, kind="prepare",
                               txn_id=txn_id)

    def log_decision(self, txn_id: str, commit: bool) -> int:
        """Append the coordinator's decision for a prepared transaction.

        Synced per the ordinary policy: losing an unsynced decision
        record merely re-opens the in-doubt window, which presumed-
        abort recovery resolves from the coordinator's decision log.
        """
        self._ensure_open()
        kind = "decide-commit" if commit else "decide-abort"
        return self.wal.append([], defer_sync=True, kind=kind, txn_id=txn_id)

    def force_durable(self) -> None:
        """Force-fsync every appended record regardless of sync policy
        — the PREPARE vote's durability point."""
        self._ensure_open()
        self.wal.flush()

    # -- checkpointing -----------------------------------------------------

    @property
    def position(self) -> tuple[int, int]:
        """The durable stream position: ``(generation, last LSN)``.

        This is the coordinate system replication speaks: generations
        advance at checkpoints, LSNs advance by one per commit and are
        monotone across restarts (the manifest persists the counter).
        """
        return self.generation, self.wal.last_lsn

    @property
    def epoch(self) -> int:
        """The replication fencing epoch new commits are stamped with."""
        return self.wal.epoch

    def bump_epoch(self, db: "HistoricalDatabase") -> int:
        """Advance the fencing epoch and persist it — the promote step.

        The new epoch is durable (manifest write) *before* any commit
        is stamped with it, so a crash immediately after promotion
        still reopens fenced against the old timeline. Returns the new
        epoch.
        """
        self._ensure_open()
        self.wal.epoch += 1
        self.write_manifest(db)
        return self.wal.epoch

    def checkpoint(self, db: "HistoricalDatabase",
                   generation: Optional[int] = None) -> int:
        """Write a consistent snapshot and truncate the log.

        Protocol (crash-safe at every boundary):

        1. write every relation's snapshot at generation ``G+1``;
        2. atomically flip the manifest to generation ``G+1``;
        3. truncate the WAL (its records are all inside the snapshot);
        4. delete snapshots of generations ``< G+1``.

        A crash before (2) leaves the old manifest + full WAL: recovery
        ignores the half-written new snapshots. A crash between (2)
        and (3) leaves stale WAL records, which replay skips by their
        generation stamp. Returns the new generation.

        *generation* overrides the default ``G+1``: a replica that sees
        its primary's stream jump generations mid-flight mirrors the
        primary's checkpoint locally under the **primary's** number, so
        both sides keep speaking the same ``(generation, lsn)``
        positions. It must advance the current generation.
        """
        self._ensure_open()
        db._ensure_decided("checkpoint")
        if generation is None:
            new_generation = self.generation + 1
        elif generation <= self.generation:
            raise StorageError(
                f"checkpoint generation {generation} does not advance the "
                f"current one ({self.generation})")
        else:
            new_generation = generation
        for name, backend in db._backends.items():
            self.pager.write_snapshot(name, new_generation, backend.to_snapshot())
        self.write_manifest(db, new_generation)
        self.wal.reset(new_generation)
        self.pager.clean_snapshots(new_generation)
        self.generation = new_generation
        return new_generation

    def write_manifest(self, db: "HistoricalDatabase",
                       generation: Optional[int] = None) -> None:
        """Serialize the catalog metadata at *generation* (default: current)."""
        manifest = {
            "format": pager_mod.FORMAT_VERSION,
            "name": db.name,
            "generation": self.generation if generation is None else generation,
            "wal_lsn": self.wal.last_lsn,
            "epoch": self.wal.epoch,
            "time_domain": pager_mod.time_domain_to_dict(db.time_domain),
            "relations": {
                name: {
                    "storage": backend.kind,
                    "options": backend.options(),
                    "scheme": pager_mod.scheme_to_dict(backend.scheme),
                }
                for name, backend in db._backends.items()
            },
        }
        self.pager.write_manifest(manifest)

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Force every acknowledged commit to stable storage."""
        self._ensure_open()
        self.wal.flush()

    def close(self) -> None:
        """Flush and release the log and the directory lock (idempotent)."""
        if not self._closed:
            self.wal.close()
            self.pager.release_lock(self._lock)
            self._lock = None
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError("the database has been closed")

    def __repr__(self) -> str:
        return (f"DurabilityManager({self.path!r}, "
                f"generation={self.generation}, sync={self.wal.sync!r})")
