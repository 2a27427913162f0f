"""The write-ahead log — durability for committed transactions.

The paper's lifespan model (Section 1) is about histories that outlive
any single query; this module is what lets them outlive the *process*.
A :class:`WriteAheadLog` is an append-only file of framed, checksummed
commit records. The database appends one record per committed
transaction (auto-commit mutations count as one-operation
transactions), *after* the in-memory state and the integrity
constraints have accepted it — the WAL append is the durability point.

Frame layout (little-endian)::

    +----------+----------+------------------+
    | length   | crc32    | payload          |
    | u32      | u32      | `length` bytes   |
    +----------+----------+------------------+

    payload := generation u32 | lsn u64 | n_ops u32 | epoch u32 | op*
               [ kind u8 | txn_id str ]
    op      := opcode u8 | opcode-specific body

(``epoch`` is the replication fencing number — the primacy generation
stamped into every commit so a promoted replica's new timeline is
distinguishable from a demoted primary's old one; see
:mod:`repro.replication`. Single-node databases carry epoch 0 forever.)

The optional trailing extension distinguishes **two-phase commit**
records (see :mod:`repro.sharding`) from ordinary commits. A plain
commit writes no extension — its frames are byte-identical to every
log written before sharding existed — while a ``PREPARE`` record
(the participant's force-synced vote, ops included but not yet
applied) and the two decision records (``decide-commit`` /
``decide-abort``, no ops, resolving a prior prepare by transaction id)
append a kind byte and the transaction id. Presumed abort: a prepare
with no decision record is *in doubt* and must be resolved against the
coordinator's decision log on reopen.

Opcodes mirror the four ways a catalog changes:

* ``APPLY``   — a keyed batch of replacement tuples for one relation
  (the normal mutation path, model-level tuples encoded by
  :func:`repro.storage.engine.encode_tuple`);
* ``INSTALL`` — a whole-relation replacement (schema evolution,
  ``db.replace``), carrying the possibly-new scheme;
* ``CREATE``  — a new catalog entry: storage kind, backend options,
  scheme, and any initial tuples;
* ``DROP``    — a catalog entry removed.

Torn tails are expected, not exceptional: a crash mid-append leaves a
final frame whose length or checksum does not verify. :meth:`recover`
stops replay at the first invalid frame and truncates the file back to
the last valid boundary, so the log is again append-able — exactly the
"kill at any write boundary" contract the crash-safety property tests
exercise.

Sync policies trade durability latency for throughput (group commit):

* ``"always"`` — ``fsync`` after every commit; an acknowledged commit
  survives an immediate power cut;
* ``"batch"``  — ``fsync`` every *batch_size* commits (and on
  :meth:`flush` / :meth:`close`); a crash may lose the unsynced tail
  of *acknowledged* commits, never a prefix — the classic group
  commit;
* ``"never"``  — leave syncing to the OS; fastest, weakest.

The log is safe to share across threads: :meth:`append`, :meth:`flush`
and :meth:`reset` serialize on an internal mutex, so concurrent
committers (one per server connection, see :mod:`repro.server`)
interleave whole frames, never bytes — and under ``"batch"`` their
commits are absorbed into one fsync per *batch_size* window, which is
where group commit earns its throughput under concurrent load (the
layer account reports ``storage.wal_fsync_us`` and
``storage.fsyncs_per_commit``; see ``docs/performance.md``).

Committers that must not hold a lock across the disk wait split the
append in two: ``append(ops, defer_sync=True)`` writes and flushes the
frame (preserving commit order under the caller's commit lock), and
:meth:`sync_to` afterwards makes it durable with a **leader/follower
group fsync** — the first committer through becomes the leader and its
one fsync covers every frame flushed so far; followers observe their
LSN already synced and return immediately. Under ``"always"`` this
keeps the acknowledged-means-durable contract while concurrent
committers overlap their CPU work with the leader's fsync.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro import faults as faults_mod
from repro.core.errors import WALError
from repro.storage.codec import decode_blobs, encode_blobs


class WALGapError(WALError):
    """A :class:`WALReader` met a record beyond the next expected LSN:
    the records in between were truncated away by a checkpoint while
    the reader was not looking. The reader cannot reconstruct them from
    the log — the subscriber must fall back to a snapshot."""

_FRAME = struct.Struct("<II")  # (payload length, crc32 of payload)
_PAYLOAD_HEAD = struct.Struct("<IQII")  # (generation, lsn, n_ops, epoch)

#: Operation codes inside a commit record.
OP_APPLY = 1
OP_INSTALL = 2
OP_CREATE = 3
OP_DROP = 4

_U32 = struct.Struct("<I")

#: The admissible values of the ``sync=`` policy.
SYNC_POLICIES = ("always", "batch", "never")

#: Record kinds beyond a plain commit (two-phase commit, see
#: :mod:`repro.sharding`). A plain ``"commit"`` writes no extension
#: bytes, so pre-sharding logs and new single-node logs stay
#: byte-identical.
_KIND_CODES = {"prepare": 1, "decide-commit": 2, "decide-abort": 3}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def _enc_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _dec_str(buf: memoryview, offset: int) -> tuple[str, int]:
    (length,), offset = _U32.unpack_from(buf, offset), offset + 4
    end = offset + length
    if end > len(buf):
        raise WALError(f"truncated string at offset {offset}")
    return bytes(buf[offset:end]).decode("utf-8"), end


# -- operation encoders ------------------------------------------------------


def encode_apply(name: str, tuple_blobs: Iterable[bytes]) -> bytes:
    """An APPLY op: *name* takes the encoded replacement tuples."""
    return bytes([OP_APPLY]) + _enc_str(name) + encode_blobs(tuple_blobs)


def encode_install(name: str, scheme_json: str,
                   tuple_blobs: Iterable[bytes]) -> bytes:
    """An INSTALL op: *name* is wholly replaced under *scheme_json*."""
    return (bytes([OP_INSTALL]) + _enc_str(name) + _enc_str(scheme_json)
            + encode_blobs(tuple_blobs))


def encode_create(name: str, kind: str, options: dict,
                  scheme_json: str, tuple_blobs: Iterable[bytes]) -> bytes:
    """A CREATE op: a new catalog entry with its backend and contents."""
    return (bytes([OP_CREATE]) + _enc_str(name) + _enc_str(kind)
            + _enc_str(json.dumps(options, sort_keys=True))
            + _enc_str(scheme_json) + encode_blobs(tuple_blobs))


def encode_drop(name: str) -> bytes:
    """A DROP op: the catalog entry *name* is removed."""
    return bytes([OP_DROP]) + _enc_str(name)


def decode_op(raw: bytes) -> tuple[Any, ...]:
    """Decode one op into a tagged tuple.

    Returns one of::

        ("apply",   name, [tuple_bytes, ...])
        ("install", name, scheme_json, [tuple_bytes, ...])
        ("create",  name, kind, options_dict, scheme_json, [tuple_bytes, ...])
        ("drop",    name)
    """
    buf = memoryview(raw)
    if not buf:
        raise WALError("empty operation")
    opcode, offset = buf[0], 1
    if opcode == OP_APPLY:
        name, offset = _dec_str(buf, offset)
        blobs, offset = decode_blobs(buf, offset)
        return ("apply", name, blobs)
    if opcode == OP_INSTALL:
        name, offset = _dec_str(buf, offset)
        scheme_json, offset = _dec_str(buf, offset)
        blobs, offset = decode_blobs(buf, offset)
        return ("install", name, scheme_json, blobs)
    if opcode == OP_CREATE:
        name, offset = _dec_str(buf, offset)
        kind, offset = _dec_str(buf, offset)
        options_json, offset = _dec_str(buf, offset)
        scheme_json, offset = _dec_str(buf, offset)
        blobs, offset = decode_blobs(buf, offset)
        return ("create", name, kind, json.loads(options_json),
                scheme_json, blobs)
    if opcode == OP_DROP:
        name, offset = _dec_str(buf, offset)
        return ("drop", name)
    raise WALError(f"unknown opcode {opcode}")


# -- the log -----------------------------------------------------------------


@dataclass(frozen=True)
class CommitRecord:
    """One committed transaction as read back from the log.

    ``epoch`` is the replication fencing number the record was
    committed under (0 for any database that never took part in a
    failover); it trails the positional fields so single-node callers
    can keep ignoring it.

    ``kind`` is ``"commit"`` for every record a non-sharded database
    writes. Two-phase commit participants additionally write
    ``"prepare"`` records (the ops of an in-doubt transaction, voted
    yes but not yet decided) and ``"decide-commit"`` /
    ``"decide-abort"`` records (op-less, resolving a prior prepare by
    ``txn_id``). Replay applies a prepare's ops only once its
    commit decision is on record.
    """

    generation: int
    lsn: int
    ops: tuple[bytes, ...]
    epoch: int = 0
    kind: str = "commit"
    txn_id: str = ""

    def decoded(self) -> list[tuple[Any, ...]]:
        """Every op of this record, decoded (see :func:`decode_op`)."""
        return [decode_op(op) for op in self.ops]


class WriteAheadLog:
    """An append-only, checksummed log of commit records.

    Records written after a checkpoint carry the checkpoint's
    *generation*; replay skips records older than the manifest's
    generation, which is what makes the checkpoint protocol safe
    against a crash between the manifest flip and the log truncation.
    """

    def __init__(self, path: str, sync: str = "batch", batch_size: int = 64):
        if sync not in SYNC_POLICIES:
            options = ", ".join(SYNC_POLICIES)
            raise WALError(f"unknown sync policy {sync!r}; expected one of: {options}")
        if batch_size < 1:
            raise WALError(f"batch_size must be >= 1, got {batch_size}")
        self.path = path
        self.sync = sync
        self.batch_size = batch_size
        self.generation = 0
        #: The replication fencing epoch stamped into new records. 0
        #: for standalone databases; the durability manager restores it
        #: from the manifest and a promotion bumps it (see
        #: :mod:`repro.replication`).
        self.epoch = 0
        self._lsn = 0
        self._fh: Optional[Any] = None
        self._broken = False
        # Serializes cross-thread appends/flushes: frames interleave
        # whole, and one batch fsync covers every thread's commits.
        self._mutex = threading.RLock()
        # Group-sync state: the last LSN (and its end offset in the
        # file) known to be covered by an fsync. Guarded by _mutex;
        # _sync_lock elects one fsync leader at a time (see sync_to).
        self._synced_lsn = 0
        self._synced_end = 0
        self._sync_lock = threading.Lock()

    # -- recovery ----------------------------------------------------------

    def recover(self) -> list[CommitRecord]:
        """Read every complete record; truncate any torn tail.

        A frame whose header is truncated, whose payload is shorter
        than its declared length, or whose checksum does not verify
        ends the replay: everything before it is the recovered history,
        everything from it on is discarded (a torn final write). The
        file is truncated back to the last valid frame boundary so
        subsequent appends start clean.
        """
        self._ensure_closed("recover")
        records: list[CommitRecord] = []
        valid_end = 0
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raw = b""
        offset = 0
        while offset + _FRAME.size <= len(raw):
            length, crc = _FRAME.unpack_from(raw, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(raw):
                break  # torn final frame
            payload = raw[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn or corrupt tail
            try:
                records.append(self._decode_payload(payload))
            except (WALError, struct.error):
                break
            offset = end
            valid_end = end
        if valid_end < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
                fh.flush()
                os.fsync(fh.fileno())
        if records:
            self._lsn = records[-1].lsn
        self._synced_lsn = self._lsn
        self._synced_end = valid_end
        return records

    @staticmethod
    def _decode_payload(payload: bytes) -> CommitRecord:
        generation, lsn, n_ops, epoch = _PAYLOAD_HEAD.unpack_from(payload, 0)
        buf = memoryview(payload)
        offset = _PAYLOAD_HEAD.size
        ops = []
        for _ in range(n_ops):
            (length,), offset = _U32.unpack_from(buf, offset), offset + 4
            end = offset + length
            if end > len(buf):
                raise WALError("truncated op inside record")
            ops.append(bytes(buf[offset:end]))
            offset = end
        kind, txn_id = "commit", ""
        if offset != len(buf):
            # The 2PC trailing extension: kind byte + transaction id.
            code = buf[offset]
            if code not in _KIND_NAMES:
                raise WALError("trailing garbage inside record")
            kind = _KIND_NAMES[code]
            txn_id, offset = _dec_str(buf, offset + 1)
            if offset != len(buf):
                raise WALError("trailing garbage inside record")
        return CommitRecord(generation, lsn, tuple(ops), epoch, kind, txn_id)

    # -- appending ---------------------------------------------------------

    def append(self, ops: Iterable[bytes], *, defer_sync: bool = False,
               kind: str = "commit", txn_id: str = "") -> int:
        """Frame and append one commit record; returns its LSN.

        ``kind``/``txn_id`` select a two-phase-commit record (see
        :class:`CommitRecord`): a ``"prepare"`` carries the in-doubt
        transaction's ops and **must** be made durable (the caller
        force-syncs) before the participant votes yes; the op-less
        decision kinds resolve it. Plain commits pass neither and write
        frames byte-identical to every pre-sharding log.

        Honors the sync policy: the record is durable on return under
        ``"always"``, durable after the next :meth:`flush` / batch
        boundary under ``"batch"``, and left to the OS under
        ``"never"``.

        With ``defer_sync=True`` the frame is written and flushed but
        **not** fsynced, whatever the policy — the caller promises to
        call :meth:`sync_to` with the returned LSN before acknowledging
        the commit. This is how a committer keeps the fsync off its
        critical section: append under the commit lock (cheap buffered
        write, preserving commit order), sync after releasing it, where
        one leader's fsync covers every concurrent committer's frame.

        A failed append (disk full, I/O error) must not leave a
        valid-looking frame behind — the caller is about to roll the
        commit back, and replaying it later would resurrect a mutation
        the application observed as failed. On any write/sync error the
        partial frame is cut back out of the file before the error
        propagates; if even that fails, the log is marked broken and
        refuses further appends (reopen the database to recover).
        """
        materialized = list(ops)
        if kind not in _KIND_CODES and kind != "commit":
            raise WALError(f"unknown record kind {kind!r}")
        if kind in ("commit", "prepare") and not materialized:
            raise WALError("a commit record needs at least one op")
        if kind != "commit" and not txn_id:
            raise WALError(f"a {kind} record needs a transaction id")
        with self._mutex:
            return self._write_frame(self.generation, self._lsn + 1,
                                     materialized, defer_sync,
                                     epoch=self.epoch, kind=kind,
                                     txn_id=txn_id)

    def append_record(self, generation: int, lsn: int,
                      ops: Iterable[bytes], *, epoch: int = 0,
                      kind: str = "commit", txn_id: str = "") -> int:
        """Append a record under an **explicit identity** — the replica
        replay path.

        Where :meth:`append` mints the next local LSN, a replica must
        write exactly the ``(generation, lsn)`` the primary's stream
        carries, so that its log replays (and re-subscribes) from the
        same positions the primary speaks. *lsn* must advance the log:
        appending at or behind :attr:`last_lsn` is a
        :class:`~repro.core.errors.WALError` (the applier deduplicates
        before it gets here). Honors the sync policy like a plain
        append — a replica may batch its local fsyncs; a crash loses an
        unsynced tail that the next catch-up simply re-ships.
        """
        materialized = list(ops)
        if kind in ("commit", "prepare") and not materialized:
            raise WALError("a commit record needs at least one op")
        with self._mutex:
            if lsn <= self._lsn:
                raise WALError(
                    f"append_record at LSN {lsn} does not advance the log "
                    f"(already at {self._lsn})")
            return self._write_frame(generation, lsn, materialized,
                                     defer_sync=False, epoch=epoch,
                                     kind=kind, txn_id=txn_id)

    def _write_frame(self, generation: int, lsn: int,
                     materialized: list, defer_sync: bool, *,
                     epoch: int = 0, kind: str = "commit",
                     txn_id: str = "") -> int:
        """Write one framed record; caller holds ``_mutex``."""
        body = [_PAYLOAD_HEAD.pack(generation, lsn, len(materialized), epoch)]
        for op in materialized:
            body.append(_U32.pack(len(op)))
            body.append(op)
        if kind != "commit":
            body.append(bytes([_KIND_CODES[kind]]))
            body.append(_enc_str(txn_id))
        payload = b"".join(body)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        fh = self._file()
        start = fh.tell()
        try:
            faults_mod.fault_write(fh, frame, "wal")
            fh.flush()
            if not defer_sync:
                if self.sync == "always":
                    faults_mod.fault_fsync(fh.fileno(), "wal")
                    self._synced_lsn = lsn
                    self._synced_end = fh.tell()
                elif (self.sync == "batch"
                      and lsn - self._synced_lsn >= self.batch_size):
                    faults_mod.fault_fsync(fh.fileno(), "wal")
                    self._synced_lsn = lsn
                    self._synced_end = fh.tell()
        except Exception as exc:
            self._retract(start, exc)
            raise
        self._lsn = lsn
        return lsn

    def sync_to(self, lsn: int) -> None:
        """Make the record at *lsn* durable per the sync policy.

        The second half of a ``defer_sync`` append. Under ``"always"``
        this blocks until an fsync covers *lsn* — concurrent callers
        elect a **leader** (the first through ``_sync_lock``) whose one
        fsync covers every frame flushed so far; followers arriving
        behind it see their LSN already synced and return without
        touching the disk. Under ``"batch"`` it performs the
        batch-boundary fsync when one is due (off any caller's commit
        lock); under ``"never"`` it is a no-op.

        An fsync failure here is *not* retractable the way an append
        failure is: frames behind *lsn* may belong to other committers
        already stacked on top of this one. The unsynced suffix is cut
        back out of the file, the log goes offline (every later append
        refuses), and the error propagates — reopening the database
        recovers the durable prefix.
        """
        if self.sync == "never":
            return
        with self._mutex:
            if self._fh is None:
                return  # closed: close() already flushed and synced
            if self.sync == "always" and self._synced_lsn >= lsn:
                return
            if (self.sync == "batch"
                    and self._lsn - self._synced_lsn < self.batch_size):
                return
        with self._sync_lock:
            with self._mutex:
                if self._fh is None:
                    return
                if self.sync == "always" and self._synced_lsn >= lsn:
                    return  # a leader's fsync already covered us
                if (self.sync == "batch"
                        and self._lsn - self._synced_lsn < self.batch_size):
                    return
                fh = self._file()
                fh.flush()
                target_lsn = self._lsn
                target_end = fh.tell()
                fileno = fh.fileno()
            try:
                # Outside _mutex: appenders keep writing while the
                # leader waits on the disk (their frames ride the next
                # sync). fsync releases the GIL, so concurrent
                # committers overlap their CPU work with this wait.
                faults_mod.fault_fsync(fileno, "wal")
            except Exception as exc:
                self._retract_unsynced(exc)
                raise
            with self._mutex:
                if target_lsn > self._synced_lsn:
                    self._synced_lsn = target_lsn
                    self._synced_end = target_end

    def _retract_unsynced(self, cause: BaseException) -> None:
        """Cut the unsynced suffix after a deferred-sync fsync failure.

        Every frame past the last synced boundary is of uncertain
        durability (the kernel may have dropped the dirty pages), and
        the in-memory state that produced those frames has already been
        published — so the log cannot keep appending without risking a
        replayable history with holes. Truncate back to the durable
        prefix and take the log offline; reopening the database
        recovers exactly that prefix.
        """
        self._broken = True
        with self._mutex:
            try:
                if self._fh is not None:
                    self._fh.close()
            except Exception:
                pass
            self._fh = None
            try:
                with open(self.path, "r+b") as fh:
                    fh.truncate(self._synced_end)
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError:
                pass  # file keeps the (truncated) suffix; still offline

    def _retract(self, start: int, cause: BaseException) -> None:
        """Remove a partially appended frame after a write failure."""
        try:
            if self._fh is not None:
                self._fh.close()
        except Exception:
            pass
        self._fh = None
        try:
            with open(self.path, "r+b") as fh:
                fh.truncate(start)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self._broken = True
            raise WALError(
                f"log append failed ({cause}) and the partial frame could "
                f"not be removed ({exc}); the log is offline — reopen the "
                f"database to recover"
            ) from exc

    def flush(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._mutex:
            if self._fh is not None:
                self._fh.flush()
                faults_mod.fault_fsync(self._fh.fileno(), "wal")
                self._synced_lsn = self._lsn
                self._synced_end = self._fh.tell()

    def reset(self, generation: int) -> None:
        """Truncate the log after a checkpoint at *generation*.

        Called only after the checkpoint manifest referencing
        *generation* is durably in place: every record in the log is
        then part of the snapshot and safe to discard. Records
        appended afterwards carry the new generation.
        """
        with self._mutex:
            fh = self._file()
            fh.truncate(0)
            fh.seek(0)
            fh.flush()
            os.fsync(fh.fileno())
            self._synced_lsn = self._lsn
            self._synced_end = 0
            self.generation = generation

    @property
    def last_lsn(self) -> int:
        """The LSN of the last record written (0 for a virgin log)."""
        return self._lsn

    def ensure_lsn(self, lsn: int) -> None:
        """Raise the LSN floor to at least *lsn*.

        :meth:`reset` keeps the counter within one process, but a
        *reopened* log starts from whatever its surviving records say —
        after a checkpoint emptied the file, that would restart LSNs at
        0 and break every consumer that assumes ``(generation, lsn)``
        positions are monotone across restarts (replica catch-up
        chiefly). The durability manager persists the counter in the
        manifest and restores it through here after recovery. Records
        up to the floor are durable elsewhere (the checkpoint), so the
        synced watermark advances with it.
        """
        with self._mutex:
            if lsn > self._lsn:
                self._lsn = lsn
            if lsn > self._synced_lsn:
                self._synced_lsn = lsn

    @property
    def size_bytes(self) -> int:
        """The log's current length on disk."""
        if self._fh is not None:
            self._fh.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        """Flush and release the log file."""
        with self._mutex:
            if self._fh is not None:
                self.flush()
                self._fh.close()
                self._fh = None

    def _file(self):
        if self._broken:
            raise WALError(
                "the log is offline after a failed write; reopen the database"
            )
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def _ensure_closed(self, action: str) -> None:
        if self._fh is not None:
            raise WALError(f"cannot {action} while the log is open for appending")

    def __repr__(self) -> str:
        return (f"WriteAheadLog({self.path!r}, sync={self.sync!r}, "
                f"generation={self.generation}, lsn={self._lsn})")


class WALReader:
    """An LSN-addressable tail over a **live** write-ahead log.

    Where :meth:`WriteAheadLog.recover` reads a log once at open time,
    a reader follows one while its owner keeps appending — the
    primary-side log shipper of :mod:`repro.replication` is the
    consumer. The contract:

    * :meth:`poll` returns every *complete, checksum-valid* record past
      the reader's position, in order, each exactly once;
    * records at or behind ``after_lsn`` (the last LSN already
      delivered) are skipped silently — a checkpoint truncation resets
      the file offset, not the logical position;
    * a partial frame at the file's tail is an append in progress, not
      an error: poll again once the writer finished;
    * a record *beyond* ``after_lsn + 1`` raises :class:`WALGapError` —
      the records in between were checkpointed away while the reader
      was not looking, and only a snapshot can bridge that;
    * a frame that fails its checksum while bytes continue past it is
      real corruption (an appender never starts a frame before the
      previous one is fully in the file) and raises
      :class:`~repro.core.errors.WALError` — after one rescan from the
      top, which absolves the common imposter: a checkpoint that
      truncated and refilled the file past the reader's old offset
      between polls.

    The reader holds no file handle between polls and never writes, so
    any number may tail one log (one per subscribed replica).
    """

    #: Per-poll read budget; a longer backlog arrives over several polls.
    MAX_POLL_BYTES = 8 * 1024 * 1024

    def __init__(self, path: str, after_lsn: int = 0):
        self.path = path
        self.after_lsn = after_lsn
        self.offset = 0  # byte offset of the first unparsed frame
        self._head: Optional[bytes] = None  # first-frame header: identity

    def first_lsn(self) -> Optional[int]:
        """The LSN of the log's first complete, valid record, or None.

        The subscribe handshake uses this to decide whether the log
        still reaches back far enough to stream a replica forward, or
        whether its early records have been checkpointed away. The
        frame's payload is checksummed before its LSN is trusted: a
        torn or corrupt first frame must not mis-drive the
        stream-vs-snapshot decision with a garbage LSN.
        """
        try:
            with open(self.path, "rb") as fh:
                head = fh.read(_FRAME.size)
                if len(head) < _FRAME.size:
                    return None
                length, crc = _FRAME.unpack(head)
                if length < _PAYLOAD_HEAD.size or length > self._MAX_RECORD:
                    return None
                payload = fh.read(length)
        except OSError:
            return None
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None  # torn or corrupt: no trustworthy first record
        _, lsn, _, _ = _PAYLOAD_HEAD.unpack_from(payload, 0)
        return lsn

    def poll(self) -> list[CommitRecord]:
        """Every new complete record since the last poll (maybe none)."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []  # not created yet (or mid-replace): nothing new
        if size < self.offset:
            self.offset = 0  # checkpoint truncated the file under us
        elif size == self.offset:
            # An unchanged size is not proof of an unchanged file: a
            # checkpoint can truncate the log and later appends refill
            # it to exactly this reader's old offset, hiding the new
            # records until a further append. The first frame's header
            # bytes are the file's identity — if they moved, rescan.
            if not self.offset or self._head == self._read_head():
                return []
            self.offset = 0
        records, ok = self._scan(self.offset)
        if not ok:
            # A frame mid-file failed its checksum. The benign cause: a
            # checkpoint truncated and refilled the file past our old
            # offset between polls, leaving us mid-frame. One rescan
            # from the top settles it — the LSN skip/gap logic sorts
            # old from new; a clean file that *still* fails is corrupt.
            records, ok = self._scan(0)
            if not ok:
                raise WALError(
                    f"corrupt frame mid-log in {self.path!r} (checksum "
                    f"failure with records beyond it)")
        return records

    #: Frame lengths past this are garbage, not data (a refilled file
    #: read from a stale offset yields a random u32 as the "length").
    _MAX_RECORD = 256 * 1024 * 1024

    def _read_head(self) -> Optional[bytes]:
        """The first frame's raw header bytes — the file's identity.

        A truncate-and-refill rewrites the first frame with a different
        record, so a changed header (its crc32 covers the new payload)
        betrays a truncation even when the file size happens to match
        the reader's old offset exactly.
        """
        try:
            with open(self.path, "rb") as fh:
                head = fh.read(_FRAME.size)
        except OSError:
            return None
        return head if len(head) == _FRAME.size else None

    def _scan(self, start: int) -> tuple[list[CommitRecord], bool]:
        """Parse complete frames from *start*; False on mid-log corruption.

        Advances ``offset``/``after_lsn`` only when the scan succeeds,
        so a failed scan is side-effect free for the retry.
        """
        records: list[CommitRecord] = []
        delivered = self.after_lsn
        parsed = start  # absolute offset past the frames accepted so far
        consumed = 0
        head0 = self._head if start else None
        with open(self.path, "rb") as fh:
            fh.seek(start)
            while consumed < self.MAX_POLL_BYTES:
                head = fh.read(_FRAME.size)
                if len(head) < _FRAME.size:
                    break  # at (or torn just short of) the current end
                if not start and not consumed:
                    head0 = head  # scanning from the top: note identity
                length, crc = _FRAME.unpack(head)
                if length > self._MAX_RECORD:
                    return [], False  # garbage header: not a frame at all
                payload = fh.read(length)
                if len(payload) < length:
                    break  # an append in progress: poll again later
                if zlib.crc32(payload) != crc:
                    if fh.read(1):
                        return [], False  # bytes continue past a bad frame
                    break  # the frame's own tail is still landing
                try:
                    record = WriteAheadLog._decode_payload(payload)
                except (WALError, struct.error):
                    return [], False  # checksum-valid yet undecodable
                parsed += _FRAME.size + length
                consumed += _FRAME.size + length
                if record.lsn <= delivered:
                    continue  # rescan overlap after a truncation
                if record.lsn != delivered + 1:
                    raise WALGapError(
                        f"log continues at LSN {record.lsn} but the reader "
                        f"has only seen {delivered}: records in between were "
                        f"checkpointed away; resynchronize from a snapshot")
                delivered = record.lsn
                records.append(record)
        self.offset = parsed
        self.after_lsn = delivered
        self._head = head0
        return records, True

    def __repr__(self) -> str:
        return (f"WALReader({self.path!r}, after_lsn={self.after_lsn}, "
                f"offset={self.offset})")
