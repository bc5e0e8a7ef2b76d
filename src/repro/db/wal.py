"""Write-ahead logging, checkpoints and crash recovery.

The real SOR deployment gets durability from PostgreSQL; this module
gives the in-memory :class:`~repro.db.database.Database` the same
guarantee: once a mutation is acknowledged it survives a process kill at
any instant.

Layout of a durability directory::

    wal-00000001.log          append-only mutation log, segment 1
    checkpoint-00000005.json  full dump taken at the *start* of segment 5
    wal-00000005.log          mutations after that checkpoint
    ...

Each WAL record is a JSON object framed as ``<u32 length><u32 crc32>``
followed by the payload. Sequence numbers tie checkpoints and segments
together: checkpoint ``G`` is the database state at the start of
``wal-G``, so recovery loads the newest *valid* checkpoint and replays
every segment with an equal or higher sequence number, in order. A
corrupted checkpoint degrades to the previous one (segments are retained
back to the oldest kept checkpoint); a torn final record — the signature
of a crash mid-append — is truncated away, as is the tail of a
transaction whose commit marker never made it to disk.

Checkpoints are written with a temp-file + fsync + ``os.replace``
dance (:meth:`DurabilityManager._write_snapshot`), so a crash during
compaction can never destroy the previous checkpoint.

This is the only module that reads a durability directory back. Crash
recovery, WAL shipping (:mod:`repro.db.replication`) and re-attach use
one piece per job — :func:`scan_directory` lists it,
:func:`read_checkpoint` parses a checkpoint, :func:`read_committed` walks
the segments and returns their committed prefix, one tail truncation
cuts the final segment back to that prefix, and :func:`apply_records`
replays records — so they can never disagree about what was committed,
and all of them report a segment that cannot be read as
:class:`~repro.common.errors.RecoveryError`.

The :class:`DurabilityManager` also carries one-shot crash hooks
(:meth:`~DurabilityManager.arm`) used by :mod:`repro.sim.faults` to kill
the process at the nastiest possible instants — mid-batch, pre-fsync,
between the checkpoint temp write and its rename — and
:meth:`~DurabilityManager.simulate_wreck`, the one place that leaves a
killed process's wreckage on disk.

:func:`attach_durability` is the inverse of recovery: it takes a
database that is already populated *in memory* (a promoted read-replica
rebuilt from shipped WAL records) and makes it durable in place — the
current state becomes a fresh checkpoint, the next WAL generation opens,
and commits resume. The directory may already hold the dead
predecessor's generations; the inherited final segment is sanitized
(torn frames and uncommitted transaction tails physically truncated,
exactly as recovery would) so a later recovery or replication pass can
replay straight across the generation boundary.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable

from repro.common.errors import DatabaseError, RecoveryError, SimulatedCrashError
from repro.db.database import Database
from repro.db.persistence import (
    decode_cell,
    decode_row,
    dump_database,
    load_database,
    schema_from_dict,
)
from repro.db.predicates import eq
from repro.obs import MetricsRegistry

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

_CHECKPOINT_PATTERN = "checkpoint-{seq:08d}.json"
_WAL_PATTERN = "wal-{seq:08d}.log"

# Histogram buckets for recovery time: sub-millisecond empty boots up to
# multi-second replays of long campaigns.
_RECOVERY_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


@dataclass(frozen=True)
class DurabilityConfig:
    """How a durable database writes to disk.

    ``checkpoint_every_records=0`` disables automatic compaction —
    checkpoints then only happen via an explicit
    :meth:`DurabilityManager.checkpoint` call.
    """

    directory: str | Path
    fsync: bool = True
    checkpoint_every_records: int = 0
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.checkpoint_every_records < 0:
            raise DatabaseError("checkpoint_every_records must be >= 0")
        if self.keep_checkpoints < 1:
            raise DatabaseError("keep_checkpoints must be >= 1")


@dataclass
class RecoveryReport:
    """What :func:`open_durable_database` found and did on boot."""

    checkpoint_seq: int = 0
    corrupt_checkpoints_skipped: int = 0
    wal_files_replayed: int = 0
    records_replayed: int = 0
    torn_tail_bytes_discarded: int = 0
    incomplete_transactions_discarded: int = 0
    duration_s: float = 0.0

    @property
    def clean_boot(self) -> bool:
        """True when nothing on disk was corrupt, torn or discarded."""
        return (
            self.corrupt_checkpoints_skipped == 0
            and self.torn_tail_bytes_discarded == 0
            and self.incomplete_transactions_discarded == 0
        )


def _encode_frame(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WalWriter:
    """Appends framed records to one WAL segment file.

    The handle is opened unbuffered, so every :meth:`append` reaches the
    OS immediately — a simulated kill (closing the handle) can never lose
    a write that this class reported as done. ``fsync`` additionally
    flushes the OS cache for real-power-loss durability.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._handle: BinaryIO = open(self.path, "ab", buffering=0)

    def append(self, record: dict[str, Any]) -> int:
        """Write one framed record; returns the bytes appended."""
        frame = _encode_frame(record)
        self._handle.write(frame)
        return len(frame)

    def append_torn(self, record: dict[str, Any], keep: float = 0.5) -> int:
        """Write a deliberately truncated frame (crash simulation only)."""
        frame = _encode_frame(record)
        cut = min(len(frame) - 1, max(1, int(len(frame) * keep)))
        self._handle.write(frame[:cut])
        return cut

    def sync(self) -> None:
        """Flush the OS cache for this segment (no-op with fsync off)."""
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the segment handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


def read_wal_file(
    path: str | Path, base: int = 0
) -> tuple[list[tuple[dict[str, Any], int, int]], int, bool]:
    """Parse a WAL segment from byte ``base`` on.

    ``base`` must sit on a frame boundary; the bytes before it are never
    read. Returns ``(entries, clean_bytes, torn)`` where each entry is
    ``(record, start_offset, end_offset)`` with offsets counted from the
    start of the file, ``clean_bytes`` is the length of the valid run of
    frames parsed from ``base`` (so ``base + clean_bytes`` is where it
    ends), and ``torn`` reports whether trailing garbage (short frame,
    CRC mismatch, bad JSON) was found after it.
    """
    with open(path, "rb") as handle:
        handle.seek(base)
        data = handle.read()
    entries: list[tuple[dict[str, Any], int, int]] = []
    offset = 0
    while offset + _FRAME_HEADER.size <= len(data):
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        entries.append((record, base + offset, base + end))
        offset = end
    return entries, offset, offset < len(data)


def _resolve_transactions(
    entries: list[tuple[dict[str, Any], int, int]],
    clean_bytes: int,
    *,
    final_segment: bool,
    path: Path,
) -> tuple[list[dict[str, Any]], int, int]:
    """Flatten begin/commit markers into an applicable record stream.

    Returns ``(records, keep_bytes, incomplete_discarded)``. Records of a
    transaction whose commit marker is missing at the tail of the *final*
    segment are dropped and ``keep_bytes`` moves back to where the
    transaction began; the same situation anywhere else is corruption.
    """
    applied: list[dict[str, Any]] = []
    open_txn: list[dict[str, Any]] | None = None
    txn_start = clean_bytes
    for record, start, _end in entries:
        op = record.get("op")
        if op == "begin":
            if open_txn is not None:
                raise RecoveryError(f"{path.name}: nested begin marker at byte {start}")
            open_txn = []
            txn_start = start
        elif op == "commit":
            if open_txn is None:
                raise RecoveryError(
                    f"{path.name}: commit marker without begin at byte {start}"
                )
            applied.extend(open_txn)
            open_txn = None
        elif open_txn is not None:
            open_txn.append(record)
        else:
            applied.append(record)
    if open_txn is None:
        return applied, clean_bytes, 0
    if not final_segment:
        raise RecoveryError(
            f"{path.name}: transaction without commit marker in a non-final segment"
        )
    return applied, txn_start, 1


def apply_records(
    database: Database, records: list[dict[str, Any]], *, source: str = "wal-ship"
) -> int:
    """Replay committed WAL records into ``database``; returns the count.

    Crash recovery and read-replicas both replay through here, so they
    can never interpret a record differently. A record that does not
    fit the database raises :class:`RecoveryError` naming ``source``.
    """
    for record in records:
        try:
            op = record["op"]
            if op == "create_table":
                database.create_table(schema_from_dict(record["schema"]))
            elif op == "drop_table":
                database.drop_table(record["table"])
            elif op == "create_index":
                database.table(record["table"]).create_index(record["column"])
            elif op == "insert":
                table = database.table(record["table"])
                table.insert(decode_row(table.schema, record["row"]))
            elif op == "update":
                table = database.table(record["table"])
                row = decode_row(table.schema, record["row"])
                pk_name = table.schema.primary_key
                pk = row.pop(pk_name)
                table.update(eq(pk_name, pk), row)
            elif op == "delete":
                table = database.table(record["table"])
                pk_name = table.schema.primary_key
                pk = decode_cell(table.schema.column(pk_name), record["pk"])
                table.delete(eq(pk_name, pk))
            else:
                raise RecoveryError(f"{source}: unknown WAL op {op!r}")
        except RecoveryError:
            raise
        except (DatabaseError, KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(
                f"{source}: cannot replay {record.get('op')!r} record: {exc!r}"
            ) from exc
    return len(records)


def scan_directory(directory: Path) -> tuple[dict[int, Path], dict[int, Path]]:
    """Checkpoints and WAL segments in ``directory``, by sequence number.

    A directory that does not exist holds neither.
    """
    checkpoints: dict[int, Path] = {}
    wals: dict[int, Path] = {}
    if not directory.is_dir():
        return checkpoints, wals
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith("checkpoint-") and name.endswith(".json"):
            try:
                checkpoints[int(name[len("checkpoint-") : -len(".json")])] = entry
            except ValueError:
                continue
        elif name.startswith("wal-") and name.endswith(".log"):
            try:
                wals[int(name[len("wal-") : -len(".log")])] = entry
            except ValueError:
                continue
    return checkpoints, wals


def read_checkpoint(path: Path) -> dict[str, Any]:
    """The database dump a checkpoint file holds.

    A file that cannot be read or is not JSON raises
    :class:`RecoveryError`; whether the dump inside is well formed is
    :func:`~repro.db.persistence.load_database`'s call.
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"{path.name}: unreadable: {exc!r}") from exc


@dataclass
class CommittedHistory:
    """The committed prefix of a run of WAL segments (:func:`read_committed`).

    ``seq`` and ``offset`` mark where the prefix ends: the last segment
    read and the byte length of its committed part. Past that point lies
    only what was never acked — a torn frame, or a transaction whose
    commit marker never landed (``incomplete`` counts those).
    """

    seq: int
    offset: int
    records: list[dict[str, Any]] = field(default_factory=list)
    segments: int = 0
    incomplete: int = 0


def read_committed(
    directory: Path,
    wals: dict[int, Path],
    seq: int,
    offset: int = 0,
    *,
    read: Callable[[Path, int], Any] = read_wal_file,
) -> CommittedHistory:
    """Walk segments ``seq`` up to the newest, from byte ``offset`` of the first.

    The first segment is read from ``offset`` on, which must be a
    transaction boundary (a cursor this walk returned); the bytes before
    it are never parsed. Later segments are read from their start.

    A segment missing from the run, ``seq`` itself included, is a gap; a
    segment that cannot be read, a torn frame in any but the newest
    segment, and a transaction left open before the newest segment's
    tail are corruption. Each raises :class:`RecoveryError`.

    ``read`` parses one segment from a byte offset; the WAL shipper
    passes its own module's :func:`read_wal_file`, so segment reads made
    on a replica's behalf can be counted or stubbed apart from
    recovery's.
    """
    history = CommittedHistory(seq=seq, offset=offset)
    newest = max(wals)
    for current in range(seq, max(seq, newest) + 1):
        path = wals.get(current)
        if path is None:
            raise RecoveryError(
                f"{directory}: missing WAL segment {current} (have up to {newest})"
            )
        final = current == newest
        try:
            entries, clean_bytes, torn = read(path, offset)
        except OSError as exc:
            # Not a file, or pruned between the scan and this read by a
            # concurrent checkpoint: a typed error callers can retry on.
            raise RecoveryError(f"{path.name}: unreadable: {exc!r}") from exc
        if torn and not final:
            raise RecoveryError(f"{path.name}: torn record in a non-final segment")
        records, keep_bytes, incomplete = _resolve_transactions(
            entries, offset + clean_bytes, final_segment=final, path=path
        )
        history.records.extend(records)
        history.seq, history.offset = current, keep_bytes
        history.segments += 1
        history.incomplete += incomplete
        offset = 0
    return history


def _truncate_tail(path: Path, keep_bytes: int) -> int:
    """Cut a segment back to its committed prefix; returns bytes removed."""
    size = path.stat().st_size
    if keep_bytes >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return size - keep_bytes


def fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurabilityManager:
    """Owns the WAL writer, compaction and crash-injection hooks.

    Constructed by :func:`open_durable_database`; the database routes
    every committed mutation batch into :meth:`commit`.
    """

    def __init__(
        self,
        database: Database,
        config: DurabilityConfig,
        *,
        seq: int,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.directory = Path(config.directory)
        self._database = database
        self._seq = seq
        self._writer = WalWriter(self._wal_path(seq), fsync=config.fsync)
        # The segment file itself must survive power loss, not just its
        # contents: a newly created directory entry lives in the parent
        # directory's data until that is flushed too.
        self._sync_directory()
        self._txn_counter = 0
        self._records_since_checkpoint = 0
        self._closed = False
        self._hooks: dict[str, Callable[[], None] | None] = {}
        registry = metrics if metrics is not None else database.metrics
        self._m_records = registry.counter(
            "sor_db_wal_records_total",
            "records appended to the write-ahead log",
            labels=("op",),
        )
        self._m_record_children: dict[str, Any] = {}
        self._m_bytes = registry.counter(
            "sor_db_wal_bytes", "bytes appended to the write-ahead log"
        )
        self._m_checkpoints = registry.counter(
            "sor_db_checkpoints_total", "checkpoints written"
        )

    # ------------------------------------------------------------------
    # crash-injection hooks
    # ------------------------------------------------------------------
    def arm(self, point: str, callback: Callable[[], None] | None = None) -> None:
        """Arm a one-shot crash at ``point``.

        When execution reaches the point, ``callback`` (if any) runs —
        typically unregistering the server from the network — and then
        :class:`SimulatedCrashError` is raised. Points:
        ``commit.pre_append``, ``commit.mid_append``, ``commit.pre_sync``,
        ``checkpoint.pre_replace``, ``checkpoint.post_replace``.
        """
        self._hooks[point] = callback

    def disarm(self, point: str) -> None:
        """Remove a previously armed crash point (no-op if absent)."""
        self._hooks.pop(point, None)

    def _fire(self, point: str) -> None:
        if point not in self._hooks:
            return
        callback = self._hooks.pop(point)
        if callback is not None:
            callback()
        raise SimulatedCrashError(f"simulated crash at {point}")

    # ------------------------------------------------------------------
    # commit path
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        return self._seq

    @property
    def closed(self) -> bool:
        return self._closed

    def _wal_path(self, seq: int) -> Path:
        return self.directory / _WAL_PATTERN.format(seq=seq)

    def _checkpoint_path(self, seq: int) -> Path:
        return self.directory / _CHECKPOINT_PATTERN.format(seq=seq)

    def _sync_directory(self) -> None:
        """Flush the directory entry table (gated on ``config.fsync``)."""
        if self.config.fsync:
            fsync_directory(self.directory)

    def _count_record(self, record: dict[str, Any], written: int) -> None:
        self._m_bytes.inc(written)
        op = str(record.get("op", "?"))
        child = self._m_record_children.get(op)
        if child is None:
            child = self._m_records.labels(op=op)
            self._m_record_children[op] = child
        child.inc()

    def commit(
        self, records: list[dict[str, Any]], *, transactional: bool = False
    ) -> None:
        """Append a committed mutation batch to the log and fsync it.

        ``transactional=True`` wraps the batch in begin/commit markers so
        recovery can discard it wholesale if the commit marker never hits
        disk. Raises if the manager is closed (the simulated process is
        dead).
        """
        if self._closed:
            raise DatabaseError("durability manager is closed")
        batch = list(records)
        if not batch:
            return
        mutations = len(batch)
        if transactional:
            self._txn_counter += 1
            txn = self._txn_counter
            batch = [
                {"op": "begin", "txn": txn},
                *batch,
                {"op": "commit", "txn": txn},
            ]
        self._fire("commit.pre_append")
        for position, record in enumerate(batch):
            written = self._writer.append(record)
            self._count_record(record, written)
            if position == 0 and len(batch) > 1:
                # After the first frame of a multi-record batch: the worst
                # place to die — a half-written transaction on disk.
                self._fire("commit.mid_append")
        self._fire("commit.pre_sync")
        self._writer.sync()
        self._records_since_checkpoint += mutations
        if (
            self.config.checkpoint_every_records > 0
            and self._records_since_checkpoint >= self.config.checkpoint_every_records
            and self._database._active_transaction is None
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Compact the log into a snapshot; returns the new sequence.

        Opens segment ``G+1`` first, then writes ``checkpoint-(G+1)``
        atomically, then prunes history. A crash at any step leaves a
        recoverable directory: the worst case re-replays segment ``G``.
        """
        if self._closed:
            raise DatabaseError("durability manager is closed")
        if self._database._active_transaction is not None:
            raise DatabaseError("cannot checkpoint during an active transaction")
        self._writer.sync()
        new_seq = self._seq + 1
        new_writer = WalWriter(self._wal_path(new_seq), fsync=self.config.fsync)
        self._sync_directory()  # the new segment's directory entry
        old_writer = self._writer
        self._writer = new_writer
        self._seq = new_seq
        old_writer.close()

        self._write_snapshot(new_seq)

        self._records_since_checkpoint = 0
        self._m_checkpoints.inc()
        self._prune()
        return new_seq

    def _write_snapshot(self, seq: int) -> None:
        """Dump the database into ``checkpoint-(seq)`` atomically.

        Temp file + fsync + ``os.replace`` + directory fsync: a crash at
        any step leaves either no checkpoint or a complete one, never a
        half-written file under the checkpoint name.
        """
        target = self._checkpoint_path(seq)
        payload = json.dumps(dump_database(self._database)).encode("utf-8")
        tmp = target.with_name(f".{target.name}.tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        self._fire("checkpoint.pre_replace")
        os.replace(tmp, target)
        self._sync_directory()
        self._fire("checkpoint.post_replace")

    def _prune(self) -> None:
        checkpoints, wals = scan_directory(self.directory)
        kept = sorted(checkpoints, reverse=True)[: self.config.keep_checkpoints]
        for seq, path in checkpoints.items():
            if seq not in kept:
                path.unlink(missing_ok=True)
        if kept:
            horizon = min(kept)
            for seq, path in wals.items():
                if seq < horizon:
                    path.unlink(missing_ok=True)
        for stray in self.directory.glob(".*.tmp"):
            stray.unlink(missing_ok=True)

    def close(self) -> None:
        """Release the WAL handle. Used both for shutdown and as 'kill'."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()

    def simulate_torn_append(self, record: dict[str, Any], keep: float = 0.5) -> int:
        """Leave a torn frame at the log tail, as if killed inside write(2)."""
        return self._writer.append_torn(record, keep)

    def simulate_partial_transaction(self, records: list[dict[str, Any]]) -> None:
        """Append a begin marker plus records with NO commit marker.

        Crash simulation: the on-disk signature of a process killed
        between a transaction's first append and its commit marker.
        Recovery must discard the whole batch.
        """
        self._txn_counter += 1
        self._writer.append({"op": "begin", "txn": self._txn_counter})
        for record in records:
            self._writer.append(record)

    def simulate_wreck(self, kind: str) -> None:
        """Leave the on-disk wreckage of a process killed at ``kind``.

        * ``torn_tail`` — killed inside ``write(2)``: a transaction with
          no commit marker, then half a frame.
        * ``mid_checkpoint`` — killed inside compaction, via the armed
          ``checkpoint.pre_replace`` hook: a fresh segment is open and
          the checkpoint temp file never got renamed.

        Nothing of the wreckage was acked; recovery, replication and a
        later re-attach must all discard it.
        """
        if kind == "torn_tail":
            doomed = {"op": "insert", "table": "raw_data", "row": {"doomed": True}}
            self.simulate_partial_transaction([doomed])
            self.simulate_torn_append(doomed)
        elif kind == "mid_checkpoint":
            self.arm("checkpoint.pre_replace")
            try:
                self.checkpoint()
            except SimulatedCrashError:
                pass
        else:
            raise DatabaseError(f"unknown wreck kind {kind!r}")


def open_durable_database(
    config: DurabilityConfig,
    *,
    name: str = "sor",
    metrics: MetricsRegistry | None = None,
) -> tuple[Database, RecoveryReport]:
    """Recover (or initialise) a durable database from ``config.directory``.

    Returns the live database — with a :class:`DurabilityManager`
    attached and accepting writes — and a :class:`RecoveryReport`
    describing what recovery found. Loads the newest checkpoint that
    parses, replays the segments from its own on through
    :func:`read_committed` and cuts the final segment back to its
    committed prefix; a gap, corruption or an unreadable segment raises
    :class:`RecoveryError`.
    """
    started = time.perf_counter()
    directory = Path(config.directory)
    directory.mkdir(parents=True, exist_ok=True)
    report = RecoveryReport()
    checkpoints, wals = scan_directory(directory)

    database: Database | None = None
    for seq in sorted(checkpoints, reverse=True):
        try:
            database = load_database(read_checkpoint(checkpoints[seq]), metrics=metrics)
        except DatabaseError:
            report.corrupt_checkpoints_skipped += 1
            continue
        report.checkpoint_seq = seq
        break
    if database is None:
        if checkpoints and (not wals or min(wals) > 1):
            raise RecoveryError(
                f"{directory}: every checkpoint is corrupt and the WAL does not "
                "reach back to the beginning of history"
            )
        database = Database(name=name, metrics=metrics)

    live_seq = max(report.checkpoint_seq, 1)
    if wals:
        history = read_committed(directory, wals, live_seq)
        report.torn_tail_bytes_discarded = _truncate_tail(
            wals[history.seq], history.offset
        )
        report.incomplete_transactions_discarded = history.incomplete
        report.records_replayed = apply_records(
            database, history.records, source=directory.name
        )
        report.wal_files_replayed = history.segments
        live_seq = history.seq

    manager = DurabilityManager(database, config, seq=live_seq, metrics=metrics)
    database.attach_durability(manager)

    report.duration_s = time.perf_counter() - started
    registry = metrics if metrics is not None else database.metrics
    registry.counter(
        "sor_db_recovery_replayed_records",
        "WAL records replayed during recovery",
    ).inc(report.records_replayed)
    registry.histogram(
        "sor_db_recovery_seconds",
        "time spent recovering durable state at boot",
        buckets=_RECOVERY_BUCKETS,
    ).observe(report.duration_s)
    return database, report


def attach_durability(
    database: Database,
    directory: str | Path,
    *,
    fsync: bool = True,
    metrics: MetricsRegistry | None = None,
) -> DurabilityManager:
    """Make an already-populated in-memory database durable in place.

    The inverse of :func:`open_durable_database`: instead of rebuilding
    memory from disk, the current in-memory state becomes the disk
    state. Used by shard failover — the promoted replica's database is
    a faithful replay of the dead primary's log, so snapshotting it
    *is* a checkpoint of that history.

    Steps, in crash-safe order:

    1. sanitize the inherited final segment: walk it with
       :func:`read_committed` and truncate it to its committed prefix,
       exactly as recovery would, so it can safely stop being the final
       segment (an unreadable segment raises :class:`RecoveryError`);
    2. open WAL segment ``G+1`` where ``G`` is the newest sequence
       number on disk (checkpoint or segment);
    3. write ``checkpoint-(G+1)`` atomically (temp + fsync +
       ``os.replace`` + directory fsync).

    A crash between 2 and 3 recovers through the *old* generations —
    the sanitized history replays to exactly the snapshotted state.
    Nothing is pruned here: the pre-kill generations stay on disk until
    the next regular checkpoint, so a corrupt re-attach checkpoint can
    still degrade to full-history replay. Returns the live manager
    (also attached to ``database``, which routes commits into it).
    """
    if database.durability is not None:
        raise DatabaseError("database already has durability attached")
    if database._active_transaction is not None:
        raise DatabaseError("cannot attach durability during an active transaction")
    config = DurabilityConfig(directory=directory, fsync=fsync)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    checkpoints, wals = scan_directory(target)
    if wals:
        tail = read_committed(target, wals, max(wals))
        _truncate_tail(wals[tail.seq], tail.offset)
    seq = max([*checkpoints, *wals], default=0) + 1

    manager = DurabilityManager(database, config, seq=seq, metrics=metrics)
    manager._write_snapshot(seq)
    for stray in target.glob(".*.tmp"):
        stray.unlink(missing_ok=True)
    database.attach_durability(manager)

    registry = metrics if metrics is not None else database.metrics
    registry.counter(
        "sor_db_wal_reattach_total",
        "databases made durable in place by attach_durability",
    ).inc()
    return manager
