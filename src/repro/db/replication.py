"""WAL shipping: turn a primary's durability directory into a replication log.

The write-ahead log (:mod:`repro.db.wal`) already *is* a replication
log: an ordered stream of committed mutations with transaction markers,
checkpoints at segment boundaries, and a torn-tail discipline that makes
"acked" and "on disk" the same thing. This module keeps only a
replica's bookkeeping on top of it; every read of the directory goes
through the reader crash recovery uses (:func:`~repro.db.wal.read_committed`
and :func:`~repro.db.wal.read_checkpoint`), so a replica can never keep a
record recovery would discard, or miss one it would replay:

* :class:`ReplicationCursor` — an immutable ``(segment seq, byte
  offset)`` bookmark into the primary's directory. Offsets always land
  on transaction boundaries because uncommitted tails are held back.
  The default cursor ``(0, 0)`` sits before every segment: it is how
  every replica joins.
* :class:`WalShipper` — reads everything committed past a cursor and
  returns the records plus the advanced cursor. It seeks to the cursor
  and parses only the bytes past it, so what a pass parses follows what
  was written since the previous pass, not the length of the live
  segment. When the cursor's segment is not on disk (a join, or a
  segment pruned by checkpoint compaction), the batch instead carries
  the newest checkpoint ``snapshot`` at or past the cursor and the
  records after it; the replica rebuilds from it with
  :func:`~repro.db.persistence.load_database`. A join that finds no
  checkpoint replays history from segment 1. ``pending(cursor)`` is the
  lag of that same batch: its records, plus one when a checkpoint
  install is due, so a replica that needs a snapshot never reads as
  caught up. It takes the same start as the ship but does not read the
  checkpoint.
* :func:`apply_records` — the replica-side apply loop, which is crash
  recovery's own replay.

Shipping is pull-based and file-level: the shipper never touches the
primary's in-memory state, so it keeps working after the primary process
is "killed" (handles closed) — which is exactly what failover promotion
needs for its final catch-up read from the surviving directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.errors import DatabaseError, RecoveryError
from repro.db.wal import (
    apply_records,
    read_checkpoint,
    read_committed,
    read_wal_file,
    scan_directory,
)

__all__ = ["ReplicationCursor", "ShippedBatch", "WalShipper", "apply_records"]


@dataclass(frozen=True)
class ReplicationCursor:
    """A bookmark into a primary's WAL: next byte to ship from.

    ``seq`` is the WAL segment sequence number, ``offset`` the byte
    position inside it. The default cursor ``(0, 0)`` is a join: it sits
    before every segment, so its first ship starts from the newest
    checkpoint, or from segment 1 when there is none.
    """

    seq: int = 0
    offset: int = 0

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise DatabaseError("replication cursor seq must be >= 0")
        if self.offset < 0:
            raise DatabaseError("replication cursor offset must be >= 0")


@dataclass
class ShippedBatch:
    """One pull's worth of replication: records and the advanced cursor.

    When ``snapshot`` is set the cursor's segment is not on disk (a join,
    or history pruned past it); the replica must rebuild its database
    from the snapshot via :func:`~repro.db.persistence.load_database`
    *before* applying ``records``, which then continue from the
    snapshot's segment.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    cursor: ReplicationCursor = field(default_factory=ReplicationCursor)
    snapshot: dict[str, Any] | None = None

    @property
    def lag(self) -> int:
        """What applying this batch catches up on: its records, plus one
        when a checkpoint install is due."""
        return len(self.records) + (self.snapshot is not None)


class WalShipper:
    """Incrementally reads committed WAL records from one primary directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def pending(self, cursor: ReplicationCursor) -> int:
        """How far a replica at ``cursor`` lags: the :attr:`ShippedBatch.lag`
        of a ship from it, counted without reading the checkpoint that a
        due install would load."""
        start = self._start(cursor)
        if start is None:
            return 0
        cursor, checkpoint, wals = start
        history = read_committed(
            self.directory, wals, cursor.seq, cursor.offset, read=read_wal_file
        )
        return len(history.records) + (checkpoint is not None)

    def ship(self, cursor: ReplicationCursor) -> ShippedBatch:
        """Everything committed past ``cursor``, plus where to resume.

        Uncommitted transaction tails in the live (final) segment are
        held back — they are not acked, so a replica must never see
        them. The returned cursor re-reads from the transaction's start
        next time in case its commit marker lands later. A cursor whose
        segment is not on disk (a join, or a pruned segment) gets the
        newest checkpoint at or past it as ``snapshot``; a join that
        finds none starts at segment 1. A gap, corrupt history, a
        segment that cannot be read (it may have been pruned since the
        scan) or pruned history no checkpoint covers raises
        :class:`RecoveryError`.
        """
        start = self._start(cursor)
        if start is None:
            return ShippedBatch(cursor=cursor)
        cursor, checkpoint, wals = start
        snapshot = None if checkpoint is None else read_checkpoint(checkpoint)
        history = read_committed(
            self.directory, wals, cursor.seq, cursor.offset, read=read_wal_file
        )
        return ShippedBatch(
            records=history.records,
            cursor=ReplicationCursor(seq=history.seq, offset=history.offset),
            snapshot=snapshot,
        )

    def _start(
        self, cursor: ReplicationCursor
    ) -> tuple[ReplicationCursor, Path | None, dict[int, Path]] | None:
        """Where a ship from ``cursor`` starts reading the log, the
        checkpoint file it installs first (``None`` when no install is
        due) and the segments on disk; ``None`` when there are none."""
        checkpoints, wals = scan_directory(self.directory)
        if not wals:
            return None
        if cursor.seq == 0 and not checkpoints:
            cursor = ReplicationCursor(seq=1)
        if cursor.seq in wals or cursor.seq > max(wals):
            return cursor, None, wals
        usable = [seq for seq in checkpoints if seq >= cursor.seq]
        if not usable:
            raise RecoveryError(
                f"{self.directory}: WAL segment {cursor.seq} is gone and no "
                "checkpoint covers it; replica cannot catch up"
            )
        seq = max(usable)
        return ReplicationCursor(seq=seq), checkpoints[seq], wals
