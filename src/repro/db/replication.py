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
* :class:`WalShipper` — reads everything committed past a cursor and
  returns the records plus the advanced cursor. It seeks to the cursor
  and parses only the bytes past it, so what a pass parses follows what
  was written since the previous pass, not the length of the live
  segment. When the cursor's segment has been pruned by checkpoint
  compaction, the batch instead carries the newest checkpoint
  ``snapshot`` and the replica rebuilds from it with
  :func:`~repro.db.persistence.load_database` (the normal bootstrap
  path for a replica joining late).
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
    position inside it. The initial cursor ``(1, 0)`` points at the
    beginning of history.
    """

    seq: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise DatabaseError("replication cursor seq must be >= 1")
        if self.offset < 0:
            raise DatabaseError("replication cursor offset must be >= 0")


@dataclass
class ShippedBatch:
    """One pull's worth of replication: records and the advanced cursor.

    When ``snapshot`` is set the replica's history no longer reaches the
    cursor (segments were pruned); it must rebuild its database from the
    snapshot via :func:`~repro.db.persistence.load_database` *before*
    applying ``records``, which then continue from the snapshot's segment.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    cursor: ReplicationCursor = field(default_factory=ReplicationCursor)
    snapshot: dict[str, Any] | None = None


class WalShipper:
    """Incrementally reads committed WAL records from one primary directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def pending(self, cursor: ReplicationCursor) -> int:
        """How many committed records are waiting past ``cursor`` (lag)."""
        return len(self.ship(cursor).records)

    def bootstrap(self) -> tuple[dict[str, Any] | None, ReplicationCursor]:
        """The newest checkpoint and the cursor to resume shipping from.

        The fast path for a replica joining an established primary —
        e.g. the replacement replica re-seeded after a failover: load
        the checkpoint via :func:`~repro.db.persistence.load_database`
        and ship only the records past it, instead of replaying history
        from segment 1 (which may be pruned anyway). Returns ``(None,
        cursor-at-start-of-history)`` when the directory has no
        checkpoint yet, and raises :class:`RecoveryError` when the
        newest one cannot be read.
        """
        checkpoints, _wals = scan_directory(self.directory)
        if not checkpoints:
            return None, ReplicationCursor()
        seq = max(checkpoints)
        return read_checkpoint(checkpoints[seq]), ReplicationCursor(seq=seq)

    def ship(self, cursor: ReplicationCursor) -> ShippedBatch:
        """Everything committed past ``cursor``, plus where to resume.

        Uncommitted transaction tails in the live (final) segment are
        held back — they are not acked, so a replica must never see
        them. The returned cursor re-reads from the transaction's start
        next time in case its commit marker lands later. A gap, corrupt
        history or a segment that cannot be read (it may have been
        pruned since the scan) raises :class:`RecoveryError`.
        """
        checkpoints, wals = scan_directory(self.directory)
        if not wals:
            return ShippedBatch(cursor=cursor)
        snapshot = None
        if cursor.seq not in wals and cursor.seq <= max(wals):
            # The cursor's segment was pruned by checkpoint compaction:
            # bootstrap from the newest checkpoint at or past it.
            usable = [seq for seq in checkpoints if seq >= cursor.seq]
            if not usable:
                raise RecoveryError(
                    f"{self.directory}: WAL segment {cursor.seq} is gone and no "
                    "checkpoint covers it; replica cannot catch up"
                )
            cursor = ReplicationCursor(seq=max(usable))
            snapshot = read_checkpoint(checkpoints[cursor.seq])
        history = read_committed(
            self.directory, wals, cursor.seq, cursor.offset, read=read_wal_file
        )
        return ShippedBatch(
            records=history.records,
            cursor=ReplicationCursor(seq=history.seq, offset=history.offset),
            snapshot=snapshot,
        )
