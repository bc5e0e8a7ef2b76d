"""A single table: row storage, key constraints and secondary indexes."""

from __future__ import annotations

import copy
from collections import defaultdict
from itertools import islice
from typing import Any, Callable, Iterator

from repro.common.errors import DatabaseError
from repro.db.predicates import Predicate
from repro.db.schema import ColumnType, Schema


class Table:
    """Rows keyed by primary key, with hash indexes on selected columns.

    Rows are plain dictionaries, and one copy rule keeps callers out of
    stored state: every row that goes in (``insert``, ``update``) or comes
    out (``select``, ``get``) is a new dict whose JSON cells are deep
    copies. Every other cell is immutable (BLOB is stored as ``bytes``),
    so nothing a caller does to a row it passed in, or to a row it got
    back, changes what is stored.

    Stored-row invariant: a stored row dict is replaced, never mutated in
    place, and its JSON cells are private copies. A reference to a stored
    row therefore keeps that row's state as of when it was taken. The
    undo journal keeps old rows this way, and ``snapshot`` and the WAL
    records share rows and JSON cells without copying them.

    Row order: rows are kept in insertion order, an update keeps a row's
    place, and ``select`` with no ``where`` returns rows oldest first,
    reading only the first ``limit`` of them. WAL replay and checkpoint
    load insert rows in this order, so recovery rebuilds it. Undoing a
    delete puts the restored row back at the end, as the newest. The
    server's dedupe trim relies on this order to evict the oldest rows;
    only a failed WAL commit can roll its deletes back.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        observer: Callable[[str], None] | None = None,
    ) -> None:
        self.schema = schema
        # Called with the operation name on every insert/select/update/
        # delete/count; the Database wires this to its metrics counter.
        self._observer = observer
        # Called with a mutation event dict after each successful write;
        # the Database wires this to the write-ahead log. None = no log.
        self.mutation_listener: Callable[[dict[str, Any]], None] | None = None
        # While a transaction is open the Database points this at its
        # undo journal; every write appends the entry that reverses it.
        # Rollback cost is therefore O(rows actually mutated), not
        # O(database size) — the property that lets the server run one
        # transaction per request under load.
        self._undo_journal: list[tuple["Table", str, Any]] | None = None
        self._rows: dict[Any, dict[str, Any]] = {}
        self._indexes: dict[str, dict[Any, set[Any]]] = {}
        self._unique_values: dict[str, dict[Any, Any]] = {
            column: {} for column in schema.unique
        }
        self._auto_counter = 0
        self._json_columns = tuple(
            column.name
            for column in schema.columns
            if column.type is ColumnType.JSON
        )

    def _copy_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """A new dict holding ``row``'s cells, with its JSON cells deep-copied."""
        copied = dict(row)
        for column in self._json_columns:
            copied[column] = copy.deepcopy(copied[column])
        return copied

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.select())

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        """Create a hash index on ``column`` (idempotent)."""
        self.schema.column(column)  # validates existence
        if column in self._indexes:
            return
        index: dict[Any, set[Any]] = defaultdict(set)
        for pk, row in self._rows.items():
            index[row[column]].add(pk)
        self._indexes[column] = index
        if self._undo_journal is not None:
            self._undo_journal.append((self, "create_index", column))
        if self.mutation_listener is not None:
            self.mutation_listener(
                {"op": "create_index", "table": self.name, "column": column}
            )

    def _index_add(self, row: dict[str, Any]) -> None:
        """Enter a stored row in every index and unique-value map."""
        pk = row[self.schema.primary_key]
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(pk)
        for column, seen in self._unique_values.items():
            if row[column] is not None:
                seen[row[column]] = pk

    def _index_remove(self, row: dict[str, Any]) -> None:
        """Take a stored row out of every index and unique-value map."""
        pk = row[self.schema.primary_key]
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del index[row[column]]
        for column, seen in self._unique_values.items():
            if row[column] is not None:
                seen.pop(row[column], None)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, row: dict[str, Any]) -> Any:
        """Insert a row; returns the primary key (assigned if auto)."""
        if self._observer is not None:
            self._observer("insert")
        normalized = self.schema.normalize_row(row)
        pk_name = self.schema.primary_key
        pk_column = self.schema.column(pk_name)
        if normalized[pk_name] is None:
            if not pk_column.auto_increment:
                raise DatabaseError(
                    f"primary key {pk_name!r} missing on insert into {self.name!r}"
                )
            self._auto_counter += 1
            normalized[pk_name] = self._auto_counter
        elif pk_column.auto_increment:
            self._auto_counter = max(self._auto_counter, normalized[pk_name])
        pk = normalized[pk_name]
        if pk in self._rows:
            raise DatabaseError(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        for column, seen in self._unique_values.items():
            value = normalized[column]
            if value is not None and value in seen:
                raise DatabaseError(
                    f"unique constraint violated on {self.name}.{column} = {value!r}"
                )
        stored = self._copy_row(normalized)
        self._rows[pk] = stored
        self._index_add(stored)
        if self._undo_journal is not None:
            self._undo_journal.append((self, "insert", pk))
        if self.mutation_listener is not None:
            self.mutation_listener(
                {"op": "insert", "table": self.name, "row": stored}
            )
        return pk

    def update(self, where: Predicate, changes: dict[str, Any]) -> int:
        """Update matching rows in place; returns the number updated."""
        if self._observer is not None:
            self._observer("update")
        if self.schema.primary_key in changes:
            raise DatabaseError("updating the primary key is not supported")
        for column in changes:
            self.schema.column(column)
        updated = 0
        for pk in [r[self.schema.primary_key] for r in self._match(where)]:
            old = self._rows[pk]
            candidate = dict(old)
            candidate.update(changes)
            normalized = self.schema.normalize_row(candidate)
            for column, seen in self._unique_values.items():
                value = normalized[column]
                if value is not None and seen.get(value, pk) != pk:
                    raise DatabaseError(
                        f"unique constraint violated on {self.name}.{column} = {value!r}"
                    )
            self._index_remove(old)
            stored = self._copy_row(normalized)
            self._rows[pk] = stored
            self._index_add(stored)
            if self._undo_journal is not None:
                # By the stored-row invariant, keeping the old reference
                # is safe: nothing will mutate it.
                self._undo_journal.append((self, "update", (pk, old)))
            if self.mutation_listener is not None:
                # Only the cells this call set: a replay applies them to
                # the row it already holds.
                self.mutation_listener(
                    {
                        "op": "update",
                        "table": self.name,
                        "pk": pk,
                        "cells": {column: stored[column] for column in changes},
                    }
                )
            updated += 1
        return updated

    def delete(self, where: Predicate) -> int:
        """Delete matching rows; returns the number deleted."""
        if self._observer is not None:
            self._observer("delete")
        victims = [row[self.schema.primary_key] for row in self._match(where)]
        for pk in victims:
            row = self._rows.pop(pk)
            self._index_remove(row)
            if self._undo_journal is not None:
                self._undo_journal.append((self, "delete", row))
            if self.mutation_listener is not None:
                self.mutation_listener(
                    {"op": "delete", "table": self.name, "pk": pk}
                )
        return len(victims)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _match(self, where: Predicate) -> list[dict[str, Any]]:
        """Return references to matching stored rows (internal use)."""
        if where.index_hint is not None:
            column, value = where.index_hint
            if column == self.schema.primary_key:
                row = self._rows.get(value)
                return [row] if row is not None and where(row) else []
            if column in self._indexes:
                pks = self._indexes[column].get(value, set())
                return [row for pk in pks if where(row := self._rows[pk])]
        return [row for row in self._rows.values() if where(row)]

    def select(
        self, where: Predicate | None = None, *, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Return copies of matching rows (new dicts, JSON cells deep-copied).

        With no ``where`` the rows come oldest first and only the first
        ``limit`` are read (see the class docstring). An indexed
        ``where`` returns its matches in no set order.
        """
        if self._observer is not None:
            self._observer("select")
        rows = self._rows.values() if where is None else self._match(where)
        if limit is not None:
            rows = islice(rows, max(0, limit))
        return [self._copy_row(row) for row in rows]

    def get(self, pk: Any) -> dict[str, Any] | None:
        """Return a copy of the row with primary key ``pk``, or ``None``.

        The copy is a new dict whose JSON cells are deep-copied, as for
        ``select``.
        """
        row = self._rows.get(pk)
        return self._copy_row(row) if row is not None else None

    def count(self, where: Predicate | None = None) -> int:
        """Count matching rows without copying them."""
        if self._observer is not None:
            self._observer("count")
        if where is None:
            return len(self._rows)
        return len(self._match(where))

    # ------------------------------------------------------------------
    # undo (used by transaction rollback)
    # ------------------------------------------------------------------
    def _undo(self, op: str, data: Any) -> None:
        """Reverse one journalled write (no observer, listener or journal).

        Entries are applied newest-first by the transaction's rollback,
        so each reversal sees exactly the state its forward operation
        produced.
        """
        if op == "insert":
            self._index_remove(self._rows.pop(data))
        elif op == "update":
            pk, old = data
            self._index_remove(self._rows[pk])
            self._rows[pk] = old
            self._index_add(old)
        elif op == "delete":
            # The restored row goes back at the end of the row order.
            self._rows[data[self.schema.primary_key]] = data
            self._index_add(data)
        elif op == "create_index":
            self._indexes.pop(data, None)
        else:  # pragma: no cover - journal entries come from this module
            raise DatabaseError(f"unknown undo op {op!r}")

    # ------------------------------------------------------------------
    # snapshots (used by persistence dumps)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Capture full table state for a persistence dump.

        ``rows`` is a new mapping that holds the stored row objects
        themselves, uncopied. By the stored-row invariant later writes
        replace those rows rather than change them, so the mapping keeps
        this instant's state; callers must treat its rows as read-only.
        """
        return {
            "rows": dict(self._rows),
            "auto_counter": self._auto_counter,
            "indexed": tuple(self._indexes),
        }
