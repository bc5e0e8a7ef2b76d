"""The database object: named tables plus snapshot transactions."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.common.errors import DatabaseError
from repro.db.schema import Schema
from repro.db.table import Table
from repro.obs import MetricsRegistry, get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.wal import DurabilityManager


class Transaction:
    """An undo-logged transaction over the whole database.

    Used as a context manager::

        with db.transaction():
            db.table("users").insert({...})
            db.table("tasks").insert({...})

    If the block raises, every write is reversed (newest first) from a
    per-mutation undo journal, so both entering a transaction and
    rolling one back cost O(rows actually touched) — not O(database
    size), which is what lets the concurrent server open one transaction
    per request while holding millions of rows. Tables created inside
    the block are dropped on rollback and tables dropped inside it are
    restored. Transactions do not nest (the sensing server never needs
    it, and PostgreSQL's savepoints are out of scope).

    With durability attached, the transaction's mutations hit the
    write-ahead log as one atomic batch when the block exits cleanly; a
    rolled-back transaction leaves no WAL trace. If the WAL append itself
    fails, the in-memory state is rolled back too, so memory never runs
    ahead of disk.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._journal: list[tuple[Table, str, Any]] | None = None
        self._tables_before: dict[str, Table] = {}
        self._auto_counters: dict[int, int] = {}

    def __enter__(self) -> "Transaction":
        if self._database._active_transaction is not None:
            raise DatabaseError("transactions do not nest")
        self._journal = []
        self._tables_before = dict(self._database._tables)
        self._auto_counters = {
            id(table): table._auto_counter
            for table in self._tables_before.values()
        }
        for table in self._tables_before.values():
            table._undo_journal = self._journal
        self._database._active_transaction = self
        return self

    def _attach(self, table: Table) -> None:
        """Journal writes of a table created inside this transaction.

        Its entries are skipped on rollback (the whole table is dropped)
        but the journal hook must still be set in case the same name is
        later re-used after a drop.
        """
        table._undo_journal = self._journal

    def _roll_back(self) -> None:
        assert self._journal is not None
        before_ids = {id(table) for table in self._tables_before.values()}
        for table, op, data in reversed(self._journal):
            # Writes to tables born in this transaction need no undo:
            # restoring the pre-transaction table registry discards them.
            if id(table) in before_ids:
                table._undo(op, data)
        for table in self._tables_before.values():
            table._auto_counter = self._auto_counters[id(table)]
        self._database._tables = dict(self._tables_before)

    def _detach_journals(self) -> None:
        for table in self._tables_before.values():
            table._undo_journal = None
        for table in self._database._tables.values():
            table._undo_journal = None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        assert self._journal is not None
        self._database._active_transaction = None
        pending = self._database._pending
        self._database._pending = []
        try:
            if exc_type is not None:
                self._roll_back()
            elif pending and self._database._durability is not None:
                try:
                    self._database._durability.commit(pending, transactional=True)
                except BaseException:
                    self._roll_back()
                    raise
        finally:
            self._detach_journals()
            self._journal = None
        return False  # never swallow the exception


class Database:
    """A collection of named tables with DDL and transactions."""

    def __init__(
        self, name: str = "sor", *, metrics: MetricsRegistry | None = None
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._active_transaction: Transaction | None = None
        self._durability: "DurabilityManager | None" = None
        self._pending: list[dict[str, Any]] = []
        self.metrics = metrics if metrics is not None else get_metrics()
        self._operations = self.metrics.counter(
            "sor_db_operations_total",
            "table operations executed (insert/select/update/delete/count)",
            labels=("db", "table", "op"),
        )

    def _make_observer(self, table_name: str):
        """A per-table operation callback with cached counter children."""
        children: dict[str, Any] = {}
        counter = self._operations
        db_name = self.name

        def observe(op: str) -> None:
            child = children.get(op)
            if child is None:
                child = counter.labels(db=db_name, table=table_name, op=op)
                children[op] = child
            child.inc()

        return observe

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def durability(self) -> "DurabilityManager | None":
        return self._durability

    def attach_durability(self, manager: "DurabilityManager") -> None:
        """Route every committed mutation through ``manager``.

        Attach happens *after* recovery has replayed the on-disk state,
        so the replay itself is never re-logged.
        """
        if self._durability is not None:
            raise DatabaseError(
                f"database {self.name!r} already has durability attached"
            )
        self._durability = manager
        for table in self._tables.values():
            table.mutation_listener = self._on_mutation

    def _encode_event(self, event: dict[str, Any]) -> dict[str, Any]:
        # Local import: persistence imports Database for dump/load.
        from repro.db import persistence

        op = event["op"]
        if op == "insert":
            schema = self._tables[event["table"]].schema
            return {
                "op": op,
                "table": event["table"],
                "row": persistence.encode_row(schema, event["row"]),
            }
        if op == "update":
            # The primary key and the cells the update set, not the row.
            schema = self._tables[event["table"]].schema
            return {
                "op": op,
                "table": event["table"],
                "pk": persistence.encode_cell(
                    schema.column(schema.primary_key), event["pk"]
                ),
                "row": persistence.encode_cells(schema, event["cells"]),
            }
        if op == "delete":
            schema = self._tables[event["table"]].schema
            pk_column = schema.column(schema.primary_key)
            return {
                "op": "delete",
                "table": event["table"],
                "pk": persistence.encode_cell(pk_column, event["pk"]),
            }
        return dict(event)

    def _on_mutation(self, event: dict[str, Any]) -> None:
        if self._durability is None:
            return
        record = self._encode_event(event)
        if self._active_transaction is not None:
            self._pending.append(record)
        else:
            self._durability.commit([record])

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, schema: Schema) -> Table:
        """Create a table from ``schema``; errors if the name is taken."""
        if schema.name in self._tables:
            raise DatabaseError(f"table {schema.name!r} already exists")
        table = Table(schema, observer=self._make_observer(schema.name))
        self._tables[schema.name] = table
        if self._active_transaction is not None:
            self._active_transaction._attach(table)
        if self._durability is not None:
            table.mutation_listener = self._on_mutation
            from repro.db import persistence

            self._on_mutation(
                {"op": "create_table", "schema": persistence.schema_to_dict(schema)}
            )
        return table

    def drop_table(self, name: str) -> None:
        """Drop the table named ``name``; errors if it does not exist."""
        if name not in self._tables:
            raise DatabaseError(f"no such table {name!r}")
        del self._tables[name]
        self._on_mutation({"op": "drop_table", "table": name})

    def table(self, name: str) -> Table:
        """Return the table named ``name``; errors if it does not exist."""
        try:
            return self._tables[name]
        except KeyError:
            raise DatabaseError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table named ``name`` exists."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """Sorted names of all tables."""
        return sorted(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def transaction(self) -> Transaction:
        """Begin a snapshot transaction (use as a context manager)."""
        return Transaction(self)
