"""The JSON codec for database state: dump and load, rows and cells.

The sensing server's state (users, applications, tasks, raw blobs,
readings, feature data) survives restarts in the real system because
PostgreSQL is durable. The in-memory stand-in gets there through
:mod:`repro.db.wal`, and this module is the pure codec it writes with:
:func:`dump_database` serializes schemas, rows, auto-increment counters
and index definitions to a JSON-compatible dict (blobs are
base64-encoded), and :func:`load_database` reconstructs an identical
database. WAL records carry rows, cells and schemas in the same wire
form (:func:`encode_row`, :func:`encode_cell`, :func:`schema_to_dict`).

Nothing here touches the file system: checkpoint files are written
atomically, with crash hooks, by the WAL's durability manager and read
back by :func:`repro.db.wal.read_checkpoint`.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any

from repro.common.errors import DatabaseError
from repro.db.database import Database
from repro.db.schema import Column, ColumnType, Schema
from repro.obs import MetricsRegistry

_FORMAT_VERSION = 1


def encode_cell(column: Column, value: Any) -> Any:
    """One cell in JSON-compatible wire form (blobs base64'd)."""
    if value is None:
        return None
    if column.type is ColumnType.BLOB:
        return base64.b64encode(value).decode("ascii")
    return value


def decode_cell(column: Column, value: Any) -> Any:
    """Invert :func:`encode_cell` back to a storable Python value."""
    if value is None:
        return None
    if column.type is ColumnType.BLOB:
        if not isinstance(value, str):
            raise DatabaseError(
                f"blob cell for column {column.name!r} is not base64 text"
            )
        try:
            return base64.b64decode(value.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as exc:
            raise DatabaseError(
                f"corrupt base64 blob in column {column.name!r}: {exc}"
            ) from exc
    return value


def encode_row(schema: Schema, row: dict[str, Any]) -> dict[str, Any]:
    """One stored row in JSON-compatible wire form (blobs base64'd)."""
    return {
        column.name: encode_cell(column, row[column.name])
        for column in schema.columns
    }


def decode_row(schema: Schema, row: dict[str, Any]) -> dict[str, Any]:
    """Invert :func:`encode_row` back to storable Python values."""
    return {
        column.name: decode_cell(column, row.get(column.name))
        for column in schema.columns
    }


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    """A schema in JSON-compatible form (for dumps and WAL records)."""
    return {
        "name": schema.name,
        "primary_key": schema.primary_key,
        "unique": list(schema.unique),
        "columns": [
            {
                "name": column.name,
                "type": column.type.value,
                "nullable": column.nullable,
                # Blob defaults (e.g. b"") need the same base64 treatment
                # as blob cells to survive the JSON round trip.
                "default": encode_cell(column, column.default),
                "auto_increment": column.auto_increment,
            }
            for column in schema.columns
        ],
    }


def schema_from_dict(data: dict[str, Any]) -> Schema:
    """Invert :func:`schema_to_dict` (raises DatabaseError on bad input)."""
    try:
        columns = []
        for column in data["columns"]:
            parsed = Column(
                name=column["name"],
                type=ColumnType(column["type"]),
                nullable=column["nullable"],
                default=None,
                auto_increment=column.get("auto_increment", False),
            )
            default = decode_cell(parsed, column.get("default"))
            if default is not None:
                parsed = Column(
                    name=parsed.name,
                    type=parsed.type,
                    nullable=parsed.nullable,
                    default=default,
                    auto_increment=parsed.auto_increment,
                )
            columns.append(parsed)
        return Schema(
            name=data["name"],
            primary_key=data["primary_key"],
            unique=tuple(data.get("unique", [])),
            columns=tuple(columns),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseError(f"malformed schema in dump: {exc!r}") from exc


def dump_database(database: Database) -> dict[str, Any]:
    """Serialize a database to a JSON-compatible dictionary.

    Each row is a new dict (:func:`encode_row`), but its JSON cells are
    the stored values themselves, not copies, just as in the WAL records
    :class:`~repro.db.database.Database` writes. Treat them as read-only:
    serialize the dump, or load it with :func:`load_database`, which
    copies them into the new tables.
    """
    tables = []
    for name in database.table_names():
        table = database.table(name)
        snapshot = table.snapshot()
        rows = [
            encode_row(table.schema, row) for row in snapshot["rows"].values()
        ]
        tables.append(
            {
                "schema": schema_to_dict(table.schema),
                "rows": rows,
                "auto_counter": snapshot["auto_counter"],
                "indexes": list(snapshot["indexed"]),
            }
        )
    return {"format": _FORMAT_VERSION, "name": database.name, "tables": tables}


def load_database(
    data: dict[str, Any], *, metrics: MetricsRegistry | None = None
) -> Database:
    """Reconstruct a database from :func:`dump_database` output.

    Every malformed input — unknown format version, missing keys, rows
    that do not fit their schema, base64-corrupt blob cells — raises
    :class:`DatabaseError` (never a bare ``KeyError``/``ValueError``),
    so callers can treat "this dump is unusable" as one failure mode.
    """
    if not isinstance(data, dict):
        raise DatabaseError(f"database dump is not an object: {type(data).__name__}")
    if data.get("format") != _FORMAT_VERSION:
        raise DatabaseError(f"unsupported dump format {data.get('format')!r}")
    name = data.get("name", "restored")
    if not isinstance(name, str):
        raise DatabaseError(f"dump name is not a string: {name!r}")
    database = Database(name=name, metrics=metrics)
    try:
        table_dumps = list(data["tables"])
    except (KeyError, TypeError) as exc:
        raise DatabaseError(f"dump has no table list: {exc!r}") from exc
    for table_data in table_dumps:
        if not isinstance(table_data, dict):
            raise DatabaseError("table entry in dump is not an object")
        try:
            schema = schema_from_dict(table_data["schema"])
            table = database.create_table(schema)
            for row in table_data["rows"]:
                table.insert(decode_row(schema, row))
            # Restore the counter even past the highest inserted key.
            table._auto_counter = max(
                table._auto_counter, int(table_data["auto_counter"])
            )
            for column_name in table_data["indexes"]:
                table.create_index(column_name)
        except DatabaseError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DatabaseError(
                f"malformed table entry in dump: {exc!r}"
            ) from exc
    return database
