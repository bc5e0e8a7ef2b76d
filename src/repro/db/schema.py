"""Table schemas: typed columns, primary keys, uniqueness."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import DatabaseError, ValidationError
from repro.common.validation import require_non_empty


class ColumnType(enum.Enum):
    """Supported column types, mirroring the PostgreSQL types SOR uses."""

    INT = "int"
    REAL = "real"
    TEXT = "text"
    BOOL = "bool"
    BLOB = "blob"
    JSON = "json"

    def validate(self, value: Any) -> Any:
        """Coerce/validate ``value`` for this column type.

        Returns the (possibly coerced) value, or raises
        :class:`DatabaseError` if the value does not fit the type.
        """
        if value is None:
            return None
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DatabaseError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.REAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DatabaseError(f"expected real, got {value!r}")
            return float(value)
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise DatabaseError(f"expected text, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise DatabaseError(f"expected bool, got {value!r}")
            return value
        if self is ColumnType.BLOB:
            if not isinstance(value, (bytes, bytearray)):
                raise DatabaseError(f"expected blob, got {value!r}")
            return bytes(value)
        if self is ColumnType.JSON:
            # Accept any JSON-compatible structure. Returned as is: the
            # table deep-copies JSON cells on the way in and on the way out.
            if not isinstance(value, (dict, list, str, int, float, bool)):
                raise DatabaseError(f"expected JSON-compatible value, got {value!r}")
            return value
        raise DatabaseError(f"unknown column type {self!r}")  # pragma: no cover


@dataclass(frozen=True)
class Column:
    """A single typed column.

    ``auto_increment`` is only valid on an INT primary-key column; the
    table assigns 1, 2, 3, ... when the value is omitted on insert.
    """

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None
    auto_increment: bool = False

    def __post_init__(self) -> None:
        require_non_empty(self.name, "column name")
        if self.auto_increment and self.type is not ColumnType.INT:
            raise ValidationError(
                f"auto_increment column {self.name!r} must be INT"
            )


@dataclass(frozen=True)
class Schema:
    """A table schema: ordered columns plus key constraints."""

    name: str
    columns: tuple[Column, ...]
    primary_key: str
    unique: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_non_empty(self.name, "table name")
        require_non_empty(self.columns, "columns")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate column names in table {self.name!r}")
        if self.primary_key not in names:
            raise ValidationError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for unique_column in self.unique:
            if unique_column not in names:
                raise ValidationError(
                    f"unique column {unique_column!r} is not a column of {self.name!r}"
                )
        pk_column = self.column(self.primary_key)
        if pk_column.nullable and not pk_column.auto_increment:
            raise ValidationError(
                f"primary key {self.primary_key!r} must be declared nullable=False "
                "(or auto_increment)"
            )

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`DatabaseError`."""
        for column in self.columns:
            if column.name == name:
                return column
        raise DatabaseError(f"table {self.name!r} has no column {name!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def normalize_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate a row against this schema and fill in defaults.

        Auto-increment handling happens in the table (it needs the
        counter); here a missing auto-increment value passes through as
        ``None``.
        """
        unknown = set(row) - set(self.column_names)
        if unknown:
            raise DatabaseError(
                f"unknown columns {sorted(unknown)} for table {self.name!r}"
            )
        normalized: dict[str, Any] = {}
        for column in self.columns:
            if column.name in row:
                value = row[column.name]
            elif column.default is not None:
                value = column.default
            else:
                value = None
            value = column.type.validate(value)
            if value is None and not column.nullable and not column.auto_increment:
                raise DatabaseError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            normalized[column.name] = value
        return normalized
