"""An in-memory relational mini-database.

The paper's sensing server stores everything — raw binary sensed data,
decoded readings, feature statistics, schedules and user records — in
PostgreSQL. This package provides a small but genuinely relational
substitute: typed schemas, primary keys and auto-increment columns,
secondary hash indexes, a composable predicate algebra for ``WHERE``
clauses, ordering and limits, and snapshot transactions.
"""

from repro.db.database import Database, Transaction
from repro.db.persistence import dump_database, load_database
from repro.db.predicates import (
    Predicate,
    and_,
    between,
    eq,
    ge,
    gt,
    in_,
    is_null,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.db.schema import Column, ColumnType, Schema
from repro.db.table import Table
from repro.db.wal import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryReport,
    attach_durability,
    open_durable_database,
)

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "DurabilityConfig",
    "DurabilityManager",
    "Predicate",
    "RecoveryReport",
    "Schema",
    "Table",
    "Transaction",
    "and_",
    "attach_durability",
    "between",
    "dump_database",
    "eq",
    "ge",
    "gt",
    "in_",
    "is_null",
    "le",
    "load_database",
    "lt",
    "ne",
    "not_",
    "open_durable_database",
    "or_",
]
