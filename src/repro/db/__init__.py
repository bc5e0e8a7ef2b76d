"""An in-memory relational mini-database.

The paper's sensing server stores everything — raw binary sensed data,
decoded readings, feature statistics, schedules and user records — in
PostgreSQL. This package is a small substitute that offers what the
server uses: typed schemas, primary keys and auto-increment columns,
secondary hash indexes, equality lookups (``eq``, ``and_``), reads of
the oldest rows in insertion order with a limit, and undo-logged
transactions.
"""

from repro.db.database import Database, Transaction
from repro.db.persistence import dump_database, load_database
from repro.db.predicates import Predicate, and_, eq
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
    "dump_database",
    "eq",
    "load_database",
    "open_durable_database",
]
