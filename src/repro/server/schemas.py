"""Database schemas for the sensing server's PostgreSQL stand-in."""

from __future__ import annotations

from repro.db import Column, ColumnType, Schema

USERS = Schema(
    name="users",
    columns=(
        Column("user_id", ColumnType.TEXT, nullable=False),
        Column("name", ColumnType.TEXT, nullable=False),
        Column("token", ColumnType.TEXT, nullable=False),
        Column("denied_sensors", ColumnType.JSON, default=[]),
        Column("registered_at", ColumnType.REAL, nullable=False),
    ),
    primary_key="user_id",
    unique=("token",),
)

APPLICATIONS = Schema(
    name="applications",
    columns=(
        Column("app_id", ColumnType.TEXT, nullable=False),
        Column("creator", ColumnType.TEXT, nullable=False),
        Column("place_id", ColumnType.TEXT, nullable=False),
        Column("place_name", ColumnType.TEXT, nullable=False),
        Column("category", ColumnType.TEXT, nullable=False),
        Column("latitude", ColumnType.REAL, nullable=False),
        Column("longitude", ColumnType.REAL, nullable=False),
        Column("location_tolerance_m", ColumnType.REAL, nullable=False),
        Column("script", ColumnType.TEXT, nullable=False),
        Column("period_start", ColumnType.REAL, nullable=False),
        Column("period_end", ColumnType.REAL, nullable=False),
        Column("num_instants", ColumnType.INT, nullable=False),
        Column("coverage_sigma_s", ColumnType.REAL, nullable=False),
    ),
    primary_key="app_id",
)

TASKS = Schema(
    name="tasks",
    columns=(
        Column("task_id", ColumnType.TEXT, nullable=False),
        Column("app_id", ColumnType.TEXT, nullable=False),
        Column("user_id", ColumnType.TEXT, nullable=False),
        Column("token", ColumnType.TEXT, nullable=False),
        Column("phone_host", ColumnType.TEXT, nullable=False),
        Column("budget", ColumnType.INT, nullable=False),
        Column("status", ColumnType.TEXT, nullable=False),
        Column("error", ColumnType.TEXT, default=""),
        Column("created_at", ColumnType.REAL, nullable=False),
        Column("schedule_times", ColumnType.JSON, default=[]),
    ),
    primary_key="task_id",
)

RAW_DATA = Schema(
    name="raw_data",
    columns=(
        Column("raw_id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("task_id", ColumnType.TEXT, nullable=False),
        Column("received_at", ColumnType.REAL, nullable=False),
        Column("body", ColumnType.BLOB, nullable=False),
        Column("processed", ColumnType.BOOL, nullable=False, default=False),
    ),
    primary_key="raw_id",
)

READINGS = Schema(
    name="readings",
    columns=(
        Column("reading_id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("task_id", ColumnType.TEXT, nullable=False),
        Column("app_id", ColumnType.TEXT, nullable=False),
        Column("place_id", ColumnType.TEXT, nullable=False),
        Column("sensor", ColumnType.TEXT, nullable=False),
        Column("t", ColumnType.REAL, nullable=False),
        Column("dt", ColumnType.REAL, nullable=False),
        Column("values", ColumnType.JSON, nullable=False),
        Column("source", ColumnType.TEXT, nullable=False),
    ),
    primary_key="reading_id",
)

FEATURE_DATA = Schema(
    name="feature_data",
    columns=(
        Column("feature_id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("place_id", ColumnType.TEXT, nullable=False),
        Column("category", ColumnType.TEXT, nullable=False),
        Column("feature", ColumnType.TEXT, nullable=False),
        Column("value", ColumnType.REAL, nullable=False),
        Column("computed_at", ColumnType.REAL, nullable=False),
    ),
    primary_key="feature_id",
)

# Replies already served, keyed by envelope idempotency key. Durable on
# purpose: a server crash between serving a reply and the phone's retry
# must not let the retry re-run the handler (double task, double
# ingest) after recovery.
IDEMPOTENCY = Schema(
    name="idempotency",
    columns=(
        Column("key", ColumnType.TEXT, nullable=False),
        Column("status", ColumnType.INT, nullable=False),
        Column("body", ColumnType.BLOB, nullable=False, default=b""),
        Column("created_at", ColumnType.REAL, nullable=False),
    ),
    primary_key="key",
)

# One row per category: a monotonically increasing version the Data
# Processor bumps on every feature_data write. The ranking cache keys on
# it, so any write invalidates every cached ranking of the category —
# and because the row is durable, a restarted server can never serve
# results cached against data it no longer has.
RANKING_VERSIONS = Schema(
    name="ranking_versions",
    columns=(
        Column("category", ColumnType.TEXT, nullable=False),
        Column("data_version", ColumnType.INT, nullable=False, default=0),
    ),
    primary_key="category",
)

# Sensor bursts the Data Processor refused to turn into readings
# (NaN/inf, out-of-spec values, malformed shapes) — kept for forensics
# instead of poisoning feature extraction.
QUARANTINE = Schema(
    name="quarantine",
    columns=(
        Column("quarantine_id", ColumnType.INT, nullable=False, auto_increment=True),
        Column("task_id", ColumnType.TEXT, nullable=False),
        Column("app_id", ColumnType.TEXT, nullable=False),
        Column("place_id", ColumnType.TEXT, nullable=False),
        Column("sensor", ColumnType.TEXT, nullable=False),
        Column("reason", ColumnType.TEXT, nullable=False),
        Column("payload", ColumnType.JSON, nullable=False, default={}),
        Column("received_at", ColumnType.REAL, nullable=False),
    ),
    primary_key="quarantine_id",
)

ALL_SCHEMAS = (
    USERS,
    APPLICATIONS,
    TASKS,
    RAW_DATA,
    READINGS,
    FEATURE_DATA,
    IDEMPOTENCY,
    RANKING_VERSIONS,
    QUARANTINE,
)


def create_all_tables(database) -> None:
    """Create every server table plus its hot-path indexes.

    Idempotent: a server runs this at every startup, and a database
    recovered from disk already holds its tables.
    """
    for schema in ALL_SCHEMAS:
        if not database.has_table(schema.name):
            database.create_table(schema)
    database.table("tasks").create_index("app_id")
    database.table("tasks").create_index("token")
    database.table("raw_data").create_index("processed")
    database.table("readings").create_index("place_id")
    database.table("feature_data").create_index("place_id")
    database.table("feature_data").create_index("category")
    database.table("quarantine").create_index("place_id")
