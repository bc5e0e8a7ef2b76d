"""Tests for database dump/load (durability of the PostgreSQL stand-in)."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import DatabaseError
from repro.db import (
    Column,
    ColumnType,
    Database,
    Schema,
    dump_database,
    eq,
    load_database,
)


def populated_database():
    db = Database(name="sor-test")
    db.create_table(
        Schema(
            name="mixed",
            columns=(
                Column("id", ColumnType.INT, nullable=False, auto_increment=True),
                Column("text", ColumnType.TEXT),
                Column("real", ColumnType.REAL),
                Column("flag", ColumnType.BOOL),
                Column("blob", ColumnType.BLOB),
                Column("doc", ColumnType.JSON),
            ),
            primary_key="id",
            unique=("text",),
        )
    )
    for row in (
        {"text": "a", "real": 1.5, "flag": True, "blob": b"\x00\xff\x10",
         "doc": {"nested": [1, 2]}},
        {"text": "b", "real": -2.0, "flag": False, "blob": b"", "doc": None},
        {"text": None, "real": None, "flag": None, "blob": None, "doc": None},
    ):
        db.table("mixed").insert(row)
    db.table("mixed").create_index("flag")
    return db


class TestRoundtrip:
    def test_rows_preserved_exactly(self):
        original = populated_database()
        restored = load_database(dump_database(original))
        assert restored.table("mixed").select() == original.table("mixed").select()

    def test_row_order_survives(self):
        original = populated_database()
        table = original.table("mixed")
        table.delete(eq("text", "a"))
        table.insert({"text": "a"})  # now the newest row
        table.update(eq("text", "b"), {"real": 0.0})  # keeps its place
        restored = load_database(dump_database(original))
        order = [row["text"] for row in restored.table("mixed").select()]
        assert order == ["b", None, "a"]

    def test_name_and_tables_preserved(self):
        restored = load_database(dump_database(populated_database()))
        assert restored.name == "sor-test"
        assert restored.table_names() == ["mixed"]

    def test_indexes_recreated(self):
        restored = load_database(dump_database(populated_database()))
        assert restored.table("mixed").indexed_columns == ("flag",)
        assert len(restored.table("mixed").select(eq("flag", True))) == 1

    def test_auto_counter_continues(self):
        original = populated_database()
        original.table("mixed").delete(eq("text", "b"))  # id 2 freed
        restored = load_database(dump_database(original))
        new_id = restored.table("mixed").insert({"text": "fresh"})
        assert new_id == 4  # counter not reset by the deletion

    def test_unique_constraint_survives(self):
        restored = load_database(dump_database(populated_database()))
        with pytest.raises(DatabaseError, match="unique"):
            restored.table("mixed").insert({"text": "a"})

    def test_dump_is_json_serializable(self):
        dump = dump_database(populated_database())
        json.dumps(dump)  # must not raise

    def test_wrong_format_version_rejected(self):
        dump = dump_database(populated_database())
        dump["format"] = 99
        with pytest.raises(DatabaseError):
            load_database(dump)


class TestDumpIsAnInstant:
    """A dump shares stored rows, so it must keep the state it was taken at."""

    def test_writes_after_a_dump_leave_it_unchanged(self):
        db = populated_database()
        table = db.table("mixed")
        before = table.select()
        dump = dump_database(db)
        text = json.dumps(dump)
        table.insert({"text": "c", "doc": {"nested": [3]}})
        table.update(eq("text", "a"), {"real": 0.0, "doc": {"nested": [9]}})
        table.delete(eq("text", "b"))
        assert json.dumps(dump) == text
        assert load_database(dump).table("mixed").select() == before

    def test_loading_copies_the_dumps_json_cells(self):
        db = populated_database()
        restored = load_database(dump_database(db))
        original = db.table("mixed").snapshot()["rows"][1]["doc"]
        copied = restored.table("mixed").snapshot()["rows"][1]["doc"]
        assert copied == original
        assert copied is not original
        assert copied["nested"] is not original["nested"]


class TestRoundtripExtras:
    def test_unicode_text_and_json_survive(self):
        db = Database()
        db.create_table(
            Schema(
                name="t",
                columns=(
                    Column("id", ColumnType.INT, nullable=False, auto_increment=True),
                    Column("text", ColumnType.TEXT),
                    Column("doc", ColumnType.JSON),
                ),
                primary_key="id",
            )
        )
        db.table("t").insert(
            {"text": "café ☕ — syracuse 雪", "doc": {"emoji": "📡", "mix": ["ß", 1]}}
        )
        dumped = json.dumps(dump_database(db))  # through real JSON text
        restored = load_database(json.loads(dumped))
        assert restored.table("t").select() == db.table("t").select()

    def test_blob_default_survives_schema_roundtrip(self):
        db = Database()
        db.create_table(
            Schema(
                name="t",
                columns=(
                    Column("key", ColumnType.TEXT, nullable=False),
                    Column("body", ColumnType.BLOB, default=b"\x00"),
                ),
                primary_key="key",
            )
        )
        db.table("t").insert({"key": "a"})  # default applies
        restored = load_database(json.loads(json.dumps(dump_database(db))))
        assert restored.table("t").schema.column("body").default == b"\x00"
        restored.table("t").insert({"key": "b"})
        assert restored.table("t").select(eq("key", "b"))[0]["body"] == b"\x00"

    def test_multiple_indexes_recreated(self):
        db = populated_database()
        db.table("mixed").create_index("real")
        restored = load_database(dump_database(db))
        assert set(restored.table("mixed").indexed_columns) == {"flag", "real"}


class TestLoadNegatives:
    def test_non_dict_dump_rejected(self):
        with pytest.raises(DatabaseError, match="not an object"):
            load_database([1, 2, 3])

    def test_missing_tables_key_rejected(self):
        with pytest.raises(DatabaseError):
            load_database({"format": 1, "name": "x"})

    def test_non_string_name_rejected(self):
        with pytest.raises(DatabaseError, match="name"):
            load_database({"format": 1, "name": 7, "tables": []})

    def test_malformed_table_entry_rejected(self):
        with pytest.raises(DatabaseError):
            load_database({"format": 1, "name": "x", "tables": ["nope"]})

    def test_corrupt_base64_blob_rejected(self):
        dump = dump_database(populated_database())
        for row in dump["tables"][0]["rows"]:
            if row["blob"]:
                row["blob"] = "!!! not base64 !!!"
        with pytest.raises(DatabaseError, match="base64"):
            load_database(dump)

    def test_non_string_blob_cell_rejected(self):
        dump = dump_database(populated_database())
        for row in dump["tables"][0]["rows"]:
            if row["blob"]:
                row["blob"] = 12345
        with pytest.raises(DatabaseError, match="base64"):
            load_database(dump)

    def test_malformed_schema_rejected(self):
        dump = dump_database(populated_database())
        dump["tables"][0]["schema"]["columns"][0]["type"] = "no-such-type"
        with pytest.raises(DatabaseError, match="schema"):
            load_database(dump)


@given(
    rows=st.lists(
        st.tuples(
            st.integers(-1000, 1000),
            st.binary(max_size=20),
            st.booleans(),
        ),
        max_size=25,
    )
)
def test_roundtrip_property(rows):
    """Arbitrary content round-trips bit-exactly."""
    db = Database()
    db.create_table(
        Schema(
            name="t",
            columns=(
                Column("id", ColumnType.INT, nullable=False, auto_increment=True),
                Column("n", ColumnType.INT),
                Column("b", ColumnType.BLOB),
                Column("f", ColumnType.BOOL),
            ),
            primary_key="id",
        )
    )
    for n, b, f in rows:
        db.table("t").insert({"n": n, "b": b, "f": f})
    restored = load_database(dump_database(db))
    assert restored.table("t").select() == db.table("t").select()
