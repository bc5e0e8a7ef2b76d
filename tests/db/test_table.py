"""Tests for repro.db.table."""

import copy

import pytest

from repro.common.errors import DatabaseError
from repro.db import Column, ColumnType, Database, Schema, Table, eq
from repro.server.schemas import QUARANTINE, TASKS, USERS


def make_table(*, unique=(), auto=False):
    schema = Schema(
        name="people",
        columns=(
            Column("id", ColumnType.INT, nullable=False, auto_increment=auto),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("age", ColumnType.INT),
        ),
        primary_key="id",
        unique=tuple(unique),
    )
    return Table(schema)


class CountingRows(dict):
    """A table's row storage that counts the rows its scans visit.

    Swap it in as ``table._rows``: every scan reads rows through
    ``values()``, while key lookups (``get``, ``in``) visit none.
    """

    def __init__(self, rows):
        super().__init__(rows)
        self.visited = 0

    def values(self):
        for row in super().values():
            self.visited += 1
            yield row


class TestInsert:
    def test_insert_and_get(self):
        table = make_table()
        pk = table.insert({"id": 1, "name": "ann", "age": 30})
        assert pk == 1
        assert table.get(1) == {"id": 1, "name": "ann", "age": 30}

    def test_duplicate_pk_rejected(self):
        table = make_table()
        table.insert({"id": 1, "name": "ann"})
        with pytest.raises(DatabaseError, match="duplicate"):
            table.insert({"id": 1, "name": "bob"})

    def test_auto_increment_assigns_sequential(self):
        table = make_table(auto=True)
        assert table.insert({"name": "a"}) == 1
        assert table.insert({"name": "b"}) == 2

    def test_auto_increment_respects_explicit_keys(self):
        table = make_table(auto=True)
        table.insert({"id": 10, "name": "a"})
        assert table.insert({"name": "b"}) == 11

    def test_missing_pk_without_auto_rejected(self):
        table = make_table()
        with pytest.raises(DatabaseError):
            table.insert({"name": "a"})

    def test_unique_constraint(self):
        table = make_table(unique=["name"])
        table.insert({"id": 1, "name": "ann"})
        with pytest.raises(DatabaseError, match="unique"):
            table.insert({"id": 2, "name": "ann"})

    def test_inserted_row_is_copied(self):
        table = make_table()
        row = {"id": 1, "name": "ann", "age": 5}
        table.insert(row)
        row["name"] = "mutated"
        assert table.get(1)["name"] == "ann"


class TestSelect:
    def make_filled(self):
        table = make_table(auto=True)
        for row in (
            {"name": "ann", "age": 30},
            {"name": "bob", "age": 25},
            {"name": "cat", "age": None},
        ):
            table.insert(row)
        return table

    def test_select_all(self):
        assert len(self.make_filled().select()) == 3

    def test_select_where(self):
        rows = self.make_filled().select(eq("name", "bob"))
        assert [row["age"] for row in rows] == [25]

    def test_limit(self):
        assert len(self.make_filled().select(limit=2)) == 2

    def test_count(self):
        assert self.make_filled().count(eq("age", 25)) == 1

    def test_count_without_predicate_is_observed(self):
        seen = []
        table = Table(make_table().schema, observer=seen.append)
        table.insert({"id": 1, "name": "ann"})
        table.insert({"id": 2, "name": "bob"})
        table.delete(eq("id", 1))
        seen.clear()
        assert table.count() == 1
        assert seen == ["count"]

    def test_results_are_copies(self):
        table = self.make_filled()
        table.select()[0]["name"] = "mutated"
        assert all(row["name"] != "mutated" for row in table.select())

    def test_pk_lookup_uses_primary_index(self):
        table = self.make_filled()
        rows = table.select(eq("id", 2))
        assert [row["name"] for row in rows] == ["bob"]


class TestUpdateDelete:
    def test_update(self):
        table = make_table(auto=True)
        table.insert({"name": "a", "age": 1})
        table.insert({"name": "b", "age": 2})
        assert table.update(eq("name", "a"), {"age": 10}) == 1
        assert table.select(eq("name", "a"))[0]["age"] == 10

    def test_update_pk_rejected(self):
        table = make_table(auto=True)
        table.insert({"name": "a"})
        with pytest.raises(DatabaseError):
            table.update(eq("name", "a"), {"id": 99})

    def test_update_respects_unique(self):
        table = make_table(auto=True, unique=["name"])
        table.insert({"name": "a"})
        table.insert({"name": "b"})
        with pytest.raises(DatabaseError, match="unique"):
            table.update(eq("name", "b"), {"name": "a"})

    def test_update_to_same_value_allowed(self):
        table = make_table(auto=True, unique=["name"])
        table.insert({"name": "a", "age": 1})
        assert table.update(eq("name", "a"), {"name": "a", "age": 2}) == 1

    def test_delete(self):
        table = make_table(auto=True)
        table.insert({"name": "a"})
        table.insert({"name": "b"})
        assert table.delete(eq("name", "a")) == 1
        assert len(table) == 1

    def test_delete_frees_unique_value(self):
        table = make_table(auto=True, unique=["name"])
        table.insert({"name": "a"})
        table.delete(eq("name", "a"))
        table.insert({"name": "a"})  # does not raise

    def test_rollback_restores_unique_values(self):
        db = Database()
        table = db.create_table(make_table(unique=["name"]).schema)
        table.insert({"id": 1, "name": "a"})
        table.insert({"id": 2, "name": "b"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.insert({"id": 3, "name": "c"})
                table.update(eq("id", 2), {"name": "d"})
                table.delete(eq("id", 1))
                raise RuntimeError("abort")
        for taken in ("a", "b"):
            with pytest.raises(DatabaseError, match="unique"):
                table.insert({"id": 9, "name": taken})
        table.insert({"id": 3, "name": "c"})
        table.insert({"id": 4, "name": "d"})


class TestRowOrder:
    """Rows keep insertion order, and a select with no where reads the
    oldest first."""

    def test_select_returns_rows_in_insertion_order(self):
        table = make_table()
        for pk in (3, 1, 2):
            table.insert({"id": pk, "name": f"n{pk}"})
        table.update(eq("id", 1), {"age": 5})  # keeps its place
        table.delete(eq("id", 3))
        table.insert({"id": 3, "name": "again"})  # now the newest
        assert [row["id"] for row in table.select()] == [1, 2, 3]

    def test_a_limit_reads_only_the_oldest_rows(self):
        table = make_table()
        for pk in range(100):
            table.insert({"id": pk, "name": f"n{pk}"})
        table._rows = CountingRows(table._rows)
        assert [row["id"] for row in table.select(limit=2)] == [0, 1]
        assert table._rows.visited == 2
        assert table.select(limit=0) == []
        assert table._rows.visited == 2

    def test_undoing_a_delete_puts_the_row_back_at_the_end(self):
        db = Database()
        table = db.create_table(make_table().schema)
        for pk in (1, 2, 3):
            table.insert({"id": pk, "name": f"n{pk}"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.delete(eq("id", 1))
                table.update(eq("id", 2), {"age": 1})
                raise RuntimeError("abort")
        assert [row["id"] for row in table.select()] == [2, 3, 1]


class TestIndexes:
    def test_index_lookup_matches_scan(self):
        table = make_table(auto=True)
        for index in range(50):
            table.insert({"name": f"n{index % 5}", "age": index})
        scan = sorted(row["id"] for row in table.select(eq("name", "n3")))
        table.create_index("name")
        indexed = sorted(row["id"] for row in table.select(eq("name", "n3")))
        assert scan == indexed

    def test_index_maintained_by_writes(self):
        table = make_table(auto=True)
        table.create_index("name")
        table.insert({"name": "a"})
        table.insert({"name": "b"})
        table.update(eq("name", "a"), {"name": "c"})
        assert table.select(eq("name", "a")) == []
        assert len(table.select(eq("name", "c"))) == 1
        table.delete(eq("name", "c"))
        assert table.select(eq("name", "c")) == []

    def test_create_index_is_idempotent(self):
        table = make_table()
        table.create_index("name")
        table.create_index("name")
        assert table.indexed_columns == ("name",)


# One column per type, for the copy-rule tests.
CELLS = Schema(
    name="cells",
    columns=(
        Column("id", ColumnType.INT, nullable=False),
        Column("n", ColumnType.INT),
        Column("x", ColumnType.REAL),
        Column("s", ColumnType.TEXT),
        Column("flag", ColumnType.BOOL),
        Column("blob", ColumnType.BLOB),
        Column("doc", ColumnType.JSON),
    ),
    primary_key="id",
)


def cells_row(pk=1, **overrides):
    row = {
        "id": pk,
        "n": 7,
        "x": 2.5,
        "s": "ann",
        "flag": True,
        "blob": b"\x00\x01",
        "doc": [{"tags": ["a", "b"]}, 3],
    }
    row.update(overrides)
    return row


# A different value of the same type for each column.
REPLACEMENTS = {
    "id": 99,
    "n": 8,
    "x": -1.0,
    "s": "bob",
    "flag": False,
    "blob": b"\xff",
    "doc": {"other": 1},
}


def read_back(table, via, pk=1):
    return table.get(pk) if via == "get" else table.select(eq("id", pk))[0]


class TestCopyRule:
    """Nothing a caller does to a row it passed in or got back changes the table."""

    @pytest.mark.parametrize("via", ["select", "get"])
    @pytest.mark.parametrize("column", sorted(REPLACEMENTS))
    def test_replacing_or_deleting_a_returned_cell(self, via, column):
        table = Table(CELLS)
        table.insert(cells_row())
        row = read_back(table, via)
        row[column] = REPLACEMENTS[column]
        assert table.select() == [cells_row()]
        del row[column]
        assert table.select() == [cells_row()]

    @pytest.mark.parametrize("via", ["select", "get"])
    def test_mutating_nested_json_through_a_returned_row(self, via):
        table = Table(CELLS)
        table.insert(cells_row())
        doc = read_back(table, via)["doc"]
        doc[0]["tags"].append("c")  # a list inside a dict inside a list
        doc[0]["new"] = 1
        doc.append(4)
        assert table.get(1)["doc"] == [{"tags": ["a", "b"]}, 3]
        assert table.select() == [cells_row()]

    def test_mutating_nested_json_passed_to_insert(self):
        table = Table(CELLS)
        row = cells_row()
        table.insert(row)
        row["doc"][0]["tags"].append("c")
        row["doc"].append(4)
        row["doc"] = None
        assert table.select() == [cells_row()]

    def test_mutating_nested_json_passed_to_update(self):
        table = Table(CELLS)
        table.insert(cells_row(doc=None))
        changes = {"doc": [{"tags": ["x"]}]}
        table.update(eq("id", 1), changes)
        changes["doc"][0]["tags"].append("y")
        changes["doc"].append(0)
        assert table.get(1)["doc"] == [{"tags": ["x"]}]

    def test_blob_passed_as_bytearray_is_stored_as_bytes(self):
        table = Table(CELLS)
        blob = bytearray(b"\x00\x01")
        table.insert(cells_row(blob=blob))
        blob[0] = 0xFF
        assert table.get(1)["blob"] == b"\x00\x01"
        assert type(table.get(1)["blob"]) is bytes

    @pytest.mark.parametrize(
        "schema, rows",
        [
            pytest.param(
                USERS,
                [
                    {"user_id": f"u{i}", "name": "n", "token": f"t{i}",
                     "registered_at": 0.0}
                    for i in (1, 2)
                ],
                id="users.denied_sensors",
            ),
            pytest.param(
                TASKS,
                [
                    {"task_id": f"task-{i}", "app_id": "a", "user_id": "u",
                     "token": "t", "phone_host": "p", "budget": 1,
                     "status": "open", "created_at": 0.0}
                    for i in (1, 2)
                ],
                id="tasks.schedule_times",
            ),
            pytest.param(
                QUARANTINE,
                [
                    {"task_id": "t", "app_id": "a", "place_id": "p",
                     "sensor": "s", "reason": "r", "received_at": 0.0}
                    for _ in (1, 2)
                ],
                id="quarantine.payload",
            ),
        ],
    )
    def test_mutable_json_default_is_never_shared(self, schema, rows):
        (column,) = (c for c in schema.columns if c.type is ColumnType.JSON)
        default = copy.deepcopy(column.default)
        table = Table(schema)
        first, second = (table.insert(row) for row in rows)
        cell = table.get(first)[column.name]
        if isinstance(cell, list):
            cell.append("x")
        else:
            cell["x"] = 1
        assert table.get(first)[column.name] == default
        assert table.get(second)[column.name] == default
        assert column.default == default
        stored = table.snapshot()["rows"]
        assert stored[first][column.name] is not stored[second][column.name]
        assert stored[first][column.name] is not column.default


class TestStoredRowInvariant:
    """Stored rows are replaced, never mutated in place; JSON cells are private."""

    def test_writes_replace_stored_rows_without_changing_them(self):
        table = Table(CELLS)
        table.create_index("s")
        for pk in (1, 2, 3):
            table.insert(cells_row(pk, s=f"s{pk}"))
        held = table.snapshot()["rows"]
        expected = copy.deepcopy(held)
        table.update(eq("s", "s1"), {"n": 9, "doc": {"k": [1]}})
        table.update(eq("id", 3), {"s": "renamed"})
        table.delete(eq("id", 2))
        table.insert(cells_row(4))
        assert held == expected
        now = table.snapshot()["rows"]
        assert now[1] is not held[1] and now[3] is not held[3]
        assert now[1]["doc"] == {"k": [1]} and 2 not in now

    def test_json_cells_are_private_copies(self):
        table = Table(CELLS)
        row = cells_row()
        table.insert(row)
        stored = table.snapshot()["rows"][1]["doc"]
        assert stored == row["doc"] and stored is not row["doc"]
        assert stored[0] is not row["doc"][0]
        for returned in (table.get(1)["doc"], table.select()[0]["doc"]):
            assert returned == stored
            assert returned is not stored and returned[0] is not stored[0]
        changes = {"doc": {"k": [1]}}
        table.update(eq("id", 1), changes)
        stored = table.snapshot()["rows"][1]["doc"]
        assert stored is not changes["doc"]
        assert stored["k"] is not changes["doc"]["k"]

    def test_rollback_restores_the_old_row_objects(self):
        db = Database()
        table = db.create_table(CELLS)
        table.insert(cells_row())
        old = table.snapshot()["rows"][1]
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.update(eq("id", 1), {"doc": {"k": 1}, "n": 0})
                raise RuntimeError("abort")
        assert table.snapshot()["rows"][1] is old
        assert table.select() == [cells_row()]

    def test_snapshot_copies_no_row_and_keeps_its_instant(self):
        table = Table(CELLS)
        table.insert(cells_row(1))
        first = table.snapshot()["rows"]
        second = table.snapshot()["rows"]
        assert first is not second
        assert first[1] is second[1]
        table.insert(cells_row(2))
        table.update(eq("id", 1), {"n": 0})
        assert list(first) == [1] and first[1] == cells_row(1)
