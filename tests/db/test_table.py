"""Tests for repro.db.table."""

import pytest

from repro.common.errors import DatabaseError
from repro.db import Column, ColumnType, Schema, Table, eq, gt


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

    def test_insert_many(self):
        table = make_table(auto=True)
        keys = table.insert_many([{"name": "a"}, {"name": "b"}])
        assert keys == [1, 2]

    def test_inserted_row_is_copied(self):
        table = make_table()
        row = {"id": 1, "name": "ann", "age": 5}
        table.insert(row)
        row["name"] = "mutated"
        assert table.get(1)["name"] == "ann"


class TestSelect:
    def make_filled(self):
        table = make_table(auto=True)
        table.insert_many(
            [
                {"name": "ann", "age": 30},
                {"name": "bob", "age": 25},
                {"name": "cat", "age": None},
            ]
        )
        return table

    def test_select_all(self):
        assert len(self.make_filled().select()) == 3

    def test_select_where(self):
        rows = self.make_filled().select(eq("name", "bob"))
        assert [row["age"] for row in rows] == [25]

    def test_order_by_ascending_nulls_last(self):
        rows = self.make_filled().select(order_by="age")
        assert [row["name"] for row in rows] == ["bob", "ann", "cat"]

    def test_order_by_descending_nulls_last(self):
        rows = self.make_filled().select(order_by="age", descending=True)
        assert [row["name"] for row in rows] == ["ann", "bob", "cat"]

    def test_limit(self):
        assert len(self.make_filled().select(limit=2)) == 2

    def test_count(self):
        assert self.make_filled().count(gt("age", 24)) == 2

    def test_count_without_predicate_is_observed(self):
        seen = []
        table = Table(make_table().schema, observer=seen.append)
        table.insert_many([{"id": 1, "name": "ann"}, {"id": 2, "name": "bob"}])
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
        table.insert_many([{"name": "a", "age": 1}, {"name": "b", "age": 2}])
        assert table.update(eq("name", "a"), {"age": 10}) == 1
        assert table.select(eq("name", "a"))[0]["age"] == 10

    def test_update_pk_rejected(self):
        table = make_table(auto=True)
        table.insert({"name": "a"})
        with pytest.raises(DatabaseError):
            table.update(eq("name", "a"), {"id": 99})

    def test_update_respects_unique(self):
        table = make_table(auto=True, unique=["name"])
        table.insert_many([{"name": "a"}, {"name": "b"}])
        with pytest.raises(DatabaseError, match="unique"):
            table.update(eq("name", "b"), {"name": "a"})

    def test_update_to_same_value_allowed(self):
        table = make_table(auto=True, unique=["name"])
        table.insert({"name": "a", "age": 1})
        assert table.update(eq("name", "a"), {"name": "a", "age": 2}) == 1

    def test_delete(self):
        table = make_table(auto=True)
        table.insert_many([{"name": "a"}, {"name": "b"}])
        assert table.delete(eq("name", "a")) == 1
        assert len(table) == 1

    def test_delete_frees_unique_value(self):
        table = make_table(auto=True, unique=["name"])
        table.insert({"name": "a"})
        table.delete(eq("name", "a"))
        table.insert({"name": "a"})  # does not raise


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
