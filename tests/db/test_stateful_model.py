"""Model-based stateful testing of the mini database.

A hypothesis rule-based state machine drives random sequences of
inserts, updates, deletes, index creations and aborted transactions
against both the real Table/Database and a trivial in-memory model
(a dict of rows); after every step the two must agree exactly.

The table has a JSON column (a list of tags, default ``[]``), and the
machine mutates in place both the lists it passes in and the rows and
cells it gets back: by the table's copy rule none of that may reach
stored state.
"""

from __future__ import annotations


from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db import Column, ColumnType, Database, Schema, eq

KEYS = ["alpha", "beta", "gamma", "delta"]
TAGS = st.lists(st.sampled_from(["red", "green", "blue"]), max_size=3)


def fresh_database() -> Database:
    db = Database()
    db.create_table(
        Schema(
            name="t",
            columns=(
                Column("id", ColumnType.INT, nullable=False, auto_increment=True),
                Column("key", ColumnType.TEXT, nullable=False),
                Column("score", ColumnType.INT),
                Column("tags", ColumnType.JSON, default=[]),
            ),
            primary_key="id",
        )
    )
    return db


class DatabaseMachine(RuleBasedStateMachine):
    """Real DB vs dict-of-rows model, op by op."""

    def __init__(self) -> None:
        super().__init__()
        self.db = fresh_database()
        self.model: dict[int, dict] = {}
        self.next_id = 1

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    @rule(key=st.sampled_from(KEYS), score=st.integers(-5, 5), tags=TAGS)
    def insert(self, key: str, score: int, tags: list[str]) -> None:
        pk = self.db.table("t").insert({"key": key, "score": score, "tags": tags})
        assert pk == self.next_id
        self.model[pk] = {"id": pk, "key": key, "score": score, "tags": list(tags)}
        self.next_id += 1
        tags.append("caller-mutated")

    @rule(key=st.sampled_from(KEYS), score=st.integers(-5, 5))
    def update_by_key(self, key: str, score: int) -> None:
        updated = self.db.table("t").update(eq("key", key), {"score": score})
        expected = [pk for pk, row in self.model.items() if row["key"] == key]
        assert updated == len(expected)
        for pk in expected:
            self.model[pk]["score"] = score

    @rule(key=st.sampled_from(KEYS), tags=TAGS)
    def update_tags_by_key(self, key: str, tags: list[str]) -> None:
        updated = self.db.table("t").update(eq("key", key), {"tags": tags})
        expected = [pk for pk, row in self.model.items() if row["key"] == key]
        assert updated == len(expected)
        for pk in expected:
            self.model[pk]["tags"] = list(tags)
        tags.append("caller-mutated")

    @rule(key=st.sampled_from(KEYS), pk=st.integers(1, 12))
    def mutate_returned_rows(self, key: str, pk: int) -> None:
        """Rows and cells from ``select`` and ``get`` are the caller's own."""
        table = self.db.table("t")
        rows = table.select(eq("key", key))
        row = table.get(pk)
        assert (row is None) == (pk not in self.model)
        if row is not None:
            rows.append(row)
        for row in rows:
            row["tags"].append("result-mutated")
            row["tags"].sort()
            row["score"] = 99
            row["key"] = "mutated"
            del row["id"]

    @rule(key=st.sampled_from(KEYS))
    def delete_by_key(self, key: str) -> None:
        deleted = self.db.table("t").delete(eq("key", key))
        expected = [pk for pk, row in self.model.items() if row["key"] == key]
        assert deleted == len(expected)
        for pk in expected:
            del self.model[pk]

    @rule()
    def create_index(self) -> None:
        self.db.table("t").create_index("key")

    @rule(key=st.sampled_from(KEYS), score=st.integers(-5, 5))
    def aborted_transaction(self, key: str, score: int) -> None:
        """Writes inside an aborted transaction must vanish entirely."""
        try:
            with self.db.transaction():
                self.db.table("t").insert({"key": key, "score": score})
                self.db.table("t").delete(eq("key", key))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        # Model unchanged; auto-counter also rolled back, so next_id holds.

    @rule(key=st.sampled_from(KEYS), score=st.integers(-5, 5))
    def committed_transaction(self, key: str, score: int) -> None:
        with self.db.transaction():
            pk = self.db.table("t").insert({"key": key, "score": score})
        self.model[pk] = {"id": pk, "key": key, "score": score, "tags": []}
        self.next_id = pk + 1

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def tables_agree(self) -> None:
        real = {row["id"]: row for row in self.db.table("t").select()}
        assert real == self.model

    @invariant()
    def key_queries_agree(self) -> None:
        for key in KEYS:
            real = sorted(
                row["id"] for row in self.db.table("t").select(eq("key", key))
            )
            expected = sorted(
                pk for pk, row in self.model.items() if row["key"] == key
            )
            assert real == expected

    @invariant()
    def counts_agree(self) -> None:
        assert self.db.table("t").count() == len(self.model)


TestDatabaseStateful = DatabaseMachine.TestCase
TestDatabaseStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
