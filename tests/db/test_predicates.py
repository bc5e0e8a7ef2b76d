"""Tests for repro.db.predicates."""

from repro.db import Predicate, and_, eq

ROW = {"a": 5, "b": "x", "c": None}


class TestComparisons:
    def test_eq(self):
        assert eq("a", 5)(ROW)
        assert not eq("a", 6)(ROW)

    def test_eq_has_index_hint(self):
        assert eq("a", 5).index_hint == ("a", 5)

    def test_missing_column_behaves_as_null(self):
        assert not eq("zz", 1)(ROW)
        assert eq("zz", None)(ROW)


class TestCombinators:
    def test_and(self):
        assert and_(eq("a", 5), eq("b", "x"))(ROW)
        assert not and_(eq("a", 5), eq("b", "z"))(ROW)

    def test_and_propagates_first_index_hint(self):
        positive = Predicate("a > 0", lambda row: row["a"] > 0)
        combined = and_(positive, eq("b", "x"))
        assert combined.index_hint == ("b", "x")

    def test_nested_composition(self):
        predicate = and_(and_(eq("a", 5), eq("c", None)), eq("b", "x"))
        assert predicate(ROW)
        assert predicate.index_hint == ("a", 5)
        assert not and_(eq("b", "x"), and_(eq("a", 5), eq("c", 0)))(ROW)
