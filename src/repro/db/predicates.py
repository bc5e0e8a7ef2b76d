"""Predicates for WHERE clauses: equality and conjunction.

Predicates are callables over row dictionaries plus enough structure for
the table to recognize equality predicates it can serve from a hash
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

RowPredicate = Callable[[dict[str, Any]], bool]


@dataclass(frozen=True)
class Predicate:
    """A named predicate over rows.

    ``index_hint`` is ``(column, value)`` when the predicate is a plain
    equality that a hash index can answer, otherwise ``None``.
    """

    description: str
    test: RowPredicate
    index_hint: tuple[str, Any] | None = None

    def __call__(self, row: dict[str, Any]) -> bool:
        return self.test(row)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Predicate({self.description})"


def eq(column: str, value: Any) -> Predicate:
    """``column == value`` (indexable)."""
    return Predicate(
        description=f"{column} == {value!r}",
        test=lambda row: row.get(column) == value,
        index_hint=(column, value),
    )


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction; inherits the first index hint among its children."""
    hint = next((p.index_hint for p in predicates if p.index_hint), None)
    return Predicate(
        description=" and ".join(f"({p.description})" for p in predicates),
        test=lambda row: all(p(row) for p in predicates),
        index_hint=hint,
    )
