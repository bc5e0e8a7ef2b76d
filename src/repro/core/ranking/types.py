"""The Ranking type: an ordered list of distinct items."""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.common.errors import RankingError


class Ranking:
    """An ordering of items, best first.

    The paper's index function ``π(i, R)`` is :meth:`position` and is
    **1-based** (rank 1 is the top item), matching Section IV-B.

    A ranking built with :meth:`over` also keeps its positions as an
    array over a *basis*, a fixed ranking it permutes. Rankings over one
    basis share their item set by construction, so the array kernel in
    :mod:`repro.core.ranking.distances` stacks their arrays instead of
    looking items up and comparing item sets.
    """

    def __init__(self, items: Iterable[Hashable]) -> None:
        self._items = tuple(items)
        if len(set(self._items)) != len(self._items):
            raise RankingError("ranking contains duplicate items")
        if not self._items:
            raise RankingError("ranking must contain at least one item")
        self._positions: dict[Hashable, int] | None = {
            item: position for position, item in enumerate(self._items, start=1)
        }
        self._basis: Ranking | None = None
        self._order: np.ndarray | None = None
        self._basis_positions: np.ndarray | None = None

    @classmethod
    def over(cls, basis: "Ranking", order: np.ndarray) -> "Ranking":
        """The ranking ``basis[order[0]], basis[order[1]], …``.

        ``order`` must be a permutation of ``range(len(basis))``, such
        as an argsort (anything else raises :class:`RankingError`).
        The result keeps ``order`` and its inverse, the
        1-based positions of the basis items, as read-only int arrays.
        A basis that is itself kept over another one is resolved to
        that one, so every ranking's basis is a plain ranking.
        """
        order = np.array(order, dtype=np.int64)  # a copy: it becomes read-only
        count = len(basis)
        if order.shape != (count,) or order.min() < 0:
            raise RankingError(f"order is not a permutation of {count} items")
        positions = np.zeros(count, dtype=np.int64)
        try:
            positions[order] = np.arange(1, count + 1)
        except IndexError:
            raise RankingError(f"order is not a permutation of {count} items") from None
        if positions.min() == 0:  # a repeated index left an item unplaced
            raise RankingError(f"order is not a permutation of {count} items")
        if basis._basis is not None:
            order = basis._order[order]
            positions = positions[basis._basis_positions - 1]
            basis = basis._basis
        order.flags.writeable = False
        positions.flags.writeable = False
        ranking = cls.__new__(cls)
        ranking._items = tuple(map(basis._items.__getitem__, order.tolist()))
        ranking._positions = None  # built on the first position() call
        ranking._basis = basis
        ranking._order = order
        ranking._basis_positions = positions
        return ranking

    @property
    def items(self) -> tuple[Hashable, ...]:
        return self._items

    def position(self, item: Hashable) -> int:
        """π(item, self): 1-based rank of ``item``."""
        positions = self._positions
        if positions is None:
            positions = {
                item: position for position, item in enumerate(self._items, start=1)
            }
            self._positions = positions
        try:
            return positions[item]
        except KeyError:
            raise RankingError(f"item {item!r} is not in this ranking") from None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Hashable:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ranking) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ranking({list(self._items)!r})"

    def same_items(self, other: "Ranking") -> bool:
        """Whether both rankings order the same item set."""
        if self._basis is not None and self._basis is other._basis:
            return True
        return set(self._items) == set(other.items)

    def require_same_items(self, other: "Ranking") -> None:
        """Raise RankingError unless both rankings share one item set."""
        if not self.same_items(other):
            raise RankingError("rankings are over different item sets")
