"""The budget partition matroid (paper Theorem 1), checked axiom by axiom.

The feasible schedules — at most ``N^B_k`` (user k, instant) pairs per
user — form a **partition matroid**: the ground set is partitioned by
user and each part has a capacity. Greedy enforces the constraint with
its own per-user ``remaining`` counters, the paper's O(1) independence
oracle; the matroid below states the same constraint on its own so the
axioms behind greedy's 1/2 guarantee can be checked here.
"""

import itertools
from collections.abc import Callable, Collection, Hashable, Iterable

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError


class BudgetPartitionMatroid:
    """Partition matroid: ground elements map to parts with capacities.

    ``part_of`` maps an element to its part key (here: the user index);
    ``capacities`` gives each part's budget. Elements mapping to unknown
    parts are not in the ground set and make any containing set
    dependent.
    """

    def __init__(
        self,
        capacities: dict[Hashable, int],
        part_of: Callable[[Hashable], Hashable],
    ) -> None:
        for part, capacity in capacities.items():
            if capacity < 0:
                raise ValidationError(f"capacity of part {part!r} is negative")
        self.capacities = dict(capacities)
        self.part_of = part_of

    def is_independent(self, subset: Collection[Hashable]) -> bool:
        """Full check: every part within capacity, no duplicates."""
        elements = list(subset)
        if len(set(elements)) != len(elements):
            return False
        counts: dict[Hashable, int] = {}
        for element in elements:
            part = self.part_of(element)
            if part not in self.capacities:
                return False
            counts[part] = counts.get(part, 0) + 1
            if counts[part] > self.capacities[part]:
                return False
        return True

    def counters_for(self, subset: Iterable[Hashable]) -> dict[Hashable, int]:
        """Per-part usage counters for an independent set."""
        counts: dict[Hashable, int] = {part: 0 for part in self.capacities}
        for element in subset:
            counts[self.part_of(element)] += 1
        return counts

    def can_extend(self, counters: dict[Hashable, int], element: Hashable) -> bool:
        """O(1) oracle: can ``element`` join a set with these counters?"""
        part = self.part_of(element)
        if part not in self.capacities:
            return False
        return counters.get(part, 0) < self.capacities[part]

    def rank_upper_bound(self) -> int:
        """The matroid rank is at most the sum of capacities."""
        return sum(self.capacities.values())


def pair_matroid(capacities):
    """Ground elements are (part, index) pairs."""
    return BudgetPartitionMatroid(capacities, part_of=lambda element: element[0])


class TestBasics:
    def test_empty_set_independent(self):
        assert pair_matroid({"a": 1}).is_independent(set())

    def test_capacity_respected(self):
        matroid = pair_matroid({"a": 2})
        assert matroid.is_independent({("a", 1), ("a", 2)})
        assert not matroid.is_independent({("a", 1), ("a", 2), ("a", 3)})

    def test_unknown_part_dependent(self):
        assert not pair_matroid({"a": 1}).is_independent({("zzz", 1)})

    def test_duplicates_dependent(self):
        matroid = pair_matroid({"a": 3})
        assert not matroid.is_independent([("a", 1), ("a", 1)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            pair_matroid({"a": -1})

    def test_constant_time_oracle_matches_full_check(self):
        matroid = pair_matroid({"a": 2, "b": 1})
        current = {("a", 1), ("b", 1)}
        counters = matroid.counters_for(current)
        for element in [("a", 2), ("b", 2), ("c", 1)]:
            assert matroid.can_extend(counters, element) == matroid.is_independent(
                current | {element}
            )

    def test_rank_upper_bound(self):
        assert pair_matroid({"a": 2, "b": 3}).rank_upper_bound() == 5


# Hypothesis strategy for small matroid instances.
capacity_maps = st.dictionaries(
    st.sampled_from("abc"), st.integers(0, 3), min_size=1, max_size=3
)


def all_elements(capacities):
    return [
        (part, index) for part in capacities for index in range(4)
    ]


@settings(max_examples=60)
@given(capacities=capacity_maps, seed=st.integers(0, 10_000))
def test_matroid_axioms(capacities, seed):
    """Hereditary property + exchange axiom on exhaustive small subsets."""
    import random

    matroid = pair_matroid(capacities)
    universe = all_elements(capacities)
    rnd = random.Random(seed)
    sample = rnd.sample(universe, min(len(universe), 6))

    independents = [
        frozenset(subset)
        for size in range(len(sample) + 1)
        for subset in itertools.combinations(sample, size)
        if matroid.is_independent(subset)
    ]
    # Axiom 1: empty set independent.
    assert frozenset() in independents
    # Axiom 2 (hereditary): subsets of independent sets are independent.
    for independent in independents:
        for element in independent:
            assert frozenset(independent - {element}) in independents
    # Axiom 3 (exchange): |X| > |Y| ⇒ ∃x ∈ X \ Y with Y + x independent.
    for bigger in independents:
        for smaller in independents:
            if len(bigger) > len(smaller):
                assert any(
                    matroid.is_independent(smaller | {element})
                    for element in bigger - smaller
                ), (bigger, smaller)
