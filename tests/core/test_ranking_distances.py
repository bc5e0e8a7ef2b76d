"""Tests for ranking distances (Kemeny, footrule, weighted variants)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import RankingError
from repro.core.ranking import (
    Ranking,
    aggregate_footrule,
    footrule_distance,
    kemeny_distance,
    weighted_footrule_distance,
    weighted_kemeny_distance,
)

ITEMS = tuple("ABCDE")
permutations = st.permutations(ITEMS).map(Ranking)


class TestPaperExample:
    def test_kemeny_worked_example(self):
        """The paper's Section IV-B example: d_K(ABC, BCA) = 2."""
        assert kemeny_distance(Ranking("ABC"), Ranking("BCA")) == 2

    def test_footrule_of_example(self):
        # A: |1-3|=2, B: |2-1|=1, C: |3-2|=1 → 4
        assert footrule_distance(Ranking("ABC"), Ranking("BCA")) == 4


class TestMetricProperties:
    @given(ranking=permutations)
    def test_identity(self, ranking):
        assert kemeny_distance(ranking, ranking) == 0
        assert footrule_distance(ranking, ranking) == 0

    @given(first=permutations, second=permutations)
    def test_symmetry(self, first, second):
        assert kemeny_distance(first, second) == kemeny_distance(second, first)
        assert footrule_distance(first, second) == footrule_distance(second, first)

    @given(first=permutations, second=permutations, third=permutations)
    def test_triangle_inequality(self, first, second, third):
        assert kemeny_distance(first, third) <= (
            kemeny_distance(first, second) + kemeny_distance(second, third)
        )
        assert footrule_distance(first, third) <= (
            footrule_distance(first, second) + footrule_distance(second, third)
        )

    @given(first=permutations, second=permutations)
    def test_diaconis_graham_bounds(self, first, second):
        """Equation (10): d_K ≤ d_f ≤ 2·d_K."""
        kemeny = kemeny_distance(first, second)
        footrule = footrule_distance(first, second)
        assert kemeny <= footrule <= 2 * kemeny

    @given(first=permutations, second=permutations)
    def test_kemeny_bounded_by_pairs(self, first, second):
        pairs = len(ITEMS) * (len(ITEMS) - 1) // 2
        assert 0 <= kemeny_distance(first, second) <= pairs

    def test_reversal_maximizes_kemeny(self):
        forward = Ranking(ITEMS)
        backward = Ranking(reversed(ITEMS))
        assert kemeny_distance(forward, backward) == 10  # C(5,2)


class TestWeightedVariants:
    def test_weighted_kemeny_linear_in_weights(self):
        target = Ranking("ABC")
        collection = [Ranking("ABC"), Ranking("BCA")]
        assert weighted_kemeny_distance(target, collection, [1, 0]) == 0
        assert weighted_kemeny_distance(target, collection, [0, 1]) == 2
        assert weighted_kemeny_distance(target, collection, [3, 2]) == 4

    def test_weighted_footrule(self):
        target = Ranking("ABC")
        collection = [Ranking("BCA")]
        assert weighted_footrule_distance(target, collection, [2]) == 8

    def test_mismatched_weights_rejected(self):
        with pytest.raises(RankingError):
            weighted_kemeny_distance(Ranking("AB"), [Ranking("AB")], [1, 2])

    def test_negative_weights_rejected(self):
        with pytest.raises(RankingError):
            weighted_kemeny_distance(Ranking("AB"), [Ranking("AB")], [-1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "distance", [weighted_kemeny_distance, weighted_footrule_distance]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, distance, bad):
        collection = [Ranking("AB"), Ranking("BA")]
        with pytest.raises(RankingError, match="weights must be finite"):
            distance(Ranking("AB"), collection, [1, bad])


class TestRankingType:
    def test_positions_one_based(self):
        ranking = Ranking("BAC")
        assert ranking.position("B") == 1
        assert ranking.position("C") == 3

    def test_duplicates_rejected(self):
        with pytest.raises(RankingError):
            Ranking("AA")

    def test_empty_rejected(self):
        with pytest.raises(RankingError):
            Ranking([])

    def test_unknown_item_rejected(self):
        with pytest.raises(RankingError):
            Ranking("AB").position("Z")

    def test_different_item_sets_rejected(self):
        with pytest.raises(RankingError):
            kemeny_distance(Ranking("AB"), Ranking("AC"))

    def test_equality_and_hash(self):
        assert Ranking("AB") == Ranking(["A", "B"])
        assert hash(Ranking("AB")) == hash(Ranking("AB"))
        assert Ranking("AB") != Ranking("BA")


class TestKeptOverABasis:
    """``Ranking.over`` keeps positions over a basis; the kernel stacks
    them, and answers exactly as it does for rankings looked up item by
    item."""

    def test_items_and_positions(self):
        basis = Ranking("ABCD")
        order = np.array([2, 0, 3, 1])
        ranking = Ranking.over(basis, order)
        order[0] = 0  # the caller's array stays the caller's
        assert ranking.items == tuple("CADB")
        assert [ranking.position(item) for item in "ABCD"] == [2, 4, 1, 3]
        assert ranking._basis_positions.tolist() == [2, 4, 1, 3]
        assert ranking == Ranking("CADB")
        with pytest.raises(ValueError, match="read-only"):
            ranking._order[0] = 1

    def test_a_basis_kept_over_another_resolves_to_it(self):
        basis = Ranking("ABCD")
        middle = Ranking.over(basis, np.array([3, 2, 1, 0]))
        ranking = Ranking.over(middle, np.array([1, 0, 2, 3]))
        assert ranking.items == tuple("CDBA")
        assert ranking._basis is basis
        assert ranking._basis_positions.tolist() == [
            ranking.position(item) for item in basis.items
        ]
        assert ranking.same_items(middle)

    @pytest.mark.parametrize(
        "order", [[0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1], [[0, 1, 2]]]
    )
    def test_an_order_that_is_not_a_permutation_is_rejected(self, order):
        with pytest.raises(RankingError, match="not a permutation"):
            Ranking.over(Ranking("ABC"), np.array(order))

    def test_another_basis_is_looked_up_and_checked(self):
        first = Ranking.over(Ranking("ABC"), np.array([2, 1, 0]))
        other = Ranking.over(Ranking("ABD"), np.array([0, 1, 2]))
        with pytest.raises(RankingError, match="different item sets"):
            weighted_footrule_distance(first, [other], [1])
        assert weighted_footrule_distance(first, [Ranking("ABC")], [1]) == 4

    @pytest.mark.parametrize(
        "distance", [weighted_kemeny_distance, weighted_footrule_distance]
    )
    def test_no_rankings_is_distance_zero(self, distance):
        plain = Ranking("ABC")
        kept = Ranking.over(plain, np.array([1, 0, 2]))
        assert distance(plain, [], []) == 0
        assert distance(kept, [], []) == 0

    @given(
        orders=st.lists(st.permutations(range(6)), min_size=1, max_size=4),
        target=st.permutations(range(6)),
        weights=st.lists(st.integers(0, 5), min_size=4, max_size=4),
    )
    def test_kept_and_looked_up_rankings_agree(self, orders, target, weights):
        basis = Ranking(f"place-{index}" for index in range(6))
        kept = [Ranking.over(basis, np.array(order)) for order in orders]
        plain = [Ranking(ranking.items) for ranking in kept]
        weights = weights[: len(kept)]
        kept_target = Ranking.over(basis, np.array(target))
        plain_target = Ranking(kept_target.items)
        for distance in (weighted_kemeny_distance, weighted_footrule_distance):
            expected = distance(plain_target, plain, weights)
            value = distance(kept_target, kept, weights)
            assert value == expected and type(value) is type(expected)
        assert aggregate_footrule(kept, weights) == aggregate_footrule(plain, weights)
