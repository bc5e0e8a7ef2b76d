"""The tail-percentile rule: at least ten samples beyond, count reported."""

from __future__ import annotations

import pytest

from sorbench import stats


@pytest.mark.parametrize(
    ("count", "expected"),
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_picks_the_highest_percentile_with_ten_beyond(count, expected):
    result = stats.tail([float(i) for i in range(count)])
    assert result is not None
    assert result.percentile == expected
    assert result.count == count
    assert result.beyond >= stats.MIN_BEYOND
    # The next rung up would leave fewer than ten samples beyond it.
    higher = [p for p in stats.TAIL_LADDER if p > expected]
    if higher:
        assert stats.samples_beyond(count, min(higher)) < stats.MIN_BEYOND


def test_tail_value_is_the_nearest_rank_sample():
    values = list(range(1000, 0, -1))  # unsorted input
    result = stats.tail(values)
    assert result.percentile == 99.0
    assert result.value == 990
    assert result.beyond == 10


def test_too_few_samples_report_no_tail():
    assert stats.tail([1.0] * 19) is None
    assert not stats.supports(999, 99.0)
    assert stats.supports(1000, 99.0)


def test_groups_keep_whole_chunks_in_order_and_fold_a_short_remainder_in():
    chunks = [[float(i)] * size for i, size in enumerate((600, 600, 1000, 300))]
    groups = stats.grouped(chunks)
    assert [len(group) for group in groups] == [1200, 1300]
    assert [v for group in groups for v in group] == [v for chunk in chunks for v in chunk]
    assert all(stats.supports(len(group), 99) for group in groups)
    assert [len(group) for group in stats.grouped([[1.0] * 400])] == [400]


def test_a_slow_spell_moves_its_own_group_not_the_median_over_groups():
    quiet = [[1.0] * 990 + [2.0] * 10 for _ in range(4)]
    spell = [[5.0] * 1000]
    assert stats.percentile(sorted(v for g in quiet + spell for v in g), 99) == 5.0
    assert stats.median_percentile(quiet + spell, 99) == 1.0
    slower = [[2 * v for v in group] for group in quiet + spell]
    assert stats.median_percentile(slower, 99) == 2.0


def test_empty_layers_read_zero():
    assert stats.quantile_or_zero([], 99) == 0.0
    assert stats.mean_or_zero([]) == 0.0
    assert stats.ratio(3, 0) == 0.0
