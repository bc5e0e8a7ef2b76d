"""Order statistics with the benchmark's tail rule.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, one stray sample would be the
percentile. :func:`tail` picks the highest percentile of
:data:`TAIL_LADDER` that the sample count supports, and every reported
percentile carries its sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles tried by :func:`tail`, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank_of(count: int, percentile: float) -> int:
    """1-based nearest-rank index of ``percentile`` among ``count`` samples."""
    # The epsilon keeps e.g. 99.9 % of 10000 at rank 9990 despite the
    # binary rounding of 99.9.
    return max(1, math.ceil(percentile * count / 100.0 - 1e-9))


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - rank_of(count, percentile)


def supports(count: int, percentile: float) -> bool:
    """Whether ``count`` samples leave :data:`MIN_BEYOND` beyond it."""
    return count > 0 and samples_beyond(count, percentile) >= MIN_BEYOND


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[rank_of(len(sorted_values), pct) - 1]


@dataclass(frozen=True)
class Tail:
    """The highest supported tail percentile of one sample set."""

    percentile: float
    value: float
    beyond: int
    count: int


def tail(values: Sequence[float]) -> Tail | None:
    """The highest :data:`TAIL_LADDER` percentile the samples support.

    ``None`` when even the median lacks :data:`MIN_BEYOND` samples
    beyond it (fewer than 20 samples).
    """
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if supports(len(ordered), pct):
            return Tail(
                pct,
                percentile(ordered, pct),
                samples_beyond(len(ordered), pct),
                len(ordered),
            )
    return None


#: Samples a latency group needs for its p99 to leave MIN_BEYOND beyond.
GROUP_SAMPLES = 1000


def grouped(chunks: Iterable[Sequence[float]]) -> list[list[float]]:
    """Consecutive chunks merged into groups of at least :data:`GROUP_SAMPLES`.

    A short remainder joins the last group, so every group is that large
    whenever the chunks hold that many samples in all.
    """
    groups: list[list[float]] = []
    current: list[float] = []
    for chunk in chunks:
        current.extend(chunk)
        if len(current) >= GROUP_SAMPLES:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def median_percentile(groups: Sequence[Sequence[float]], pct: float) -> float:
    """Median over groups of each group's nearest-rank percentile."""
    return statistics.median(percentile(sorted(group), pct) for group in groups)


def quantile_or_zero(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, or 0.0 for a layer that saw no samples."""
    if not values:
        return 0.0
    return percentile(sorted(values), pct)


def median_or_zero(values: Sequence[float]) -> float:
    """Median, or 0.0 for an empty sample set."""
    return statistics.median(values) if values else 0.0


def mean_or_zero(values: Sequence[float]) -> float:
    """Arithmetic mean, or 0.0 for an empty sample set."""
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
