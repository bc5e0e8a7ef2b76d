"""Multi-feature coverage: one schedule serving several kernels.

The paper assigns "a large σ … for those sensing features whose readings
do not change drastically over time (such as temperature, humidity) …
a small σ … for those whose readings may change quickly (such as
acceleration, orientation)" — but its formulation optimizes a single
kernel per application. When one application senses several features in
the same burst (as SOR's scripts do), the natural objective is the
weighted sum of per-feature coverages:

    f(Ψ) = Σ_f w_f · Σ_j p_f(t_j, Ψ)

Each term is monotone submodular, and non-negative weighted sums of
monotone submodular functions are monotone submodular, so the greedy
1/2-approximation carries over unchanged. This module provides that
objective with the same incremental interface as
:class:`~repro.core.scheduling.objective.CoverageObjective`, plus a
scheduler wrapper that runs the pooled greedy's exact loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.core.scheduling.coverage import CoverageKernel
from repro.core.scheduling.greedy import GreedyScheduler
from repro.core.scheduling.objective import CoverageObjective
from repro.core.scheduling.problem import Schedule, SchedulingPeriod, SchedulingProblem
from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class FeatureKernel:
    """One sensed feature's kernel and its importance weight."""

    name: str
    kernel: CoverageKernel
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("feature name is required")
        if self.weight < 0:
            raise ValidationError("feature weight must be non-negative")


class MultiKernelObjective:
    """Weighted sum of per-feature coverage objectives."""

    def __init__(
        self, period: SchedulingPeriod, features: list[FeatureKernel]
    ) -> None:
        if not features:
            raise ValidationError("need at least one feature kernel")
        names = [feature.name for feature in features]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate feature names")
        self.period = period
        self.features = list(features)
        self._objectives = [
            CoverageObjective(period, feature.kernel) for feature in features
        ]

    @property
    def chosen(self) -> frozenset[int]:
        return self._objectives[0].chosen

    def value(self) -> float:
        """Current blended objective value."""
        return sum(
            feature.weight * objective.value()
            for feature, objective in zip(self.features, self._objectives)
        )

    def per_feature_coverage(self) -> dict[str, float]:
        """Average coverage each feature ends up with."""
        return {
            feature.name: objective.average_coverage()
            for feature, objective in zip(self.features, self._objectives)
        }

    def gain(self, instant_index: int) -> float:
        """Weighted marginal gain of adding ``instant_index``."""
        return sum(
            feature.weight * objective.gain(instant_index)
            for feature, objective in zip(self.features, self._objectives)
        )

    @property
    def current_gains(self) -> np.ndarray:
        """Weighted marginal gains of every instant (a fresh array)."""
        total = np.zeros(self.period.num_instants)
        for feature, objective in zip(self.features, self._objectives):
            if feature.weight > 0:
                total += feature.weight * objective.current_gains
        return total

    def add(self, instant_index: int) -> float:
        """Add an instant to every feature objective; returns its gain."""
        gain = self.gain(instant_index)
        for objective in self._objectives:
            objective.add(instant_index)
        return gain


class MultiKernelGreedyScheduler:
    """Greedy over the blended objective (same matroid constraint)."""

    def __init__(
        self, features: list[FeatureKernel], *, min_gain: float = 1e-12
    ) -> None:
        if not features:
            raise ValidationError("need at least one feature kernel")
        self.features = list(features)
        self.min_gain = min_gain

    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Schedule ``problem``'s users against the blended objective.

        ``problem.kernel`` is ignored — coverage comes from the feature
        kernels this scheduler was built with. The picks and user
        assignment are :class:`GreedyScheduler`'s exact loop; its
        metrics go to a private registry so the blended value never
        lands on the single-kernel coverage gauge.
        """
        objective = MultiKernelObjective(problem.period, self.features)
        greedy = GreedyScheduler(min_gain=self.min_gain, metrics=MetricsRegistry())
        schedule = greedy._solve(problem, objective)
        self.last_per_feature_coverage = objective.per_feature_coverage()
        return schedule
