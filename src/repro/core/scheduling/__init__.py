"""Sensing-coverage scheduling (paper Section III).

The problem: a scheduling period ``[tS, tE]`` is divided into ``N``
equally spaced time instants. Each participating mobile user ``k`` is
present during ``[tS_k, tE_k]`` and willing to sense at most ``N^B_k``
times. A measurement taken at instant ``t_i`` covers instant ``t_j``
with probability ``p(t_i, t_j)`` given by a bell-shaped kernel; a set of
measurements covers ``t_j`` with ``1 - Π(1 - p(t_i, t_j))``. Choose who
senses when so total coverage ``Σ_j p(t_j, Ψ)`` is maximized.

The feasible sets form a partition matroid over (user, instant) pairs
(each user contributes at most their budget), the objective is monotone
submodular, and the greedy algorithm is a 1/2-approximation
[Fisher–Nemhauser–Wolsey via Gargano–Hammar, the paper's ref 10].

A faithfulness note: the paper states the matroid over subsets of the
instant set ``T`` directly (its Λ), which is only a matroid when user
windows do not overlap; over (user, instant) pairs the budget constraint
is a genuine partition matroid for any windows, and the paper's greedy
Algorithm 1 is exactly greedy on that ground set (picking a time instant
implicitly picks a user with remaining budget to take it). We implement
the pair ground set and expose the instant-set view through
:class:`Schedule`.
"""

from repro.core.scheduling.baseline import PeriodicBaselineScheduler
from repro.core.scheduling.coverage import (
    CoverageKernel,
    ExponentialKernel,
    GaussianKernel,
    TriangularKernel,
    validate_kernel_weights,
)
from repro.core.scheduling.evaluate import average_coverage
from repro.core.scheduling.greedy import (
    GREEDY_MODES,
    GreedyScheduler,
    argmax_tied_low,
    greedy_window,
    stochastic_sample_size,
)
from repro.core.scheduling.multikernel import (
    FeatureKernel,
    MultiKernelGreedyScheduler,
    MultiKernelObjective,
)
from repro.core.scheduling.objective import CoverageObjective, coverage_of_instants
from repro.core.scheduling.peruser import PerUserGreedyScheduler, per_user_sum_value
from repro.core.scheduling.problem import (
    MobileUser,
    Schedule,
    SchedulingPeriod,
    SchedulingProblem,
)

__all__ = [
    "GREEDY_MODES",
    "CoverageKernel",
    "CoverageObjective",
    "ExponentialKernel",
    "FeatureKernel",
    "GaussianKernel",
    "GreedyScheduler",
    "MobileUser",
    "MultiKernelGreedyScheduler",
    "MultiKernelObjective",
    "PerUserGreedyScheduler",
    "PeriodicBaselineScheduler",
    "Schedule",
    "SchedulingPeriod",
    "SchedulingProblem",
    "TriangularKernel",
    "argmax_tied_low",
    "average_coverage",
    "coverage_of_instants",
    "greedy_window",
    "per_user_sum_value",
    "stochastic_sample_size",
    "validate_kernel_weights",
]
