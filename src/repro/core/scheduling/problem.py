"""Problem and solution data types for sensing scheduling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import SchedulingError, ValidationError
from repro.common.validation import require, require_non_empty, require_positive
from repro.core.scheduling.coverage import CoverageKernel, GaussianKernel


@dataclass(frozen=True)
class SchedulingPeriod:
    """The period ``[start, end]`` divided into ``num_instants`` instants.

    Instants are placed at ``start + i·spacing`` for ``i = 0..N-1`` with
    ``spacing = (end - start) / num_instants`` — the paper's 3-hour
    period with 1080 instants yields the 10 s spacing its simulation
    uses.
    """

    start: float
    end: float
    num_instants: int

    def __post_init__(self) -> None:
        require(
            math.isfinite(self.start) and math.isfinite(self.end),
            "period start and end must be finite",
        )
        require(self.end > self.start, "period end must be after start")
        require_positive(self.num_instants, "num_instants")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def spacing(self) -> float:
        return self.duration / self.num_instants

    def instants(self) -> np.ndarray:
        """The instant timestamps as a float array of length N."""
        return self.start + np.arange(self.num_instants) * self.spacing

    def instant_time(self, index: int) -> float:
        """Timestamp of instant ``index``."""
        if not 0 <= index < self.num_instants:
            raise ValidationError(f"instant index {index} out of range")
        return self.start + index * self.spacing

    def nearest_instant(self, timestamp: float) -> int:
        """Index of the instant closest to ``timestamp`` (clamped)."""
        raw = round((timestamp - self.start) / self.spacing)
        return int(min(max(raw, 0), self.num_instants - 1))

    def window_indices(self, window_start: float, window_end: float) -> tuple[int, int]:
        """Half-open instant index range ``[lo, hi)`` inside a time window."""
        if window_end < window_start:
            raise ValidationError("window end before start")
        lo = int(np.ceil((max(window_start, self.start) - self.start) / self.spacing))
        hi = int(np.floor((min(window_end, self.end) - self.start) / self.spacing)) + 1
        lo = max(lo, 0)
        hi = min(hi, self.num_instants)
        return lo, max(hi, lo)


@dataclass(frozen=True)
class MobileUser:
    """A participating mobile user: presence window plus sensing budget."""

    user_id: str
    arrival: float
    departure: float
    budget: int

    def __post_init__(self) -> None:
        require_non_empty(self.user_id, "user_id")
        require(self.departure >= self.arrival, "departure before arrival")
        require(self.budget >= 0, "budget must be non-negative")


class SchedulingProblem:
    """A full scheduling instance: period, users and coverage kernel."""

    def __init__(
        self,
        period: SchedulingPeriod,
        users: list[MobileUser],
        kernel: CoverageKernel | None = None,
    ) -> None:
        require_non_empty(users, "users")
        ids = [user.user_id for user in users]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate user ids in scheduling problem")
        self.period = period
        self.users = list(users)
        self.kernel = kernel if kernel is not None else GaussianKernel(sigma=10.0)
        self._windows = [
            period.window_indices(user.arrival, user.departure) for user in users
        ]

    def user_window(self, user_index: int) -> tuple[int, int]:
        """Half-open instant index range user ``user_index`` can sense in."""
        return self._windows[user_index]

    def user_can_sense_at(self, user_index: int, instant_index: int) -> bool:
        """Whether the user's presence window contains the instant."""
        lo, hi = self._windows[user_index]
        return lo <= instant_index < hi

    def total_budget(self) -> int:
        """Sum of every user's sensing budget."""
        return sum(user.budget for user in self.users)

    def ground_set(self) -> list[tuple[int, int]]:
        """All feasible (user_index, instant_index) pairs."""
        pairs = []
        for user_index, (lo, hi) in enumerate(self._windows):
            pairs.extend(
                (user_index, instant_index) for instant_index in range(lo, hi)
            )
        return pairs


@dataclass
class Schedule:
    """A solution: who senses at which instants.

    ``assignments`` maps user_id → sorted instant indices. The pooled
    instant set (the paper's Ψ) and objective value are derived fields
    filled by the scheduler.
    """

    problem: SchedulingProblem
    assignments: dict[str, list[int]] = field(default_factory=dict)
    objective_value: float = 0.0

    @property
    def pooled_instants(self) -> list[int]:
        """The union Ψ of all users' scheduled instants, sorted."""
        pooled: set[int] = set()
        for indices in self.assignments.values():
            pooled.update(indices)
        return sorted(pooled)

    @property
    def average_coverage(self) -> float:
        """Objective divided by N — the paper's headline metric."""
        return self.objective_value / self.problem.period.num_instants

    def times_for(self, user_id: str) -> list[float]:
        """The actual timestamps user ``user_id`` should sense at."""
        return [
            self.problem.period.instant_time(index)
            for index in self.assignments.get(user_id, [])
        ]

    def validate(self) -> None:
        """Check budget and window feasibility; raises on violation."""
        by_id = {user.user_id: index for index, user in enumerate(self.problem.users)}
        for user_id, indices in self.assignments.items():
            if user_id not in by_id:
                raise SchedulingError(f"schedule references unknown user {user_id!r}")
            user_index = by_id[user_id]
            user = self.problem.users[user_index]
            if len(indices) > user.budget:
                raise SchedulingError(
                    f"user {user_id!r} scheduled {len(indices)} times, "
                    f"budget {user.budget}"
                )
            if len(set(indices)) != len(indices):
                raise SchedulingError(f"user {user_id!r} has duplicate instants")
            for instant_index in indices:
                if not self.problem.user_can_sense_at(user_index, instant_index):
                    raise SchedulingError(
                        f"user {user_id!r} scheduled outside presence window "
                        f"(instant {instant_index})"
                    )
