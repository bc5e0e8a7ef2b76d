"""The online Sensing Scheduler service.

"For each application, the Sensing Scheduler applies an online algorithm
to calculate a sensing schedule (that specifies when to sense for each
participating user) for a scheduling period based on runtime
participation information."

Online operation: participants arrive one at a time (a barcode scan).
The service keeps, per application, the incremental coverage objective
over everything already scheduled; a new participant's budget is spent
greedily on the instants with maximum marginal coverage inside their
remaining presence window. This is exactly the paper's greedy restricted
to the elements that are still selectable, and inherits its guarantee
for the instants scheduled so far.

Each application's state is independent of every other's, so each has
its own lock (:meth:`SensingSchedulerService.lock_for`). The server
holds it around a PARTICIPATE's picks and commit, outside its
server-wide request lock, so participants of different applications are
scheduled at the same time. :meth:`SensingSchedulerService.schedule_task`
makes the picks; under the same hold of that lock the server then either
records them on their task and, once that commits, counts them
(:meth:`~SensingSchedulerService.count`), or takes them back with the
undo log on the :class:`TaskSchedule`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import NamedTuple

import numpy as np

from repro.common.clock import Clock
from repro.common.errors import SchedulingError
from repro.core.scheduling import (
    CoverageObjective,
    GaussianKernel,
    SchedulingPeriod,
    greedy_window,
)
from repro.core.scheduling.objective import UndoLog
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.server.app_manager import Application
from repro.server.participation import ParticipationManager

#: Online picks must gain strictly more than 1e-12 coverage;
#: :func:`greedy_window` keeps gains at or above its ``min_gain``, so the
#: threshold passed is the next float up.
ONLINE_MIN_GAIN = float(np.nextafter(1e-12, np.inf))


class _AppSchedulerState:
    """Per-application incremental coverage state."""

    def __init__(self, application: Application) -> None:
        self.period = SchedulingPeriod(
            application.period_start,
            application.period_end,
            application.num_instants,
        )
        self.kernel = GaussianKernel(sigma=application.coverage_sigma_s)
        self.objective = CoverageObjective(self.period, self.kernel)
        # Serializes every pick on, and restore of, this objective.
        self.lock = threading.Lock()

    def schedule_user(
        self, *, from_time: float, until_time: float, budget: int
    ) -> tuple[list[int], int, UndoLog]:
        """Greedily pick up to ``budget`` instants in the user's window.

        Returns the chosen instants, the number of candidate instants
        whose marginal gain was read (the service reports it): the whole
        window once per pick, plus once for the read that found nothing
        left worth picking; and the log that can undo the picks.
        """
        lo, hi = self.period.window_indices(
            max(from_time, self.period.start), min(until_time, self.period.end)
        )
        with UndoLog(self.objective) as undo:
            picks = greedy_window(self.objective, lo, hi, budget, ONLINE_MIN_GAIN)
        return sorted(picks), (hi - lo) * min(budget, len(picks) + 1), undo

    @property
    def average_coverage(self) -> float:
        return self.objective.average_coverage()


class TaskSchedule(NamedTuple):
    """One participant's picks, made on the objective and not yet recorded.

    ``times`` are the sensing times; ``evaluated`` counts the candidate
    gains read and ``coverage`` is the application's average coverage
    with the picks in. ``undo.restore()`` takes the picks back off the
    objective, bitwise, in O(window) per pick; it must run under the
    application's lock, before any other pick on it.
    """

    app_id: str
    times: list[float]
    evaluated: int
    coverage: float
    undo: UndoLog


class SensingSchedulerService:
    """Schedules each participation request as it arrives."""

    def __init__(
        self,
        participation: ParticipationManager,
        clock: Clock,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.participation = participation
        self.clock = clock
        self._states: dict[str, _AppSchedulerState] = {}
        self._states_lock = threading.Lock()  # guards creating a state
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._m_tasks = self.metrics.counter(
            "sor_scheduler_tasks_total", "participation tasks scheduled"
        )
        self._m_instants_assigned = self.metrics.counter(
            "sor_scheduler_instants_assigned_total",
            "sensing instants handed to phones",
        )
        self._m_instants_evaluated = self.metrics.counter(
            "sor_scheduler_instants_evaluated_total",
            "candidate instants whose marginal gain was evaluated online",
        )
        self._m_coverage = self.metrics.gauge(
            "sor_scheduler_coverage",
            "average coverage of the pooled schedule, per application",
            labels=("app",),
        )

    def state_for(self, application: Application) -> _AppSchedulerState:
        """The per-application incremental coverage state (lazily built)."""
        state = self._states.get(application.app_id)
        if state is None:
            with self._states_lock:
                state = self._states.get(application.app_id)
                if state is None:
                    state = _AppSchedulerState(application)
                    self._states[application.app_id] = state
        return state

    def lock_for(
        self, application: Application | None
    ) -> contextlib.AbstractContextManager:
        """The lock that serializes ``application``'s picks.

        One per application the server holds; ``None`` (an application
        the server does not hold) gets a no-op context and creates no
        lock, so unknown application ids leave nothing behind.
        """
        if application is None:
            return contextlib.nullcontext()
        return self.state_for(application).lock

    def rehydrate(self, application: Application) -> int:
        """Rebuild coverage state from persisted schedules after a restart.

        The objective over already-scheduled instants is in-memory only;
        the schedules themselves are durable on the task rows. Re-adding
        each persisted sensing time (via its nearest instant index) makes
        post-recovery scheduling see exactly the coverage that existed
        before the crash. Returns the number of instants restored.
        """
        state = self.state_for(application)
        restored = 0
        for task in self.participation.tasks_for_app(application.app_id):
            times = task.get("schedule_times") or []
            for timestamp in times:
                state.objective.add(state.period.nearest_instant(float(timestamp)))
            restored += len(times)
        if restored:
            self._m_coverage.set(state.average_coverage, app=application.app_id)
        return restored

    def schedule_task(
        self,
        application: Application,
        *,
        budget: int,
        departure_time: float | None = None,
    ) -> TaskSchedule:
        """Pick the sensing times for a new participant.

        The schedule starts from *now* (a user cannot sense in the past)
        and runs to their expected departure or the period end. The
        picks go into the application's objective at once, so the caller
        holds :meth:`lock_for` from here until it has either recorded
        the times on a task or restored the picks.
        """
        if budget <= 0:
            raise SchedulingError("budget must be positive")
        state = self.state_for(application)
        now = self.clock.now()
        until = departure_time if departure_time is not None else state.period.end
        with self.tracer.span(
            "scheduler.schedule_task", app_id=application.app_id, budget=budget
        ) as span:
            instants, evaluated, undo = state.schedule_user(
                from_time=now, until_time=until, budget=budget
            )
            span.set_attribute("instants", len(instants))
        return TaskSchedule(
            application.app_id,
            [state.period.instant_time(index) for index in instants],
            evaluated,
            state.average_coverage,
            undo,
        )

    def count(self, schedule: TaskSchedule) -> None:
        """Report a schedule whose task committed in the service's metrics."""
        self._m_tasks.inc()
        self._m_instants_assigned.inc(len(schedule.times))
        self._m_instants_evaluated.inc(schedule.evaluated)
        self._m_coverage.set(schedule.coverage, app=schedule.app_id)

    def coverage_for(self, application: Application) -> float:
        """Current average coverage of an application's pooled schedule."""
        return self.state_for(application).average_coverage
