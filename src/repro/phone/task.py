"""Task instances.

"Each incoming task will be served by a task instance … A task instance
is a self-contained component, which maintains its own status (e.g.,
running, waiting for data, etc), calls proper API functions to acquire
data from sensors, and manages data collected from sensors."

A task instance owns one participation: the LuaLite script the server
shipped, the schedule of sensing times, and the bursts collected so
far. Executing one scheduled instant means running the script once in a
sandbox whose acquisition functions record every burst taken.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.common.errors import ScriptError, SensorError
from repro.core.features.types import ReadingBurst
from repro.phone.sensor_manager import SensorManager
from repro.script import Sandbox


class TaskStatus(enum.Enum):
    """Lifecycle states of a task instance (paper Section II-A)."""
    WAITING_FOR_SCHEDULE = "waiting_for_schedule"
    RUNNING = "running"
    WAITING_FOR_DATA = "waiting_for_data"
    FINISHED = "finished"
    ERROR = "error"


class TaskInstance:
    """One sensing task on one phone."""

    def __init__(
        self,
        task_id: str,
        app_id: str,
        script_source: str,
        sensing_times: list[float],
        sensor_manager: SensorManager,
        *,
        max_script_steps: int = 500_000,
    ) -> None:
        self.task_id = task_id
        self.app_id = app_id
        self.script_source = script_source
        self.sensing_times = sorted(sensing_times)
        self.sensor_manager = sensor_manager
        self.max_script_steps = max_script_steps
        self.status = (
            TaskStatus.RUNNING if self.sensing_times else TaskStatus.FINISHED
        )
        self.error: str | None = None
        self.bursts: list[tuple[str, ReadingBurst]] = []
        self.script_results: list[Any] = []
        self._next_index = 0

    @property
    def is_done(self) -> bool:
        return self.status in (TaskStatus.FINISHED, TaskStatus.ERROR)

    def next_sensing_time(self) -> float | None:
        """The next scheduled instant, or None when the task is done."""
        if self._next_index < len(self.sensing_times):
            return self.sensing_times[self._next_index]
        return None

    def execute_due(self, now: float) -> int:
        """Run the script for every scheduled instant that is due.

        Returns how many executions happened. A script or sensor error
        moves the task to ERROR (the server will see it in the upload).
        """
        executed = 0
        while (
            self._next_index < len(self.sensing_times)
            and self.sensing_times[self._next_index] <= now
            and self.status is TaskStatus.RUNNING
        ):
            self._execute_once()
            self._next_index += 1
            executed += 1
        if self.status is TaskStatus.RUNNING and self._next_index >= len(
            self.sensing_times
        ):
            self.status = TaskStatus.FINISHED
        return executed

    def _execute_once(self) -> None:
        self.status = TaskStatus.WAITING_FOR_DATA
        sandbox = Sandbox(max_steps=self.max_script_steps)
        bindings = self.sensor_manager.script_bindings(
            lambda sensor, burst: self.bursts.append((sensor, burst))
        )
        for name, function in bindings.items():
            sandbox.register_function(name, function)
        try:
            result = sandbox.run_to_python(self.script_source)
            self.script_results.append(result)
            self.status = TaskStatus.RUNNING
        except (ScriptError, SensorError) as exc:
            self.status = TaskStatus.ERROR
            self.error = str(exc)

    def collected_payload(self) -> list[dict[str, Any]]:
        """The bursts in wire form (for a SENSED_DATA message body)."""
        payload = []
        for sensor_type, burst in self.bursts:
            values: list[Any] = []
            for value in burst.values:
                if hasattr(value, "latitude"):
                    values.append(
                        [value.latitude, value.longitude, value.altitude_m]
                    )
                elif isinstance(value, tuple):
                    values.append(list(value))
                else:
                    values.append(float(value))
            payload.append(
                {
                    "sensor": sensor_type,
                    "t": burst.timestamp,
                    "dt": burst.duration_s,
                    "values": values,
                }
            )
        return payload
