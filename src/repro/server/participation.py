"""The Participation Manager.

"Every time when a mobile user scans a 2D barcode, the Participation
Manager will first verify whether the user is actually in the target
place by acquiring its location and comparing it against the location
stored in the Application Manager, and then create a task for it if the
user is considered as a truthful user. Moreover, a mobile user's status
… will be changed to 'finished' if according to his/her location, he/she
leaves the target place."
"""

from __future__ import annotations

import enum
import itertools

from repro.common.clock import Clock
from repro.common.errors import ParticipationError
from repro.common.geo import LatLon, haversine_m
from repro.db import Database, eq
from repro.server.app_manager import Application, ApplicationManager
from repro.server.user_manager import UserInfoManager


class ParticipationStatus(enum.Enum):
    """Task states the Participation Manager tracks (paper Section II-B);
    a task row is inserted RUNNING, with its schedule."""
    RUNNING = "running"
    FINISHED = "finished"
    ERROR = "error"


class ParticipationManager:
    """Creates and tracks sensing tasks for participating users."""

    def __init__(
        self,
        database: Database,
        users: UserInfoManager,
        apps: ApplicationManager,
        clock: Clock,
        *,
        id_prefix: str = "",
    ) -> None:
        self.database = database
        self.users = users
        self.apps = apps
        self.clock = clock
        # The prefix (the server's host) is the shard router's routing
        # key: it sends a SENSED_DATA upload to the shard that issued its
        # task. The counter resumes past any persisted task of this
        # prefix, so a restarted server never re-issues an id that
        # survived in the durable store.
        self.id_prefix = id_prefix
        self._task_counter = itertools.count(self._highest_persisted_ordinal() + 1)

    def _highest_persisted_ordinal(self) -> int:
        if not self.database.has_table("tasks"):
            return 0
        prefix = f"{self.id_prefix}task-"
        highest = 0
        for row in self.database.table("tasks").select():
            task_id = row["task_id"]
            if isinstance(task_id, str) and task_id.startswith(prefix):
                try:
                    highest = max(highest, int(task_id[len(prefix) :]))
                except ValueError:
                    continue
        return highest

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------
    def verify_location(self, application: Application, location: LatLon) -> bool:
        """The truthfulness check: is the user actually at the place?

        For trails the place is extended, so the tolerance is the
        application's configured radius around its anchor point.
        """
        distance = haversine_m(location, application.location)
        return distance <= application.location_tolerance_m

    def validate(
        self,
        application: Application | None,
        *,
        app_id: str,
        user_id: str,
        token: str,
        location: LatLon,
        budget: int,
    ) -> None:
        """Check a participation request against ``application``, the
        application ``app_id`` names (``None`` when there is none).

        Raises :class:`ParticipationError` with a reason when the request
        must be rejected (unknown user/app, bad token, wrong location,
        silly budget, outside the scheduling period); writes nothing.
        """
        if budget <= 0:
            raise ParticipationError("sensing budget must be positive")
        if not self.users.verify(user_id, token):
            raise ParticipationError(f"unknown or mismatched user {user_id!r}")
        if application is None:
            raise ParticipationError(f"unknown application {app_id!r}")
        if not self.verify_location(application, location):
            raise ParticipationError(
                f"user {user_id!r} is not at {application.place_name!r}; "
                "participation rejected"
            )
        self._check_period(application)

    def recheck(self, app_id: str) -> None:
        """Re-check, as its task is inserted, what can change after
        :meth:`validate` accepted a request: rebalancing removes
        applications without the server's request lock, and the clock
        moves on. Nothing else can: the request's fields are fixed, an
        application never changes, and no API removes a user or changes
        a token (PREFERENCES changes only ``denied_sensors``). Raises
        :class:`ParticipationError` with :meth:`validate`'s reason."""
        application = self.apps.get(app_id)
        if application is None:
            raise ParticipationError(f"unknown application {app_id!r}")
        self._check_period(application)

    def _check_period(self, application: Application) -> None:
        now = self.clock.now()
        if not application.period_start <= now <= application.period_end:
            raise ParticipationError(
                "participation outside the application's scheduling period"
            )

    def create_task(
        self,
        *,
        app_id: str,
        user_id: str,
        token: str,
        phone_host: str,
        budget: int,
        times: list[float],
    ) -> str:
        """Insert the task of a request :meth:`validate` accepted, RUNNING
        with its sensing ``times``; returns its id. Validates nothing."""
        task_id = f"{self.id_prefix}task-{next(self._task_counter)}"
        self.database.table("tasks").insert(
            {
                "task_id": task_id,
                "app_id": app_id,
                "user_id": user_id,
                "token": token,
                "phone_host": phone_host,
                "budget": budget,
                "status": ParticipationStatus.RUNNING.value,
                "created_at": self.clock.now(),
                "schedule_times": times,
            }
        )
        return task_id

    # ------------------------------------------------------------------
    # tracking
    # ------------------------------------------------------------------
    def get_task(self, task_id: str) -> dict | None:
        """The task row with ``task_id``, or None."""
        return self.database.table("tasks").get(task_id)

    def tasks_for_app(self, app_id: str) -> list[dict]:
        """Every task of ``app_id``."""
        return self.database.table("tasks").select(eq("app_id", app_id))

    def mark_status(
        self, task_id: str, status: ParticipationStatus, *, error: str = ""
    ) -> None:
        """Transition a task to ``status`` (with an optional error)."""
        updated = self.database.table("tasks").update(
            eq("task_id", task_id), {"status": status.value, "error": error}
        )
        if updated == 0:
            raise ParticipationError(f"unknown task {task_id!r}")

    def handle_location_report(self, token: str, location: LatLon) -> list[str]:
        """Mark tasks finished for a phone that left its target place.

        Returns the task ids transitioned to FINISHED.
        """
        finished = []
        for task in self.database.table("tasks").select(eq("token", token)):
            if task["status"] != ParticipationStatus.RUNNING.value:
                continue
            application = self.apps.get(task["app_id"])
            if application is None:
                continue
            if not self.verify_location(application, location):
                self.mark_status(task["task_id"], ParticipationStatus.FINISHED)
                finished.append(task["task_id"])
        return finished
