"""The Application Manager.

"An application is defined as a procedure of acquiring data from sensors
for a target place … The Application Manager manages all necessary
information related to each application, including its AppID, its
creator (which could be the owner/manager/operator of the corresponding
target place), and the Lua scripts defining the corresponding data
acquisition procedure."

The feature pipeline (how raw readings become feature values) is a
Python object; it lives on the in-memory :class:`Application`, next to
the persisted configuration row.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, ScriptError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline
from repro.db import Database, eq
from repro.script import parse


@dataclass(frozen=True)
class Application:
    """One sensing application: a place and how to sense it.

    ``pipeline`` may be ``None`` for an application rehydrated from the
    database after a restart — the pipeline is a Python object that
    cannot be persisted; it is re-attached by the deployment layer via
    :meth:`ApplicationManager.attach_pipeline`.
    """

    app_id: str
    creator: str
    place_id: str
    place_name: str
    category: str
    location: LatLon
    script: str
    pipeline: FeaturePipeline | None
    period_start: float
    period_end: float
    num_instants: int = 1080
    coverage_sigma_s: float = 60.0
    location_tolerance_m: float = 500.0

    def __post_init__(self) -> None:
        # The ``<=`` checks below let NaN and infinities through; those
        # break the first PARTICIPATE's kernel or reject every phone.
        for name in (
            "period_start",
            "period_end",
            "coverage_sigma_s",
            "location_tolerance_m",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.period_end <= self.period_start:
            raise ConfigurationError("application period must be non-empty")
        if self.num_instants <= 0:
            raise ConfigurationError("num_instants must be positive")
        if self.coverage_sigma_s <= 0:
            raise ConfigurationError("coverage_sigma_s must be positive")
        if self.location_tolerance_m <= 0:
            raise ConfigurationError("location_tolerance_m must be positive")


class ApplicationManager:
    """Registers applications and answers lookups.

    Configuration rows are durable; the in-memory registry is rebuilt
    from every one of them at construction, because each database
    belongs to exactly one server.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._apps: dict[str, Application] = {}
        self._hydrate()

    def _hydrate(self) -> None:
        if not self.database.has_table("applications"):
            return
        for row in self.database.table("applications").select():
            self._apps[row["app_id"]] = Application(
                app_id=row["app_id"],
                creator=row["creator"],
                place_id=row["place_id"],
                place_name=row["place_name"],
                category=row["category"],
                location=LatLon(
                    latitude=row["latitude"], longitude=row["longitude"]
                ),
                script=row["script"],
                pipeline=None,
                period_start=row["period_start"],
                period_end=row["period_end"],
                num_instants=row["num_instants"],
                coverage_sigma_s=row["coverage_sigma_s"],
                location_tolerance_m=row["location_tolerance_m"],
            )

    def attach_pipeline(self, app_id: str, pipeline: FeaturePipeline) -> None:
        """Re-attach the in-memory feature pipeline after rehydration."""
        application = self._apps.get(app_id)
        if application is None:
            raise ConfigurationError(f"unknown application {app_id!r}")
        self._apps[app_id] = dataclasses.replace(application, pipeline=pipeline)

    def create(self, application: Application) -> None:
        """Register an application (validates its script parses)."""
        if application.app_id in self._apps:
            raise ConfigurationError(
                f"application {application.app_id!r} already exists"
            )
        try:
            parse(application.script)
        except ScriptError as exc:
            raise ConfigurationError(
                f"application script does not parse: {exc}"
            ) from exc
        if application.pipeline is None:
            raise ConfigurationError(
                f"application {application.app_id!r} needs a feature pipeline"
            )
        self.database.table("applications").insert(
            {
                "app_id": application.app_id,
                "creator": application.creator,
                "place_id": application.place_id,
                "place_name": application.place_name,
                "category": application.category,
                "latitude": application.location.latitude,
                "longitude": application.location.longitude,
                "location_tolerance_m": application.location_tolerance_m,
                "script": application.script,
                "period_start": application.period_start,
                "period_end": application.period_end,
                "num_instants": application.num_instants,
                "coverage_sigma_s": application.coverage_sigma_s,
            }
        )
        self._apps[application.app_id] = application

    def remove(self, app_id: str) -> Application | None:
        """Drop an application (registry + durable row); returns it.

        Used by shard rebalancing to transfer ownership: the losing
        shard removes the application, the gaining shard re-creates it.
        """
        application = self._apps.pop(app_id, None)
        if application is not None:
            self.database.table("applications").delete(eq("app_id", app_id))
        return application

    def get(self, app_id: str) -> Application | None:
        """The application with ``app_id``, or None."""
        return self._apps.get(app_id)

    def pipeline_for(self, app_id: str) -> FeaturePipeline:
        """The feature pipeline of ``app_id`` (raises if unknown)."""
        application = self._apps.get(app_id)
        if application is None:
            raise ConfigurationError(f"unknown application {app_id!r}")
        if application.pipeline is None:
            raise ConfigurationError(
                f"application {app_id!r} was rehydrated without a "
                "pipeline; call attach_pipeline() first"
            )
        return application.pipeline

    def all_apps(self) -> list[Application]:
        """Every registered application."""
        return list(self._apps.values())

    def apps_in_category(self, category: str) -> list[Application]:
        """Applications whose place belongs to ``category``."""
        return [app for app in self._apps.values() if app.category == category]
