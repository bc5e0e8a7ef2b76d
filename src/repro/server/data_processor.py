"""The Data Processor.

"The Data Processor periodically checks if there are any binary sensed
data in the database, and if any, it decodes the data and stores useful
information into corresponding tables … Moreover, it also processes raw
data to generate more meaningful data for various sensing features
(temperature, humidity, roughness of road surface, etc) … The processed
data are called feature data."
"""

from __future__ import annotations

import math
from typing import Any

from repro.common.clock import Clock
from repro.common.errors import CodecError
from repro.core.features.types import GpsFix, ReadingBurst
from repro.db import Database, and_, eq
from repro.net import Envelope
from repro.obs import MetricsRegistry, get_metrics
from repro.server.app_manager import ApplicationManager
from repro.server.ranker_service import bump_data_version

# Physically plausible value ranges per sensor (generous — they exist to
# stop NaN/inf and wildly impossible readings from poisoning feature
# extraction, not to second-guess unusual weather). Units follow the
# sensor providers: temperature °F, humidity %, microphone dB, pressure
# hPa, light lux, accelerometer m/s² per axis.
_SENSOR_LIMITS: dict[str, tuple[float, float]] = {
    "temperature": (-100.0, 300.0),
    "humidity": (-5.0, 105.0),
    "microphone": (-10.0, 200.0),
    "accelerometer": (-1000.0, 1000.0),
    "pressure": (100.0, 1200.0),
    "light": (-50.0, 500000.0),
}


class DataProcessor:
    """Decodes stored binary bodies and computes feature data.

    Bursts that fail validation (non-finite numbers, out-of-spec values,
    malformed shapes) are diverted into the ``quarantine`` table instead
    of becoming readings, and counted in
    ``sor_server_quarantined_readings_total``.
    """

    def __init__(
        self,
        database: Database,
        apps: ApplicationManager,
        clock: Clock,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.database = database
        self.apps = apps
        self.clock = clock
        self.metrics = metrics if metrics is not None else get_metrics()
        self.blobs_decoded = 0
        self.blobs_rejected = 0
        self.features_skipped = 0
        self.readings_quarantined = 0
        self._m_quarantined = self.metrics.counter(
            "sor_server_quarantined_readings_total",
            "sensor bursts diverted to quarantine instead of readings",
            labels=("sensor", "reason"),
        )

    # ------------------------------------------------------------------
    # step 1: binary blobs → readings rows
    # ------------------------------------------------------------------
    def process_pending(self) -> int:
        """Decode every unprocessed blob; returns how many decoded.

        Each blob decodes in one transaction that also sets its
        ``processed`` flag, so a crash leaves either all of its readings
        and its flag, or none of them, and the next pass never decodes
        it twice. A blob that cannot become readings (malformed, or
        naming a task or application this server does not know) rolls
        back whole, readings and quarantine rows alike, and is counted
        in ``blobs_rejected``; its flag is then set in a write of its
        own, so no pass reads it again.
        """
        raw_table = self.database.table("raw_data")
        decoded = 0
        for row in raw_table.select(eq("processed", False)):
            blob = eq("raw_id", row["raw_id"])
            try:
                with self.database.transaction():
                    quarantined = self._decode_one(row)
                    raw_table.update(blob, {"processed": True})
            except CodecError:
                raw_table.update(blob, {"processed": True})
                self.blobs_rejected += 1
                continue
            decoded += 1
            self.blobs_decoded += 1
            # Counted only now that the quarantine rows are committed.
            for sensor, reason in quarantined:
                self.readings_quarantined += 1
                self._m_quarantined.inc(sensor=sensor, reason=reason)
        return decoded

    def _decode_one(self, row: dict[str, Any]) -> list[tuple[str, str]]:
        """Decode one blob; returns the (sensor, reason) of each burst it
        quarantined."""
        envelope = Envelope.from_bytes(row["body"])
        payload = envelope.payload
        task_id = payload.get("task_id")
        bursts = payload.get("bursts")
        if not isinstance(task_id, str) or not isinstance(bursts, list):
            raise CodecError("sensed-data payload has the wrong shape")
        task = self.database.table("tasks").get(task_id)
        if task is None:
            raise CodecError(f"sensed data for unknown task {task_id!r}")
        application = self.apps.get(task["app_id"])
        if application is None:
            raise CodecError(f"task {task_id!r} references unknown app")
        readings = self.database.table("readings")
        quarantined: list[tuple[str, str]] = []
        for burst in bursts:
            if not isinstance(burst, dict):
                raise CodecError("burst entry is not a dict")
            sensor = str(burst.get("sensor", ""))
            reason = self._burst_problem(sensor, burst)
            if reason is not None:
                self._quarantine(
                    task_id=task_id,
                    app_id=task["app_id"],
                    place_id=application.place_id,
                    sensor=sensor,
                    reason=reason,
                    burst=burst,
                )
                quarantined.append((sensor, reason))
                continue
            readings.insert(
                {
                    "task_id": task_id,
                    "app_id": task["app_id"],
                    "place_id": application.place_id,
                    "sensor": sensor,
                    "t": float(burst.get("t", 0.0)),
                    "dt": float(burst.get("dt", 0.0)),
                    "values": burst.get("values", []),
                    "source": task["user_id"],
                }
            )
        return quarantined

    # ------------------------------------------------------------------
    # validation and quarantine
    # ------------------------------------------------------------------
    @staticmethod
    def _is_number(value: Any) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def _burst_problem(self, sensor: str, burst: dict[str, Any]) -> str | None:
        """Why this burst must not become readings, or None if it's fine."""
        t = burst.get("t", 0.0)
        dt = burst.get("dt", 0.0)
        if not self._is_number(t) or not self._is_number(dt):
            return "bad_shape"
        if not (math.isfinite(t) and math.isfinite(dt)):
            return "not_finite"
        values = burst.get("values", [])
        if not isinstance(values, list):
            return "bad_shape"
        scalars: list[float] = []
        for value in values:
            if isinstance(value, list):
                if not all(self._is_number(item) for item in value):
                    return "bad_shape"
                if sensor == "gps" and len(value) == 3:
                    lat, lon, alt = value
                    if not all(math.isfinite(v) for v in (lat, lon, alt)):
                        return "not_finite"
                    if not (
                        -90.0 <= lat <= 90.0
                        and -180.0 <= lon <= 180.0
                        and -1000.0 <= alt <= 20000.0
                    ):
                        return "out_of_range"
                    continue
                scalars.extend(value)
            elif self._is_number(value):
                scalars.append(value)
            else:
                return "bad_shape"
        for scalar in scalars:
            if not math.isfinite(scalar):
                return "not_finite"
        limits = _SENSOR_LIMITS.get(sensor)
        if limits is not None:
            low, high = limits
            for scalar in scalars:
                if not low <= scalar <= high:
                    return "out_of_range"
        return None

    def _quarantine(
        self,
        *,
        task_id: str,
        app_id: str,
        place_id: str,
        sensor: str,
        reason: str,
        burst: dict[str, Any],
    ) -> None:
        if self.database.has_table("quarantine"):
            self.database.table("quarantine").insert(
                {
                    "task_id": task_id,
                    "app_id": app_id,
                    "place_id": place_id,
                    "sensor": sensor,
                    "reason": reason,
                    "payload": burst,
                    "received_at": self.clock.now(),
                }
            )

    # ------------------------------------------------------------------
    # step 2: readings → feature data
    # ------------------------------------------------------------------
    def bursts_for_place(self, place_id: str) -> dict[str, list[ReadingBurst]]:
        """Reconstruct (t, Δt, d) bursts per sensor from the database."""
        rows = self.database.table("readings").select(eq("place_id", place_id))
        bursts: dict[str, list[ReadingBurst]] = {}
        for row in rows:
            values = tuple(
                self._revive_value(row["sensor"], value) for value in row["values"]
            )
            bursts.setdefault(row["sensor"], []).append(
                ReadingBurst(
                    timestamp=row["t"],
                    duration_s=row["dt"],
                    values=values,
                    source=row["source"],
                )
            )
        return bursts

    @staticmethod
    def _revive_value(sensor: str, value: Any) -> Any:
        """Wire form back to reading objects, dispatched on sensor type.

        GPS triples (lat, lon, alt) revive to :class:`GpsFix`; other
        list values (accelerometer/gyro vectors) revive to tuples.
        """
        if isinstance(value, list):
            if sensor == "gps" and len(value) == 3:
                return GpsFix(
                    latitude=float(value[0]),
                    longitude=float(value[1]),
                    altitude_m=float(value[2]),
                )
            return tuple(float(item) for item in value)
        return float(value)

    def compute_features(self, app_id: str) -> dict[str, float]:
        """Run the application's pipeline and persist feature data.

        Features whose sensor produced no data at all (every participant
        denied it, or it timed out everywhere) are skipped rather than
        failing the whole pass — the ranker works on the features the
        category's places have in common.
        """
        application = self.apps.get(app_id)
        if application is None:
            raise CodecError(f"unknown application {app_id!r}")
        pipeline = self.apps.pipeline_for(app_id)
        bursts = self.bursts_for_place(application.place_id)
        features, missing = pipeline.compute_available(bursts)
        self.features_skipped += len(missing)
        table = self.database.table("feature_data")
        now = self.clock.now()
        if not features:
            return features
        # The rows and the category's version bump commit as one
        # transaction, bump last: a replica applies both or neither,
        # and the new version never names rows that are not all there
        # (see repro.server.ranker_service).
        with self.database.transaction():
            for feature, value in features.items():
                match = and_(
                    eq("place_id", application.place_id), eq("feature", feature)
                )
                if not table.update(match, {"value": value, "computed_at": now}):
                    table.insert(
                        {
                            "place_id": application.place_id,
                            "category": application.category,
                            "feature": feature,
                            "value": value,
                            "computed_at": now,
                        }
                    )
            bump_data_version(self.database, application.category)
        return features
