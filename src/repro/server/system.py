"""SORSystem: the full deployment in one object.

Assembles the pieces a real SOR rollout needs — sensing server, network,
Google-Cloud-Messaging channel, 2D barcodes at each place, participating
phones with their sensor providers — on a single discrete-event
simulator, and runs the whole protocol: scan → verify → schedule →
sense (scripts!) → upload → decode → features → rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.barcode import BitMatrix, PlacePayload, encode_place_barcode
from repro.common.errors import ConfigurationError
from repro.common.geo import LatLon
from repro.common.rng import RngRegistry
from repro.core.features import FeaturePipeline
from repro.core.ranking import PreferenceProfile
from repro.db import DurabilityConfig, RecoveryReport
from repro.net import CloudMessenger, NetworkConditions
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.transport import Network
from repro.phone import MobilePhone
from repro.phone.task import TaskInstance
from repro.server.app_manager import Application
from repro.server.concurrency import ConcurrencyConfig
from repro.server.ranker_service import RankingReport
from repro.server.server import SensingServer
from repro.sim.engine import Simulator
from repro.sim.fieldtest import BurstSettings, build_providers
from repro.sim.mobility import TrailWalker
from repro.sim.places import PlaceProfile
from repro.sim.scenarios import FIELD_TEST_END_S, FIELD_TEST_START_S

#: The sensing server's network host name, printed in every barcode.
SERVER_HOST = "sor-server"


def generate_sensing_script(
    sensors: set[str],
    *,
    burst: BurstSettings | None = None,
    gps_burst: BurstSettings | None = None,
    accel_burst: BurstSettings | None = None,
) -> str:
    """Generate the LuaLite data-acquisition script for an application.

    The burst shape (how many readings, how far apart) is carried in the
    script itself, as the paper prescribes ("The number of readings to
    be taken during this period can be specified in the Lua scripts").
    """
    burst = burst or BurstSettings()
    gps_burst = gps_burst or BurstSettings(13, 3.0)
    accel_burst = accel_burst or BurstSettings(60, 0.025)
    lines = ["-- SOR data acquisition procedure", "local data = {}"]
    for sensor in sorted(sensors):
        if sensor == "gps":
            lines.append(f"data.gps = get_location({gps_burst.count}, {gps_burst.interval_s})")
        elif sensor == "accelerometer":
            lines.append(
                "data.accelerometer = get_accelerometer_readings("
                f"{accel_burst.count}, {accel_burst.interval_s})"
            )
        else:
            lines.append(
                f"data.{sensor} = get_{sensor}_readings("
                f"{burst.count}, {burst.interval_s})"
            )
    lines.append("return data")
    return "\n".join(lines)


@dataclass
class DeployedPlace:
    """A place with its application and printed barcode."""

    place: PlaceProfile
    application: Application
    barcode: BitMatrix


@dataclass
class DeployedPhone:
    """A phone, where it is, and its participation plan."""

    phone: MobilePhone
    place_id: str
    budget: int
    arrive_time: float
    depart_time: float
    walker: TrailWalker | None = None
    task: TaskInstance | None = None


class SORSystem:
    """A full simulated SOR deployment around one sensing server.

    The paper's "multiple sensing servers" case is
    :class:`~repro.server.sharding.ShardCluster`, with one database per
    shard; here the one server owns the one database.
    """

    #: The scheduling period every application and phone visit lies in;
    #: the fault harness spreads its kills over it.
    start_time = FIELD_TEST_START_S
    end_time = FIELD_TEST_END_S

    def __init__(
        self,
        *,
        seed: int = 0,
        network_conditions: NetworkConditions | None = None,
        resilient: bool = True,
        durability: DurabilityConfig | None = None,
        concurrency: ConcurrencyConfig | None = None,
        ranking_cache: bool = True,
    ) -> None:
        self.simulator = Simulator(start_time=self.start_time)
        self.rngs = RngRegistry(root_seed=seed)
        self.network = Network(
            conditions=network_conditions or NetworkConditions(drop_probability=0.0),
            rng=self.rngs.generator("network"),
            clock=None,  # HTTP latency is negligible at field-test scale
            time_source=self.simulator.clock,  # outage windows follow sim time
        )
        self.gcm = CloudMessenger()
        # With ``resilient`` every phone↔server exchange goes through a
        # ResilientClient. Backoff waits are *not* charged to the shared
        # simulation clock (the event queue owns that timeline), so the
        # retry budget is bounded by max_attempts rather than the deadline.
        self.resilient = resilient
        retries = RetryPolicy(
            max_attempts=8, base_backoff_s=0.1, max_backoff_s=5.0
        )
        breaker = BreakerPolicy(
            failure_threshold=32, recovery_timeout_s=60.0
        )

        def make_client(stream: str) -> ResilientClient | None:
            if not resilient:
                return None
            return ResilientClient(
                self.network,
                policy=retries,
                breaker_policy=breaker,
                clock=self.simulator.clock,
                rng=self.rngs.generator("resilience", stream),
                sleep=lambda seconds: None,  # virtual waits; see note above
            )

        self._make_client = make_client
        self.durability = durability
        self.concurrency = concurrency
        self.ranking_cache = ranking_cache
        self.recovery_reports: list[RecoveryReport] = []
        self._places: dict[str, DeployedPlace] = {}
        self._phones: list[DeployedPhone] = []
        self._user_counter = 0
        self.server = self._start_server()

    def _start_server(self) -> SensingServer:
        """Boot the sensing server, recovering from disk if durable.

        A recovered server adopts every application row in its database;
        their feature pipelines are code, not data, so they are
        re-attached from the deployed places.
        """
        server = SensingServer(
            SERVER_HOST,
            self.network,
            self.simulator.clock,
            gcm=self.gcm,
            client=self._make_client(f"server:{SERVER_HOST}"),
            durability=self.durability,
            concurrency=self.concurrency,
            ranking_cache=self.ranking_cache,
        )
        for deployed in self._places.values():
            application = deployed.application
            if server.apps.get(application.app_id) is not None:
                server.apps.attach_pipeline(
                    application.app_id, application.pipeline
                )
        if server.recovery is not None:
            self.recovery_reports.append(server.recovery)
        return server

    @property
    def places(self) -> dict[str, DeployedPlace]:
        """Deployed places by place id."""
        return dict(self._places)

    @property
    def phones(self) -> list[DeployedPhone]:
        """Every deployed phone."""
        return list(self._phones)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy_place(
        self,
        place: PlaceProfile,
        pipeline: FeaturePipeline,
        *,
        coverage_sigma_s: float = 60.0,
        num_instants: int = 1080,
        location_tolerance_m: float | None = None,
    ) -> DeployedPlace:
        """Create the application for ``place`` and print its barcode."""
        if place.place_id in self._places:
            raise ConfigurationError(f"place {place.place_id!r} already deployed")
        tolerance = location_tolerance_m
        if tolerance is None:
            # Trails are extended objects; allow the whole trail length.
            tolerance = (
                place.trail.length_m if place.trail is not None else 500.0
            )
        application = Application(
            app_id=f"app-{place.place_id}",
            creator=f"owner-of-{place.place_id}",
            place_id=place.place_id,
            place_name=place.name,
            category=place.category,
            location=place.location,
            script=generate_sensing_script(pipeline.required_sensors),
            pipeline=pipeline,
            period_start=self.start_time,
            period_end=self.end_time,
            num_instants=num_instants,
            coverage_sigma_s=coverage_sigma_s,
            location_tolerance_m=tolerance,
        )
        self.server.create_application(application)
        barcode = encode_place_barcode(
            PlacePayload(
                place_id=place.place_id,
                name=place.name,
                category=place.category,
                latitude=place.location.latitude,
                longitude=place.location.longitude,
                app_id=application.app_id,
                server_host=self.server.host,
            )
        )
        deployed = DeployedPlace(place=place, application=application, barcode=barcode)
        self._places[place.place_id] = deployed
        return deployed

    def deploy_phone(
        self,
        place_id: str,
        *,
        budget: int,
        arrive_time: float | None = None,
        depart_time: float | None = None,
        user_name: str | None = None,
        pace_m_per_s: float = 1.3,
    ) -> DeployedPhone:
        """Register a user, stage their phone at a place, plan the visit."""
        deployed_place = self._places.get(place_id)
        if deployed_place is None:
            raise ConfigurationError(f"no deployed place {place_id!r}")
        place = deployed_place.place
        arrive = arrive_time if arrive_time is not None else self.start_time
        depart = depart_time if depart_time is not None else self.end_time
        if not self.start_time <= arrive < depart:
            raise ConfigurationError("phone visit must lie inside the period")
        self._user_counter += 1
        user_id = f"user-{self._user_counter}"
        token = f"token-{self._user_counter}"
        self.server.register_user(user_id, user_name or user_id.title(), token)
        phone = MobilePhone(
            user_id=user_id,
            token=token,
            network=self.network,
            clock=self.simulator.clock,
            gcm=self.gcm,
            rng=self.rngs.generator("phone", user_id),
            client=self._make_client(f"phone:{user_id}"),
        )
        walker = None
        if place.trail is not None:
            mode = "loop" if place.trail.is_loop else "ping_pong"
            walker = TrailWalker(
                place.trail,
                pace_m_per_s=pace_m_per_s,
                start_time=arrive - self._user_counter * 90.0,
                mode=mode,
            )
            phone.set_location_source(
                lambda t, w=walker: LatLon(
                    w.position(t).latitude, w.position(t).longitude
                )
            )
        else:
            phone.set_location_source(lambda t, p=place: p.location)
        pipeline = deployed_place.application.pipeline
        providers = build_providers(
            place,
            pipeline.required_sensors,
            self.simulator.clock,
            self.rngs.generator("sensors", user_id),
            walker=walker,
            phase=float(self._user_counter),
        )
        for provider in providers.values():
            phone.add_provider(provider)
        deployed = DeployedPhone(
            phone=phone,
            place_id=place_id,
            budget=budget,
            arrive_time=arrive,
            depart_time=depart,
            walker=walker,
        )
        self._phones.append(deployed)
        self.simulator.schedule_at(arrive, lambda: self._on_arrival(deployed))
        return deployed

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, deployed: DeployedPhone) -> None:
        barcode = self._places[deployed.place_id].barcode
        task = deployed.phone.scan_barcode(
            barcode, budget=deployed.budget, departure_time=deployed.depart_time
        )
        deployed.task = task
        if task is None:
            return
        for sense_time in task.sensing_times:
            self.simulator.schedule_at(
                max(sense_time, self.simulator.now()),
                deployed.phone.tick,
            )
        # One tick right after the last instant guarantees the upload
        # happens even if every instant fired inside a single event.
        if task.sensing_times:
            self.simulator.schedule_at(
                max(task.sensing_times[-1] + 1.0, self.simulator.now()),
                deployed.phone.tick,
            )
        # When the user leaves before the period ends, their phone
        # reports a location away from the place, and the Participation
        # Manager marks the task finished (paper Section II-B).
        if deployed.depart_time < self.end_time:
            self.simulator.schedule_at(
                deployed.depart_time,
                lambda: self._on_departure(deployed),
            )

    def _on_departure(self, deployed: DeployedPhone) -> None:
        from repro.net import Envelope, MessageType

        place = self._places[deployed.place_id].place
        application = self._places[deployed.place_id].application
        away = LatLon(place.location.latitude + 0.5, place.location.longitude)
        deployed.phone.set_location_source(lambda t, point=away: point)
        deployed.phone.tick()  # flush any remaining upload first
        if self.server.apps.get(application.app_id) is None:
            return  # a restart without durability lost the application
        deployed.phone.message_handler.send(
            self.server.host,
            Envelope(
                message_type=MessageType.LOCATION_REPORT,
                sender=deployed.phone.host,
                recipient=self.server.host,
                payload={
                    "token": deployed.phone.token,
                    "latitude": away.latitude,
                    "longitude": away.longitude,
                },
            ),
        )

    # ------------------------------------------------------------------
    # crash and restart (used by the fault harness)
    # ------------------------------------------------------------------
    def kill_server(self) -> None:
        """Simulate a hard process kill of the sensing server.

        The host disappears from the network (in-flight and future
        requests fail with a transport error, which the phones' resilient
        clients absorb) and the durable log handle is closed without any
        graceful flush beyond what already reached the OS — exactly what
        ``kill -9`` leaves behind.
        """
        if self.network.is_registered(self.server.host):
            self.network.unregister(self.server.host)
        self.server.close()
        if self.server.database.durability is not None:
            self.server.database.durability.close()

    def restart_server(self) -> RecoveryReport | None:
        """Bring the killed server back, recovering from disk if durable.

        With durability configured the new process replays the checkpoint
        + WAL into a fresh database and rehydrates its in-memory managers
        (applications, scheduler coverage, task-id counter) from it.
        Without durability the server restarts empty, which is the whole
        point of the contrast scenario.
        """
        if self.network.is_registered(self.server.host):
            raise ConfigurationError(
                f"server {self.server.host!r} is still registered; kill it first"
            )
        self.server = self._start_server()
        return self.server.recovery

    # ------------------------------------------------------------------
    # running and results
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run the deployment to ``until`` (default: the period end)."""
        self.simulator.run(until if until is not None else self.end_time)

    def process_and_rank(
        self, category: str, profiles: list[PreferenceProfile]
    ) -> dict[str, RankingReport]:
        """Decode uploads, compute features, rank for each profile.

        The rankings come in one batch that shares a single feature_data
        scan (and hits the versioned ranking cache when the data hasn't
        changed since the last call).
        """
        self.server.process_data()
        self.server.compute_all_features()
        return self.server.ranker.rank_many(category, profiles)

    def feature_values(self, category: str) -> dict[str, dict[str, float]]:
        """Feature data currently in the database for a category."""
        return self.server.ranker.feature_values(category)
