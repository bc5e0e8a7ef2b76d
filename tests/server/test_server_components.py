"""Tests for the sensing server's backend components."""

import pytest

from repro.common.errors import ConfigurationError, ParticipationError
from repro.common.geo import LatLon, offset_latlon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import Database
from repro.server.app_manager import Application, ApplicationManager
from repro.server.participation import ParticipationManager, ParticipationStatus
from repro.server.schemas import create_all_tables
from repro.server.scheduler_service import SensingSchedulerService
from repro.server.user_manager import UserInfoManager

PLACE = LatLon(43.05, -76.15)


def simple_pipeline():
    return FeaturePipeline(
        [FeatureSpec("temperature", "temperature", MeanExtractor())]
    )


def make_application(**overrides):
    defaults = dict(
        app_id="app-1",
        creator="owner",
        place_id="place-1",
        place_name="Place One",
        category="coffee_shop",
        location=PLACE,
        script="return get_temperature_readings(3, 1.0)",
        pipeline=simple_pipeline(),
        period_start=0.0,
        period_end=10_800.0,
        num_instants=1080,
    )
    defaults.update(overrides)
    return Application(**defaults)


@pytest.fixture
def backend(clock):
    database = Database()
    create_all_tables(database)
    users = UserInfoManager(database, clock)
    apps = ApplicationManager(database)
    participation = ParticipationManager(database, users, apps, clock)
    scheduler = SensingSchedulerService(participation, clock)
    return database, users, apps, participation, scheduler, clock


class TestUserInfoManager:
    def test_register_and_verify(self, backend):
        _, users, *_ = backend
        users.register("alice", "Alice", "tok-a")
        assert users.is_registered("alice")
        assert users.verify("alice", "tok-a")
        assert not users.verify("alice", "wrong")
        assert not users.verify("ghost", "tok-a")

    def test_token_lookup(self, backend):
        _, users, *_ = backend
        users.register("alice", "Alice", "tok-a")
        assert users.by_token("tok-a")["user_id"] == "alice"
        assert users.by_token("ghost") is None

    def test_duplicate_token_rejected(self, backend):
        from repro.common.errors import DatabaseError

        _, users, *_ = backend
        users.register("alice", "Alice", "tok")
        with pytest.raises(DatabaseError):
            users.register("bob", "Bob", "tok")

    def test_preferences(self, backend):
        _, users, *_ = backend
        users.register("alice", "Alice", "tok-a")
        assert users.update_preferences("tok-a", ["gps"])
        assert users.denied_sensors("alice") == ["gps"]
        assert not users.update_preferences("ghost", [])


class TestApplicationManager:
    def test_create_and_lookup(self, backend):
        _, _, apps, *_ = backend
        apps.create(make_application())
        assert apps.get("app-1").place_name == "Place One"
        assert apps.pipeline_for("app-1").feature_names == ["temperature"]
        assert len(apps.apps_in_category("coffee_shop")) == 1

    def test_duplicate_rejected(self, backend):
        _, _, apps, *_ = backend
        apps.create(make_application())
        with pytest.raises(ConfigurationError):
            apps.create(make_application())

    def test_pipeline_for_a_rehydrated_app_needs_attach(self, backend):
        database, _, apps, *_ = backend
        apps.create(make_application())
        rehydrated = ApplicationManager(database)
        with pytest.raises(ConfigurationError, match="without a pipeline"):
            rehydrated.pipeline_for("app-1")
        with pytest.raises(ConfigurationError, match="unknown application"):
            rehydrated.pipeline_for("ghost")
        pipeline = simple_pipeline()
        rehydrated.attach_pipeline("app-1", pipeline)
        assert rehydrated.pipeline_for("app-1") is pipeline

    def test_unparseable_script_rejected(self, backend):
        _, _, apps, *_ = backend
        with pytest.raises(ConfigurationError, match="parse"):
            apps.create(make_application(script="local local local"))

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            make_application(period_start=100.0, period_end=50.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("period_start", float("nan")),
            ("period_start", float("-inf")),
            ("period_end", float("nan")),
            ("period_end", float("inf")),
            ("coverage_sigma_s", float("nan")),
            ("coverage_sigma_s", float("inf")),
            ("location_tolerance_m", float("nan")),
            ("location_tolerance_m", float("inf")),
        ],
    )
    def test_non_finite_setting_rejected(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            make_application(**{field: bad})


class TestParticipationManager:
    def setup_participant(self, backend):
        _, users, apps, participation, _, clock = backend
        users.register("alice", "Alice", "tok-a")
        apps.create(make_application())
        clock.advance(100.0)
        return participation, clock

    @staticmethod
    def validate(participation, **overrides):
        """Validate alice's request to join app-1, with ``overrides``."""
        request = dict(
            app_id="app-1", user_id="alice", token="tok-a",
            location=PLACE, budget=5,
        )
        request.update(overrides)
        application = participation.apps.get(request["app_id"])
        participation.validate(application, **request)

    @staticmethod
    def create_task(participation, times):
        return participation.create_task(
            app_id="app-1", user_id="alice", token="tok-a",
            phone_host="phone-1", budget=5, times=times,
        )

    def test_create_task_happy_path(self, backend):
        participation, _ = self.setup_participant(backend)
        self.validate(participation)
        task_id = self.create_task(participation, [100.0, 200.0])
        task = participation.get_task(task_id)
        assert task["status"] == ParticipationStatus.RUNNING.value
        assert task["schedule_times"] == [100.0, 200.0]
        assert task["budget"] == 5

    def test_location_verification_rejects_liar(self, backend):
        participation, _ = self.setup_participant(backend)
        far_away = offset_latlon(PLACE, east_m=5000.0, north_m=0.0)
        with pytest.raises(ParticipationError, match="not at"):
            self.validate(participation, location=far_away)

    def test_nearby_location_accepted(self, backend):
        participation, _ = self.setup_participant(backend)
        nearby = offset_latlon(PLACE, east_m=200.0, north_m=100.0)
        self.validate(participation, location=nearby)

    def test_unknown_user_rejected(self, backend):
        participation, _ = self.setup_participant(backend)
        with pytest.raises(ParticipationError, match="user"):
            self.validate(participation, user_id="mallory")

    def test_wrong_token_rejected(self, backend):
        participation, _ = self.setup_participant(backend)
        with pytest.raises(ParticipationError):
            self.validate(participation, token="stolen")

    def test_unknown_app_rejected(self, backend):
        participation, _ = self.setup_participant(backend)
        with pytest.raises(ParticipationError, match="application"):
            self.validate(participation, app_id="ghost")

    def test_outside_period_rejected(self, backend):
        participation, clock = self.setup_participant(backend)
        clock.set(20_000.0)
        with pytest.raises(ParticipationError, match="period"):
            self.validate(participation)

    def test_status_transitions(self, backend):
        participation, _ = self.setup_participant(backend)
        task_id = self.create_task(participation, [100.0, 200.0])
        assert participation.get_task(task_id)["status"] == (
            ParticipationStatus.RUNNING.value
        )
        participation.mark_status(task_id, ParticipationStatus.ERROR, error="boom")
        task = participation.get_task(task_id)
        assert task["status"] == ParticipationStatus.ERROR.value
        assert task["error"] == "boom"

    def test_leaving_marks_finished(self, backend):
        """The paper: status becomes 'finished' when the user leaves."""
        participation, _ = self.setup_participant(backend)
        task_id = self.create_task(participation, [100.0])
        far = offset_latlon(PLACE, east_m=10_000.0, north_m=0.0)
        finished = participation.handle_location_report("tok-a", far)
        assert finished == [task_id]
        assert (
            participation.get_task(task_id)["status"]
            == ParticipationStatus.FINISHED.value
        )

    def test_still_present_not_finished(self, backend):
        participation, _ = self.setup_participant(backend)
        self.create_task(participation, [100.0])
        assert participation.handle_location_report("tok-a", PLACE) == []


def schedule(scheduler, participation, application, user, **kwargs):
    """Make a participant's picks and insert its task with them, as the
    server's commit step does; returns the stored times."""
    picked = scheduler.schedule_task(application, **kwargs)
    task_id = participation.create_task(
        app_id=application.app_id, user_id=user, token=f"tok-{user}",
        phone_host=f"phone-{user}", budget=kwargs["budget"], times=picked.times,
    )
    scheduler.count(picked)
    times = participation.get_task(task_id)["schedule_times"]
    assert times == picked.times
    return times


class TestSchedulerService:
    def test_online_scheduling_respects_budget_and_window(self, backend):
        _, users, apps, participation, scheduler, clock = backend
        users.register("a", "A", "tok-a")
        application = make_application()
        apps.create(application)
        clock.advance(1000.0)
        times = schedule(scheduler, participation, application, "a", budget=7)
        assert len(times) == 7
        assert all(1000.0 <= t <= 10_800.0 for t in times)

    def test_second_user_avoids_first(self, backend):
        _, users, apps, participation, scheduler, clock = backend
        users.register("a", "A", "tok-a")
        users.register("b", "B", "tok-b")
        application = make_application(coverage_sigma_s=300.0)
        apps.create(application)
        clock.advance(10.0)
        first_times = schedule(scheduler, participation, application, "a", budget=5)
        second_times = schedule(scheduler, participation, application, "b", budget=5)
        assert not set(first_times) & set(second_times)

    def test_departure_time_clips_schedule(self, backend):
        _, users, apps, participation, scheduler, clock = backend
        users.register("a", "A", "tok-a")
        application = make_application()
        apps.create(application)
        clock.advance(10.0)
        times = schedule(
            scheduler, participation, application, "a",
            budget=20, departure_time=2_000.0,
        )
        assert all(t <= 2_000.0 for t in times)

    def test_coverage_reported(self, backend):
        _, users, apps, participation, scheduler, clock = backend
        users.register("a", "A", "tok-a")
        application = make_application()
        apps.create(application)
        clock.advance(10.0)
        assert scheduler.coverage_for(application) == 0.0
        schedule(scheduler, participation, application, "a", budget=10)
        assert scheduler.coverage_for(application) > 0.0
