"""The mobile phone: all frontend components wired together."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.barcode import BitMatrix, decode_place_barcode
from repro.common.clock import Clock
from repro.common.errors import ParticipationError
from repro.common.geo import LatLon
from repro.net import CloudMessenger, Envelope, HttpRequest, HttpResponse, MessageType
from repro.net.resilience import ResilientClient
from repro.net.transport import Network
from repro.phone.message_handler import PhoneMessageHandler
from repro.phone.power import Battery, WakeLockManager
from repro.phone.preferences import LocalPreferenceManager
from repro.phone.sensor_manager import ProviderRegister, SensorManager
from repro.phone.task import TaskInstance
from repro.phone.task_manager import TaskManager
from repro.sensors.provider import Provider


class MobilePhone:
    """One participating smartphone.

    The phone is driven by virtual time: the owner (simulation or
    example script) advances the shared clock and calls :meth:`tick`,
    which executes any sensing instants that came due and uploads
    completed tasks.
    """

    def __init__(
        self,
        user_id: str,
        token: str,
        network: Network,
        clock: Clock,
        *,
        gcm: CloudMessenger | None = None,
        battery_capacity_mj: float = 40_000.0,
        rng: np.random.Generator | None = None,
        client: ResilientClient | None = None,
    ) -> None:
        self.user_id = user_id
        self.token = token
        self.host = f"phone-{token}"
        self.clock = clock
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.battery = Battery(capacity_mj=battery_capacity_mj)
        self.wake_locks = WakeLockManager(clock, self.battery)
        self.preferences = LocalPreferenceManager()
        self.provider_register = ProviderRegister()
        self.sensor_manager = SensorManager(
            self.provider_register, self.preferences, self.battery
        )
        self.task_manager = TaskManager()
        self.message_handler = PhoneMessageHandler(
            self.host, network, self.wake_locks, gcm=gcm, gcm_token=token,
            client=client,
        )
        self.message_handler.on(MessageType.SCHEDULE, self._on_schedule)
        self.message_handler.on(MessageType.PING, self._on_ping)
        self.message_handler.on(MessageType.LOCATION_QUERY, self._on_location_query)
        self.message_handler.on_push(self._on_gcm_push)
        self._location_source: Callable[[float], LatLon] | None = None
        self._last_server: str | None = None
        self._uploaded_tasks: set[str] = set()
        self._scan_counter = 0
        network.register(self.host, self)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_provider(self, provider: Provider) -> None:
        """Integrate a sensor: register its provider (the paper's
        scalability story — one provider per new sensor)."""
        self.provider_register.register(provider)

    def set_location_source(self, source: Callable[[float], LatLon]) -> None:
        """Where this phone physically is at time t."""
        self._location_source = source

    def current_location(self) -> LatLon:
        """The phone's physical location right now."""
        if self._location_source is None:
            raise ParticipationError(
                f"phone {self.host} has no location source configured"
            )
        return self._location_source(self.clock.now())

    # ------------------------------------------------------------------
    # user actions
    # ------------------------------------------------------------------
    def scan_barcode(
        self,
        matrix: BitMatrix,
        *,
        budget: int,
        departure_time: float | None = None,
    ) -> TaskInstance | None:
        """Scan the 2D code at a place and volunteer to sense.

        Decodes the barcode, sends a PARTICIPATE message with the phone's
        identity, location, sensing budget and (optionally) expected
        departure time, and — when the server replies with a schedule —
        creates the task instance. Returns the task, or None if the
        server rejected or the network dropped.
        """
        payload = decode_place_barcode(matrix)
        location = self.current_location()
        message_payload = {
            "user_id": self.user_id,
            "token": self.token,
            "app_id": payload.app_id,
            "place_id": payload.place_id,
            "latitude": location.latitude,
            "longitude": location.longitude,
            "budget": budget,
            "supported_sensors": self.provider_register.supported_sensors(),
            "denied_sensors": self.preferences.denied_sensors(),
        }
        if departure_time is not None:
            message_payload["departure_time"] = float(departure_time)
        # Each scan is a fresh user operation: a per-scan nonce key means
        # transport retries of this scan dedupe server-side, while a
        # deliberate re-scan (identical content) still creates a new task.
        self._scan_counter += 1
        envelope = Envelope(
            message_type=MessageType.PARTICIPATE,
            sender=self.host,
            recipient=payload.server_host,
            payload=message_payload,
        ).with_idempotency_key(f"{self.host}:scan:{self._scan_counter}")
        reply = self.message_handler.send(payload.server_host, envelope)
        if reply is None or reply.message_type is not MessageType.SCHEDULE:
            return None
        self._last_server = payload.server_host
        return self._install_schedule(reply.payload)

    def send_preferences(self, server_host: str) -> bool:
        """Push local sensing preferences to a server."""
        envelope = Envelope(
            message_type=MessageType.PREFERENCES,
            sender=self.host,
            recipient=server_host,
            payload={
                "user_id": self.user_id,
                "token": self.token,
                **self.preferences.to_payload(),
            },
        )
        reply = self.message_handler.send(server_host, envelope)
        return reply is not None and reply.message_type is MessageType.ACK

    # ------------------------------------------------------------------
    # time-driven behaviour
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Execute due sensing instants and upload finished tasks.

        Returns the number of script executions performed.
        """
        if self.battery.is_dead:
            return 0
        executed = self.task_manager.execute_due(self.clock.now())
        for task in self.task_manager.finished_unreported():
            if task.task_id not in self._uploaded_tasks:
                if self._upload(task):
                    self._uploaded_tasks.add(task.task_id)
        return executed

    @property
    def acked_uploads(self) -> frozenset[str]:
        """Task ids whose SENSED_DATA upload the server acknowledged.

        The fault harness asserts that everything in this set survives
        server recovery: an acknowledged upload is a promise.
        """
        return frozenset(self._uploaded_tasks)

    def _upload(self, task: TaskInstance) -> bool:
        if self._last_server is None:
            return False
        envelope = Envelope(
            message_type=MessageType.SENSED_DATA,
            sender=self.host,
            recipient=self._last_server,
            payload={
                "task_id": task.task_id,
                "token": self.token,
                "status": task.status.value,
                "error": task.error or "",
                "executed": len(task.script_results),
                "bursts": task.collected_payload(),
            },
        )
        # Radio energy: proportional-ish to payload, simplified constant.
        self.battery.drain(20.0, reason="radio:upload")
        reply = self.message_handler.send(self._last_server, envelope)
        return reply is not None and reply.message_type is MessageType.ACK

    # ------------------------------------------------------------------
    # incoming messages
    # ------------------------------------------------------------------
    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve a server-initiated HTTP request."""
        return self.message_handler.handle_request(request)

    def _install_schedule(self, payload: dict[str, Any]) -> TaskInstance | None:
        task_id = payload.get("task_id")
        script = payload.get("script")
        times = payload.get("times")
        if not isinstance(task_id, str) or not isinstance(script, str):
            return None
        if not isinstance(times, list):
            return None
        existing = self.task_manager.get(task_id)
        if existing is not None:
            return existing
        task = TaskInstance(
            task_id=task_id,
            app_id=str(payload.get("app_id", "")),
            script_source=script,
            sensing_times=[float(time) for time in times],
            sensor_manager=self.sensor_manager,
        )
        self.task_manager.add(task)
        return task

    def _on_schedule(self, envelope: Envelope) -> Envelope:
        self._last_server = envelope.sender
        self._install_schedule(envelope.payload)
        return envelope.reply(MessageType.ACK)

    def _on_ping(self, envelope: Envelope) -> Envelope:
        return envelope.reply(MessageType.PONG, {"token": self.token})

    def _on_location_query(self, envelope: Envelope) -> Envelope:
        location = self.current_location()
        return envelope.reply(
            MessageType.LOCATION_REPORT,
            {
                "token": self.token,
                "latitude": location.latitude,
                "longitude": location.longitude,
            },
        )

    def _on_gcm_push(self, payload: dict[str, Any]) -> None:
        """A GCM wake-up: ping the server so it can find us again."""
        server = payload.get("server")
        if not isinstance(server, str):
            return
        envelope = Envelope(
            message_type=MessageType.PONG,
            sender=self.host,
            recipient=server,
            payload={"token": self.token, "host": self.host},
        )
        self.message_handler.send(server, envelope)
