"""The resilient network path: retries, deadlines and circuit breaking.

SOR's protocol logic assumes phones and the sensing server survive lossy
cellular links — GCM wake-ups, schedule pushes and data uploads must
tolerate drops. This module wraps the raw :class:`~repro.net.transport.Network`
send in a :class:`ResilientClient` that

* retries failed sends with exponential backoff and *decorrelated
  jitter* (the AWS formula: ``sleep = min(cap, uniform(base, 3·prev))``),
  deterministic under an injected ``rng``;
* enforces a per-request deadline against an injected
  :class:`~repro.common.clock.Clock` — retrying stops when the next
  backoff would overrun it (:class:`DeadlineExceededError`);
* keeps a per-host :class:`CircuitBreaker`: after
  ``failure_threshold`` consecutive failures the circuit opens and
  sends fail fast (:class:`CircuitOpenError`) until
  ``recovery_timeout_s`` has passed, when a half-open probe is allowed
  through — success closes the circuit, failure re-opens it.

Retries are only safe end to end because envelopes carry idempotency
keys and both endpoints dedupe replays through an
:class:`IdempotencyCache` — see :mod:`repro.net.messages` and
``docs/RESILIENCE.md`` for the contract.

Everything is instrumented through :mod:`repro.obs`:
``sor_net_retries_total``, ``sor_net_circuit_state``,
``sor_net_retry_backoff_seconds``, ``sor_net_resilient_sends_total``.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Protocol, TypeVar, runtime_checkable

import numpy as np

from repro.common.clock import Clock, ManualClock, SystemClock
from repro.common.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServerBusyError,
    TransportError,
    ValidationError,
)
from repro.net.http import HttpRequest, HttpResponse
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer

T = TypeVar("T")

#: Buckets for individual backoff sleeps (sub-second up to the cap).
_BACKOFF_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a :class:`ResilientClient` tries before giving up."""

    max_attempts: int = 4
    base_backoff_s: float = 0.2
    max_backoff_s: float = 30.0
    deadline_s: float = 120.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be at least 1")
        if self.base_backoff_s <= 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValidationError(
                "need 0 < base_backoff_s <= max_backoff_s for backoff to work"
            )
        if self.deadline_s <= 0:
            raise ValidationError("deadline_s must be positive")


@dataclass(frozen=True)
class BreakerPolicy:
    """When a host's circuit opens and how it recovers."""

    failure_threshold: int = 5
    recovery_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValidationError("failure_threshold must be at least 1")
        if self.recovery_timeout_s <= 0:
            raise ValidationError("recovery_timeout_s must be positive")


class CircuitState(enum.Enum):
    """The classic three breaker states; values are the gauge encoding."""

    CLOSED = 0
    OPEN = 1
    HALF_OPEN = 2


class CircuitBreaker:
    """One host's circuit: consecutive failures open it, a probe closes it.

    Thread-safe: many worker/driver threads share one breaker per host,
    so every state transition happens under a per-breaker lock —
    unlocked ``consecutive_failures += 1`` increments lose updates under
    contention and can miss the open threshold entirely. In HALF_OPEN
    exactly **one** in-flight probe is admitted (``_probe_in_flight``);
    concurrent callers fail fast with :class:`CircuitOpenError` until
    that probe resolves, so a barely-recovered host never takes a
    thundering herd.
    """

    def __init__(self, policy: BreakerPolicy, clock: Clock) -> None:
        self.policy = policy
        self.clock = clock
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._lock = threading.Lock()
        self._probe_in_flight = False

    def allow(self) -> bool:
        """Whether a send may go through right now.

        In OPEN state, once ``recovery_timeout_s`` has elapsed the
        breaker transitions to HALF_OPEN and admits a single probe;
        every other caller is rejected until the probe resolves via
        :meth:`record_success`, :meth:`record_failure` or
        :meth:`abort_probe`.
        """
        with self._lock:
            if self.state is CircuitState.CLOSED:
                return True
            if self.state is CircuitState.OPEN:
                if (
                    self.clock.now() - self.opened_at
                    >= self.policy.recovery_timeout_s
                ):
                    self.state = CircuitState.HALF_OPEN
                    self._probe_in_flight = True
                    return True
                return False
            # HALF_OPEN: admit at most one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """A send succeeded: close the circuit and forget failures."""
        with self._lock:
            self.state = CircuitState.CLOSED
            self.consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """A send failed: count it, opening the circuit at the threshold."""
        with self._lock:
            self._probe_in_flight = False
            self.consecutive_failures += 1
            if (
                self.state is CircuitState.HALF_OPEN
                or self.consecutive_failures >= self.policy.failure_threshold
            ):
                self.state = CircuitState.OPEN
                self.opened_at = self.clock.now()

    def abort_probe(self) -> None:
        """Release an admitted probe whose outcome will never be recorded.

        Called when the probe's operation dies on something that says
        nothing about the host's health (a deadline cut, a non-transport
        exception) — without this the token would leak and the breaker
        would reject every caller forever.
        """
        with self._lock:
            if self.state is CircuitState.HALF_OPEN:
                self._probe_in_flight = False


class IdempotencyCache:
    """A bounded key → response cache both endpoints use to dedupe replays.

    Insertion-ordered with FIFO eviction: replays arrive close behind
    the original, so a modest capacity suffices; the bound keeps a
    long-lived server from accumulating one entry per envelope forever.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValidationError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, HttpResponse]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> HttpResponse | None:
        """The cached response for ``key``, or None on first sight."""
        response = self._entries.get(key)
        if response is None:
            self.misses += 1
            return None
        self.hits += 1
        return response

    def put(self, key: str, response: HttpResponse) -> None:
        """Remember the response served for ``key``."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = response
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class ResilientClient:
    """Bounded retries + deadline + per-host circuit breaker over a network.

    ``send_raw`` must raise :class:`TransportError` on failure (the
    :class:`~repro.net.transport.Network` contract). Backoff sleeps go
    through the injected ``sleep`` callable; the default advances a
    :class:`~repro.common.clock.ManualClock` and is a no-op otherwise
    (the discrete-event simulator owns its timeline and must not be
    advanced mid-event).
    """

    def __init__(
        self,
        network: "SupportsSend",
        *,
        policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        clock: Clock | None = None,
        rng: np.random.Generator | None = None,
        sleep: Callable[[float], None] | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.network = network
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker_policy = (
            breaker_policy if breaker_policy is not None else BreakerPolicy()
        )
        self.clock: Clock = clock if clock is not None else SystemClock()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._sleep = sleep if sleep is not None else self._default_sleep
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._m_retries = self.metrics.counter(
            "sor_net_retries_total",
            "send attempts beyond the first, by destination host",
            labels=("host",),
        )
        self._m_sends = self.metrics.counter(
            "sor_net_resilient_sends_total",
            "logical sends through the resilient client, by outcome",
            labels=("outcome",),
        )
        self._m_send_children: dict[str, Any] = {}
        self._m_state = self.metrics.gauge(
            "sor_net_circuit_state",
            "per-host circuit state (0=closed, 1=open, 2=half-open)",
            labels=("host",),
        )
        self._m_backoff = self.metrics.histogram(
            "sor_net_retry_backoff_seconds",
            "individual backoff sleeps between retry attempts",
            buckets=_BACKOFF_BUCKETS,
        )
        self._m_elapsed = self.metrics.histogram(
            "sor_net_resilient_send_seconds",
            "clock seconds one logical send spent, retries included",
        )

    def _default_sleep(self, seconds: float) -> None:
        if isinstance(self.clock, ManualClock):
            self.clock.advance(seconds)

    def breaker_for(self, host: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``host``.

        Atomic: concurrent first-contact callers for the same host must
        observe the *same* breaker — a get-then-set race would hand each
        thread its own breaker and split the failure count across them.
        """
        with self._breakers_lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = CircuitBreaker(self.breaker_policy, self.clock)
                self._breakers[host] = breaker
            return breaker

    def _count_send(self, outcome: str) -> None:
        """Count one logical send on its labeled child, bound on first use."""
        child = self._m_send_children.get(outcome)
        if child is None:
            child = self._m_sends.labels(outcome=outcome)
            self._m_send_children[outcome] = child
        child.inc()

    def _next_backoff(self, previous: float) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, 3·prev))``."""
        low = self.policy.base_backoff_s
        high = max(low, 3.0 * previous)
        return min(self.policy.max_backoff_s, float(self._rng.uniform(low, high)))

    def send(self, request: HttpRequest) -> HttpResponse:
        """Send with retries; see :meth:`call` for the failure contract.

        An HTTP 503 — the server's admission queue refused the request —
        is converted to :class:`ServerBusyError` *inside* the retried
        operation, so backpressure rejections get the same jittered
        backoff as a dropped packet. Any other 5xx is a half-dead server
        and becomes a plain :class:`TransportError`: retried, and counted
        as a breaker *failure* so the circuit (and the shard router's
        failover) actually trips. 4xx means the request itself is wrong —
        retrying cannot help, so it is returned to the caller as-is. The
        envelope's idempotency key makes the eventual re-send safe.
        """

        def operation() -> HttpResponse:
            response = self.network.send(request)
            if response.status == 503:
                raise ServerBusyError(
                    f"host {request.host!r} is at capacity (admission rejected)"
                )
            if response.status >= 500:
                raise TransportError(
                    f"host {request.host!r} returned HTTP {response.status}"
                )
            return response

        return self.call(request.host, operation)

    def call(self, host: str, operation: Callable[[], T]) -> T:
        """Run ``operation`` against ``host`` with the full resilience stack.

        Generic so the GCM push channel (not an HTTP endpoint) shares
        the retry/breaker path. Raises :class:`CircuitOpenError` without
        attempting when the host's circuit is open,
        :class:`DeadlineExceededError` when the deadline cuts retrying
        short, and the last :class:`TransportError` when attempts are
        exhausted.
        """
        breaker = self.breaker_for(host)
        state_gauge = self._m_state.labels(host=host)
        started = self.clock.now()
        backoff = self.policy.base_backoff_s
        attempts = 0
        with self.tracer.span("net.resilient_send", host=host) as span:
            try:
                while True:
                    if not breaker.allow():
                        state_gauge.set(breaker.state.value)
                        self._count_send("circuit_open")
                        span.set_attribute("outcome", "circuit_open")
                        raise CircuitOpenError(
                            f"circuit for host {host!r} is open; send rejected"
                        )
                    state_gauge.set(breaker.state.value)
                    if self.clock.now() - started > self.policy.deadline_s:
                        # The admitted probe will never report an outcome.
                        breaker.abort_probe()
                        self._count_send("deadline")
                        span.set_attribute("outcome", "deadline")
                        raise DeadlineExceededError(
                            f"deadline of {self.policy.deadline_s}s exceeded "
                            f"after {attempts} attempts to {host!r}"
                        )
                    attempts += 1
                    if attempts > 1:
                        self._m_retries.inc(host=host)
                    try:
                        result = operation()
                    except (CircuitOpenError, DeadlineExceededError):
                        # A nested resilient call failed on *its* breaker or
                        # deadline — says nothing about this host's health.
                        breaker.abort_probe()
                        raise
                    except TransportError as exc:
                        breaker.record_failure()
                        state_gauge.set(breaker.state.value)
                        if attempts >= self.policy.max_attempts:
                            self._count_send("exhausted")
                            span.set_attribute("outcome", "exhausted")
                            raise TransportError(
                                f"send to {host!r} failed after {attempts} "
                                f"attempts: {exc}"
                            ) from exc
                        backoff = self._next_backoff(backoff)
                        if (
                            self.clock.now() + backoff - started
                            > self.policy.deadline_s
                        ):
                            self._count_send("deadline")
                            span.set_attribute("outcome", "deadline")
                            raise DeadlineExceededError(
                                f"deadline of {self.policy.deadline_s}s would be "
                                f"exceeded by the next backoff to {host!r}"
                            ) from exc
                        self._m_backoff.observe(backoff)
                        self._sleep(backoff)
                        continue
                    except BaseException:
                        # Non-transport exceptions (bugs, KeyboardInterrupt)
                        # must not leave a half-open probe token stranded.
                        breaker.abort_probe()
                        raise
                    breaker.record_success()
                    state_gauge.set(breaker.state.value)
                    self._count_send("ok")
                    span.set_attribute("outcome", "ok")
                    return result
            finally:
                span.set_attribute("attempts", attempts)
                self._m_elapsed.observe(max(0.0, self.clock.now() - started))


@runtime_checkable
class SupportsSend(Protocol):
    """Anything with ``send(HttpRequest) -> HttpResponse`` (the Network)."""

    def send(self, request: HttpRequest) -> HttpResponse:  # pragma: no cover
        """Deliver one request, raising ``TransportError`` on failure."""
        ...
