"""Minimal HTTP request/response objects and the endpoint protocol.

SOR uses HTTP purely as a carrier: the interesting content is the binary
body. These classes model exactly what the message handlers on both
sides need — method, path, headers and body — without pulling in a real
HTTP stack. The two replies every server-side endpoint shares are built
here too: :func:`busy_response` for a refused request and
:func:`metrics_response` for ``GET /metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

from repro.net.messages import Envelope, MessageType
from repro.obs import CONTENT_TYPE, MetricsRegistry, to_prometheus_text

#: The ``Retry-After`` hint, in seconds, every BUSY reply carries.
BUSY_RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request addressed to a host registered on the network."""

    method: str
    host: str
    path: str
    body: bytes = b""
    headers: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", self.method.upper())


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response. 200 for success, 4xx/5xx for failures."""

    status: int
    body: bytes = b""
    headers: Mapping[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@runtime_checkable
class HttpEndpoint(Protocol):
    """Anything that can serve HTTP requests (phones and servers)."""

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one request synchronously."""
        ...


def busy_response(sender: str) -> HttpResponse:
    """HTTP 503 with a BUSY envelope: the reply to a refused request.

    Servers, replicas and the shard router all answer with it when they
    cannot take a request now; the phone's resilient client backs off
    and re-sends.
    """
    envelope = Envelope(
        message_type=MessageType.BUSY,
        sender=sender,
        recipient="",
        payload={"retry_after_s": BUSY_RETRY_AFTER_S},
    )
    return HttpResponse(
        status=503,
        body=envelope.to_bytes(),
        headers={"Retry-After": f"{BUSY_RETRY_AFTER_S:g}"},
    )


def metrics_response(metrics: MetricsRegistry) -> HttpResponse:
    """The ``GET /metrics`` reply: ``metrics`` in Prometheus text form."""
    body = to_prometheus_text(metrics).encode("utf-8")
    return HttpResponse(status=200, body=body, headers={"Content-Type": CONTENT_TYPE})
