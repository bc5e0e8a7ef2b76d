"""Consistent-hash shard router for the sensing-server fleet.

A single :class:`~repro.server.server.SensingServer` cannot carry
millions of phones, so the fleet is partitioned: each shard is one
primary server (plus read-replicas fed by WAL shipping, see
:mod:`repro.server.sharding`) owning a slice of the place-category
space. The :class:`ShardRouter` is the fleet's front door — it speaks
the existing envelope protocol, so phones are completely unaware they
talk to a sharded deployment.

Routing is by *stable key*, hashed onto a :class:`HashRing` with
virtual nodes so membership changes move only ``~1/N`` of the keyspace:

========================  ==============================================
message type              routing key → destination
========================  ==============================================
PARTICIPATE               app's category → that shard's primary
SENSED_DATA               task id prefix ``{host}:`` → issuing primary
RANK_QUERY                category → a replica (round-robin), failing
                          over to siblings and finally the primary
PREFERENCES / PONG /      user-scoped state is replicated on every
LOCATION_REPORT           shard → fan out to all primaries
========================  ==============================================

Forwarding goes through a shared
:class:`~repro.net.resilience.ResilientClient`, so each backend host
gets its own circuit breaker and 5xx/transport failures trip failover.
A write-path forward that exhausts its retries is answered with the
standard 503 BUSY envelope: the phone's own resilient client backs off
and re-sends (idempotency keys make that safe), which is exactly the
window a failover promotion needs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import threading
from dataclasses import dataclass, field

from repro.common.errors import CodecError, TransportError, ValidationError
from repro.net.http import HttpRequest, HttpResponse, busy_response, metrics_response
from repro.net.messages import Envelope, MessageType
from repro.net.resilience import ResilientClient
from repro.net.transport import Network
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer


def _hash(value: str) -> int:
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Every node is hashed ``vnodes`` times onto a 64-bit circle; a key
    maps to the first vnode clockwise from its own hash. With enough
    vnodes the keyspace split is near-uniform, and adding a node moves
    only the keys that land on its new arcs.
    """

    def __init__(self, nodes: tuple[str, ...] = (), *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValidationError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._ring: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def add(self, node: str) -> None:
        """Insert ``node``'s virtual nodes (no-op if present)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for index in range(self.vnodes):
            bisect.insort(self._ring, (_hash(f"{node}#{index}"), node))

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first vnode clockwise of its hash)."""
        if not self._ring:
            raise ValidationError("hash ring is empty; no shards registered")
        index = bisect.bisect_left(self._ring, (_hash(key), ""))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]


@dataclass
class ShardInfo:
    """One shard's membership: its primary host and read-replica hosts."""

    shard_id: str
    primary: str
    replicas: tuple[str, ...] = ()


@dataclass
class RoutingTable:
    """Shared, mutable view of fleet membership and key ownership.

    The router reads it on every request; the cluster mutates it on
    membership change (add shard, promote replica). All mutation goes
    through methods holding ``_lock`` so the router never observes a
    half-updated table.
    """

    vnodes: int = 64
    shards: dict[str, ShardInfo] = field(default_factory=dict)
    app_category: dict[str, str] = field(default_factory=dict)
    # Directory-based placement: explicitly pinned categories override
    # the ring (pre-splitting hot keyspaces, like HBase region splits or
    # Redis hash tags). Unpinned categories fall back to consistent
    # hashing, which also governs rebalancing on membership change.
    category_pins: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._ring = HashRing(vnodes=self.vnodes)
        self._lock = threading.Lock()

    # -- membership ----------------------------------------------------
    def add_shard(self, info: ShardInfo) -> None:
        """Add (or replace) a shard and put it on the ring."""
        with self._lock:
            self.shards[info.shard_id] = info
            self._ring.add(info.shard_id)

    def set_replicas(self, shard_id: str, replicas: tuple[str, ...]) -> None:
        """Replace a shard's replica list (promotion consumes one)."""
        with self._lock:
            info = self.shards[shard_id]
            self.shards[shard_id] = ShardInfo(
                shard_id=info.shard_id, primary=info.primary, replicas=replicas
            )

    def learn_app(self, app_id: str, category: str) -> None:
        """Teach the router which category an application belongs to."""
        with self._lock:
            self.app_category[app_id] = category

    def pin_category(self, category: str, shard_id: str) -> None:
        """Pin ``category`` to ``shard_id``, overriding the hash ring."""
        with self._lock:
            if shard_id not in self.shards:
                raise ValidationError(f"unknown shard {shard_id!r}")
            self.category_pins[category] = shard_id

    # -- lookups -------------------------------------------------------
    def shard_ids(self) -> tuple[str, ...]:
        """All registered shard ids, sorted."""
        with self._lock:
            return tuple(sorted(self.shards))

    def shard_for_key(self, key: str) -> ShardInfo:
        """The shard owning an arbitrary key per the ring (no pins)."""
        with self._lock:
            return self.shards[self._ring.node_for(key)]

    def shard_for_category(self, category: str) -> ShardInfo:
        """The shard owning ``category`` (pin first, then ring)."""
        return self.shards[self.category_owner(category)]

    def category_owner(self, category: str) -> str:
        """The shard id owning ``category``: its pin, else the ring."""
        with self._lock:
            pinned = self.category_pins.get(category)
            if pinned is not None and pinned in self.shards:
                return pinned
            return self._ring.node_for(category)

    def shard_for_host(self, host: str) -> ShardInfo | None:
        """The shard whose primary is ``host`` (task-id prefix routing)."""
        with self._lock:
            for info in self.shards.values():
                if info.primary == host:
                    return info
        return None


class ShardRouter:
    """The fleet's envelope-speaking front door (an HTTP endpoint).

    Every RANK_QUERY, keyed or not, takes the read route (a replica
    first, the primary last): no server stores a rank query's reply.
    Every other message goes to primaries, as the module's table says.

    Without a ``client`` the router forwards through a
    :class:`~repro.net.resilience.ResilientClient` built on its own
    ``metrics`` and ``tracer``, so the forwarding hop's series and spans
    land with the router's.
    """

    def __init__(
        self,
        host: str,
        network: Network,
        table: RoutingTable,
        *,
        client: ResilientClient | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.host = host
        self.network = network
        self.table = table
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.client = (
            client
            if client is not None
            else ResilientClient(network, metrics=self.metrics, tracer=self.tracer)
        )
        self._rr = itertools.count()
        self._m_requests = self.metrics.counter(
            "sor_shard_router_requests_total",
            "requests forwarded by the shard router, by shard and role",
            labels=("shard", "role"),
        )
        self._m_misroutes = self.metrics.counter(
            "sor_shard_router_misroutes_total",
            "requests whose routing key was unknown (hash fallback used)",
        )
        self._m_read_failovers = self.metrics.counter(
            "sor_shard_router_read_failovers_total",
            "rank queries that failed over past an unreachable replica",
        )
        self._m_rejected = self.metrics.counter(
            "sor_shard_router_rejected_total",
            "requests answered busy because every candidate backend failed",
        )
        network.register(host, self)

    # -- endpoint ------------------------------------------------------
    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Route one request to the shard owning its key."""
        if request.method == "GET" and request.path == "/metrics":
            return metrics_response(self.metrics)
        try:
            envelope = Envelope.from_bytes(request.body)
        except CodecError:
            return HttpResponse(status=400)
        with self.tracer.span(
            "router.route", type=envelope.message_type.value
        ):
            return self._route(request, envelope)

    def _route(self, request: HttpRequest, envelope: Envelope) -> HttpResponse:
        kind = envelope.message_type
        payload = envelope.payload
        if kind is MessageType.RANK_QUERY:
            category = str(payload.get("category", ""))
            return self._route_read(request, category)
        if kind is MessageType.PARTICIPATE:
            app_id = str(payload.get("app_id", ""))
            category = self.table.app_category.get(app_id)
            if category is None:
                self._m_misroutes.inc()
                category = app_id
            return self._route_write(
                request, self.table.shard_for_category(category)
            )
        if kind is MessageType.SENSED_DATA:
            task_id = str(payload.get("task_id", ""))
            info = None
            if ":task-" in task_id:
                info = self.table.shard_for_host(task_id.rsplit(":task-", 1)[0])
            if info is None:
                self._m_misroutes.inc()
                info = self.table.shard_for_key(task_id)
            return self._route_write(request, info)
        if kind in (
            MessageType.PREFERENCES,
            MessageType.PONG,
            MessageType.LOCATION_REPORT,
        ):
            return self._route_fanout(request)
        # Anything else keys on the sender so the reply stays stable.
        return self._route_write(request, self.table.shard_for_key(envelope.sender))

    # -- forwarding ----------------------------------------------------
    def _forward(self, request: HttpRequest, host: str) -> HttpResponse:
        return self.client.send(
            HttpRequest(
                method=request.method,
                host=host,
                path=request.path,
                body=request.body,
                headers=request.headers,
            )
        )

    def _route_write(self, request: HttpRequest, info: ShardInfo) -> HttpResponse:
        self._m_requests.inc(shard=info.shard_id, role="primary")
        try:
            return self._forward(request, info.primary)
        except TransportError:
            # Retries exhausted / circuit open / deadline: answer BUSY so
            # the phone's own resilient client backs off and re-sends —
            # the window a failover promotion needs to take over.
            self._m_rejected.inc()
            return busy_response(self.host)

    def _route_read(self, request: HttpRequest, category: str) -> HttpResponse:
        info = self.table.shard_for_category(category)
        replicas = info.replicas
        candidates: list[str] = []
        if replicas:
            start = next(self._rr) % len(replicas)
            candidates.extend(replicas[start:] + replicas[:start])
        candidates.append(info.primary)
        for index, host in enumerate(candidates):
            role = "primary" if host == info.primary else "replica"
            self._m_requests.inc(shard=info.shard_id, role=role)
            try:
                return self._forward(request, host)
            except TransportError:
                if index < len(candidates) - 1:
                    self._m_read_failovers.inc()
        self._m_rejected.inc()
        return busy_response(self.host)

    def _route_fanout(self, request: HttpRequest) -> HttpResponse:
        """Apply a user-scoped mutation on every shard primary.

        User rows are replicated to all shards, so PREFERENCES / PONG /
        LOCATION_REPORT must land everywhere. The first shard's reply is
        returned; if *any* shard fails the phone gets BUSY and re-sends,
        which the already-updated shards dedupe via the idempotency key.
        """
        first: HttpResponse | None = None
        for shard_id in self.table.shard_ids():
            info = self.table.shards[shard_id]
            self._m_requests.inc(shard=info.shard_id, role="primary")
            try:
                response = self._forward(request, info.primary)
            except TransportError:
                self._m_rejected.inc()
                return busy_response(self.host)
            if first is None:
                first = response
        if first is None:
            self._m_rejected.inc()
            return busy_response(self.host)
        return first
