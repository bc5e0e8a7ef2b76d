"""Tests for repro.net.transport."""

import numpy as np
import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ConfigurationError, TransportError, ValidationError
from repro.net import HttpRequest, HttpResponse, NetworkConditions, OutageWindow
from repro.net.transport import Network
from repro.obs import MetricsRegistry


class EchoEndpoint:
    def __init__(self):
        self.requests = []

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        self.requests.append(request)
        return HttpResponse(status=200, body=request.body)


def make_network(**conditions):
    network = Network(
        conditions=NetworkConditions(**conditions),
        rng=np.random.default_rng(0),
    )
    endpoint = EchoEndpoint()
    network.register("host-a", endpoint)
    return network, endpoint


class TestRouting:
    def test_delivers_and_returns_response(self):
        network, endpoint = make_network()
        response = network.send(HttpRequest("POST", "host-a", "/p", b"hello"))
        assert response.ok
        assert response.body == b"hello"
        assert len(endpoint.requests) == 1

    def test_unknown_host_raises(self):
        network, _ = make_network()
        with pytest.raises(TransportError, match="no endpoint"):
            network.send(HttpRequest("GET", "nowhere", "/"))

    def test_duplicate_registration_rejected(self):
        network, _ = make_network()
        with pytest.raises(TransportError):
            network.register("host-a", EchoEndpoint())

    def test_unregister(self):
        network, _ = make_network()
        network.unregister("host-a")
        assert not network.is_registered("host-a")
        with pytest.raises(TransportError):
            network.send(HttpRequest("GET", "host-a", "/"))

    def test_method_uppercased(self):
        assert HttpRequest("post", "h", "/").method == "POST"


class TestImpairments:
    def test_drops_raise_and_count(self):
        network, endpoint = make_network(drop_probability=1.0)
        with pytest.raises(TransportError, match="dropped"):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert network.stats.requests_dropped == 1
        assert endpoint.requests == []

    def test_partial_loss_rate(self):
        network, _ = make_network(drop_probability=0.5)
        delivered = 0
        for _ in range(200):
            try:
                network.send(HttpRequest("POST", "host-a", "/"))
                delivered += 1
            except TransportError:
                pass
        assert 60 < delivered < 140  # ~50% ± noise

    def test_latency_charged_to_manual_clock(self):
        clock = ManualClock()
        network = Network(
            conditions=NetworkConditions(base_latency_s=0.1, jitter_s=0.0),
            rng=np.random.default_rng(0),
            clock=clock,
        )
        network.register("host-a", EchoEndpoint())
        network.send(HttpRequest("POST", "host-a", "/"))
        assert clock.now() == pytest.approx(0.1)

    def test_invalid_conditions_rejected(self):
        with pytest.raises(ValidationError):
            NetworkConditions(drop_probability=1.5)
        with pytest.raises(ValidationError):
            NetworkConditions(response_drop_probability=-0.1)
        with pytest.raises(ValidationError):
            NetworkConditions(base_latency_s=-1.0)


class TestResponseLegDrops:
    def test_response_drop_happens_after_delivery(self):
        """The delivered-but-unacked case: the endpoint handled the
        request, but the sender sees a TransportError."""
        network, endpoint = make_network(response_drop_probability=1.0)
        with pytest.raises(TransportError, match="request delivered"):
            network.send(HttpRequest("POST", "host-a", "/", b"payload"))
        assert len(endpoint.requests) == 1  # the server DID act
        assert network.stats.responses_dropped == 1
        assert network.stats.requests_dropped == 0
        assert network.stats.responses_delivered == 0
        assert network.stats.bytes_received == 0

    def test_request_drop_happens_before_delivery(self):
        network, endpoint = make_network(drop_probability=1.0)
        with pytest.raises(TransportError):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert endpoint.requests == []
        assert network.stats.responses_dropped == 0


class TestPerHostConditions:
    def test_override_applies_to_one_host_only(self):
        network, endpoint_a = make_network()
        endpoint_b = EchoEndpoint()
        network.register("host-b", endpoint_b)
        network.set_host_conditions(
            "host-b", NetworkConditions(drop_probability=1.0)
        )
        assert network.send(HttpRequest("POST", "host-a", "/")).ok
        with pytest.raises(TransportError):
            network.send(HttpRequest("POST", "host-b", "/"))
        assert len(endpoint_a.requests) == 1
        assert endpoint_b.requests == []

    def test_clear_reverts_to_defaults(self):
        network, _ = make_network()
        flaky = NetworkConditions(drop_probability=1.0)
        network.set_host_conditions("host-a", flaky)
        assert network.conditions_for("host-a") == flaky
        network.clear_host_conditions("host-a")
        assert network.conditions_for("host-a") == network.conditions
        assert network.send(HttpRequest("POST", "host-a", "/")).ok


class TestLatencySpikes:
    def test_spike_replaces_sampled_latency(self):
        clock = ManualClock()
        network = Network(
            conditions=NetworkConditions(
                base_latency_s=0.05,
                jitter_s=0.0,
                latency_spike_probability=1.0,
                latency_spike_s=3.0,
            ),
            rng=np.random.default_rng(0),
            clock=clock,
        )
        network.register("host-a", EchoEndpoint())
        network.send(HttpRequest("POST", "host-a", "/"))
        assert clock.now() == pytest.approx(3.0)
        assert network.stats.total_latency_s == pytest.approx(3.0)

    def test_spike_parameters_validated(self):
        with pytest.raises(ValidationError):
            NetworkConditions(latency_spike_probability=2.0)
        with pytest.raises(ValidationError):
            NetworkConditions(latency_spike_s=-1.0)


class TestOutages:
    def make_clocked_network(self):
        clock = ManualClock()
        network = Network(
            conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
            rng=np.random.default_rng(0),
            time_source=clock,
        )
        network.register("host-a", EchoEndpoint())
        return network, clock

    def test_outage_silences_host_during_window(self):
        network, clock = self.make_clocked_network()
        network.schedule_outage(10.0, 20.0)
        assert network.send(HttpRequest("POST", "host-a", "/")).ok
        clock.set(10.0)
        with pytest.raises(TransportError, match="outage"):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert network.stats.outage_drops == 1
        clock.set(20.0)  # window is half-open: [start, end)
        assert network.send(HttpRequest("POST", "host-a", "/")).ok

    def test_outage_can_target_one_host(self):
        network, clock = self.make_clocked_network()
        network.register("host-b", EchoEndpoint())
        network.schedule_outage(0.0, 100.0, host="host-b")
        assert network.send(HttpRequest("POST", "host-a", "/")).ok
        with pytest.raises(TransportError, match="outage"):
            network.send(HttpRequest("POST", "host-b", "/"))

    def test_outage_requires_a_time_source(self):
        network, _ = make_network()  # no clock, no time_source
        with pytest.raises(ConfigurationError, match="time_source"):
            network.schedule_outage(0.0, 10.0)

    def test_window_validation_and_coverage(self):
        with pytest.raises(ValidationError):
            OutageWindow(start_s=5.0, end_s=5.0)
        window = OutageWindow(start_s=1.0, end_s=2.0, host="host-a")
        assert window.covers(1.5, "host-a")
        assert not window.covers(1.5, "host-b")
        assert not window.covers(2.0, "host-a")


class TestStats:
    def test_byte_and_request_counters(self):
        network, _ = make_network()
        network.send(HttpRequest("POST", "host-a", "/", b"abc"))
        network.send(HttpRequest("POST", "host-a", "/", b"wxyz"))
        assert network.stats.requests_sent == 2
        assert network.stats.bytes_sent == 7
        assert network.stats.bytes_received == 7  # echo
        assert network.stats.per_host_requests == {"host-a": 2}

    def test_unknown_host_does_not_skew_wire_stats(self):
        network, _ = make_network()
        with pytest.raises(TransportError):
            network.send(HttpRequest("GET", "nowhere", "/", b"lost"))
        assert network.stats.unknown_host_sends == 1
        assert network.stats.requests_sent == 0
        assert network.stats.bytes_sent == 0
        assert network.stats.per_host_requests == {}

    def test_failures_counted_by_reason(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        network = Network(
            conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
            rng=np.random.default_rng(0),
            time_source=clock,
            metrics=registry,
        )
        network.register("host-a", EchoEndpoint())
        failures = registry.counter("sor_net_failures_total", labels=("reason",))

        with pytest.raises(TransportError):
            network.send(HttpRequest("GET", "nowhere", "/"))
        assert failures.value(reason="unknown_host") == 1

        network.schedule_outage(0.0, 1.0)
        with pytest.raises(TransportError):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert failures.value(reason="outage") == 1
        clock.set(1.0)

        network.set_host_conditions(
            "host-a", NetworkConditions(drop_probability=1.0)
        )
        with pytest.raises(TransportError):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert failures.value(reason="request_dropped") == 1

        network.set_host_conditions(
            "host-a", NetworkConditions(response_drop_probability=1.0)
        )
        with pytest.raises(TransportError):
            network.send(HttpRequest("POST", "host-a", "/"))
        assert failures.value(reason="response_dropped") == 1
