"""The chaos acceptance test: the full protocol survives a lossy link.

Seeded, ≥20 % loss on *each* leg. The resilient stack must complete the
end-to-end field test with zero lost schedules/readings and zero
duplicate ingestions, while the same impairments on the pre-resilience
client demonstrably lose data. The CI ``fault-smoke`` job runs it.
"""

import numpy as np
import pytest

from repro.common.errors import TransportError, ValidationError
from repro.net import HttpRequest, NetworkConditions
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.export import to_prometheus_text
from repro.server.system import SORSystem
from repro.sim.faults import run_field_faults
from repro.sim.scenarios import shop_feature_pipeline, syracuse_coffee_shops

LOSSY = NetworkConditions(
    drop_probability=0.25,
    response_drop_probability=0.25,
    latency_spike_probability=0.05,
    latency_spike_s=2.0,
)


def run_lossy(seed: int = 0, resilient: bool = True):
    return run_field_faults(network=LOSSY, kills=0, seed=seed, resilient=resilient)


class TestChaosScenario:
    def test_resilient_run_loses_nothing(self):
        report = run_lossy()
        assert report.data_intact
        assert report.phones == 4
        assert report.tasks_created == 4  # one per phone, none duplicated
        assert report.uploads_ingested == 4

    def test_the_faults_were_actually_injected(self):
        report = run_lossy()
        assert report.requests_dropped > 0
        assert report.responses_dropped > 0  # delivered-but-unacked happened
        assert report.retries_total > 0  # and retries papered over it

    def test_resilient_across_seeds(self):
        for seed in (1, 2):
            report = run_lossy(seed=seed)
            assert report.data_intact, f"seed {seed} lost data"

    def test_pre_resilience_client_demonstrably_loses_data(self):
        """The contrast the resilience layer exists for: same seed, same
        impairments, retries off → the field test loses data. What
        breaks is delivery; nothing that *was* acked goes missing."""
        report = run_lossy(resilient=False)
        assert not report.data_intact
        assert report.unscheduled_phones > 0
        assert not report.delivered
        assert report.durable

    def test_retry_and_breaker_metrics_in_report_registry(self):
        report = run_lossy()
        text = to_prometheus_text(report.metrics)
        assert "sor_net_retries_total" in text
        assert "sor_net_circuit_state" in text
        assert "sor_net_retry_backoff_seconds" in text


class TestChaosSpecValidation:
    def test_rejects_non_probability_drops(self):
        """The chaos run's knobs are checked before anything runs: the
        link's drop rates must be probabilities, the kill count must not
        be negative."""
        with pytest.raises(ValidationError):
            NetworkConditions(drop_probability=1.5)
        with pytest.raises(ValidationError):
            NetworkConditions(response_drop_probability=-0.1)
        with pytest.raises(ValidationError):
            run_field_faults(network=LOSSY, kills=-1)


class TestMetricsEndpointUnderChaos:
    def test_server_metrics_endpoint_exposes_resilience_metrics(self):
        """GET /metrics on the live server shows retry/breaker series."""
        registry = MetricsRegistry()
        with use_metrics(registry):
            system = SORSystem(seed=0, network_conditions=LOSSY)
            shop = syracuse_coffee_shops(np.random.default_rng(0))[0]
            system.deploy_place(shop, shop_feature_pipeline())
            system.deploy_phone(shop.place_id, budget=3)
            system.run()
            # Scrape through the same lossy network a monitor would use;
            # retry until a request survives both legs.
            response = None
            for _ in range(50):
                try:
                    response = system.network.send(
                        HttpRequest("GET", system.server.host, "/metrics")
                    )
                    break
                except TransportError:
                    continue
            assert response is not None and response.ok
            text = response.body.decode("utf-8")
            assert "sor_net_retries_total" in text
            assert "sor_net_circuit_state" in text
            assert "sor_net_resilient_sends_total" in text
