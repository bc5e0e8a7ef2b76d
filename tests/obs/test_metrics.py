"""Semantics of counters, gauges, histograms, timers and the registry."""

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ObservabilityError
from repro.obs import MetricsRegistry, NullRegistry
from repro.obs.export import to_prometheus_text


@pytest.fixture
def registry():
    return MetricsRegistry(clock=ManualClock(start=100.0))


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("sor_test_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("sor_test_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_labelled_series_are_independent(self, registry):
        counter = registry.counter("sor_req_total", labels=("type",))
        counter.inc(type="ping")
        counter.inc(3, type="push")
        assert counter.value(type="ping") == 1.0
        assert counter.value(type="push") == 3.0
        assert counter.value(type="never") == 0.0

    def test_cached_child_shares_series(self, registry):
        counter = registry.counter("sor_req_total", labels=("type",))
        child = counter.labels(type="ping")
        child.inc()
        child.inc()
        assert counter.value(type="ping") == 2.0

    def test_wrong_label_set_rejected(self, registry):
        counter = registry.counter("sor_req_total", labels=("type",))
        with pytest.raises(ObservabilityError):
            counter.inc(kind="ping")
        with pytest.raises(ObservabilityError):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("sor_coverage")
        gauge.set(0.75)
        assert gauge.value() == 0.75
        gauge.inc(0.1)
        gauge.dec(0.05)
        assert gauge.value() == pytest.approx(0.8)

    def test_gauges_can_go_negative(self, registry):
        gauge = registry.gauge("sor_delta")
        gauge.dec(2.0)
        assert gauge.value() == -2.0


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        hist = registry.histogram("sor_cost", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 3.0, 7.0, 100.0):
            hist.observe(value)
        child = hist.labels()
        cumulative = dict(child.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[5.0] == 2
        assert cumulative[10.0] == 3
        assert cumulative[float("inf")] == 4
        assert hist.count() == 4
        assert hist.total() == pytest.approx(110.5)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("sor_cost", buckets=(10.0, 1.0, 5.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("sor_dup", buckets=(1.0, 1.0))

    def test_cumulative_counts_never_decrease(self, registry):
        hist = registry.histogram("sor_cost", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.6, 7.0, 20.0):
            hist.observe(value)
        counts = [count for _, count in hist.labels().cumulative_buckets()]
        assert counts == sorted(counts)
        bounds = [bound for bound, _ in hist.labels().cumulative_buckets()]
        assert bounds == [1.0, 5.0, 10.0, float("inf")]


class TestTimer:
    def test_records_clock_elapsed_seconds(self, registry):
        clock = registry.clock
        timer = registry.timer("sor_step_seconds")
        with timer.time():
            clock.advance(0.25)
        hist = registry.get("sor_step_seconds")
        assert hist.count() == 1
        assert hist.total() == pytest.approx(0.25)

    def test_observe_directly(self, registry):
        timer = registry.timer("sor_step_seconds")
        timer.observe(1.5)
        assert registry.get("sor_step_seconds").total() == pytest.approx(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        assert registry.counter("sor_a_total") is registry.counter("sor_a_total")

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("sor_a_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("sor_a_total")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("sor_a_total", labels=("type",))
        with pytest.raises(ObservabilityError):
            registry.counter("sor_a_total", labels=("kind",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("9starts-with-digit")
        with pytest.raises(ObservabilityError):
            registry.counter("sor_ok_total", labels=("bad-label",))

    def test_reset_clears_series_keeps_registration(self, registry):
        counter = registry.counter("sor_a_total")
        counter.inc(5)
        registry.reset()
        assert registry.get("sor_a_total") is counter
        assert counter.value() == 0.0

    def test_collect_sorted_by_name(self, registry):
        registry.counter("sor_b_total")
        registry.counter("sor_a_total")
        assert [m.name for m in registry.collect()] == ["sor_a_total", "sor_b_total"]

    def test_existing_metric_still_checks_kind_and_labels(self, registry):
        registry.histogram("sor_h", labels=("kind",))
        assert registry.histogram("sor_h", labels=["kind"]) is registry.get("sor_h")
        with pytest.raises(ObservabilityError, match="registered as histogram"):
            registry.counter("sor_h", labels=("kind",))
        with pytest.raises(ObservabilityError, match="already registered with labels"):
            registry.histogram("sor_h")
        with pytest.raises(ObservabilityError, match="invalid label name"):
            registry.histogram("sor_h", labels=("bad-label",))


def _exercise(registry, *, direct):
    """One update sequence, through the shortcuts or through labels()."""
    counter = registry.counter("sor_c_total", "c")
    gauge = registry.gauge("sor_g", "g")
    histogram = registry.histogram("sor_h", "h", buckets=(1.0, 5.0))
    labeled = registry.counter("sor_l_total", "l", labels=("type", "status"))
    registry.gauge("sor_untouched", "never updated")
    registry.histogram("sor_untouched_h", "never observed", labels=("kind",))
    for step in range(3):
        if direct:
            counter.inc(step)
            gauge.set(step * 1.5)
            gauge.inc()
            gauge.dec(0.25)
            histogram.observe(step * 2.0)
            labeled.inc(type="rank", status="200")
        else:
            counter.labels().inc(step)
            gauge.labels().set(step * 1.5)
            gauge.labels().inc()
            gauge.labels().dec(0.25)
            histogram.labels().observe(step * 2.0)
            labeled.labels(status="200", type="rank").inc()
        registry.counter("sor_c_total", "c")  # a lookup of an existing metric


class TestExpositionUnchanged:
    """Unlabeled metrics cache their child and existing metrics are
    returned without the lock; the exposition text is what updating
    through ``labels()`` gives, and a series appears at its first update."""

    def test_shortcuts_export_what_labels_would(self):
        direct, explicit = MetricsRegistry(), MetricsRegistry()
        _exercise(direct, direct=True)
        _exercise(explicit, direct=False)
        assert to_prometheus_text(direct) == to_prometheus_text(explicit)

    def test_series_appear_at_their_first_update(self):
        registry = MetricsRegistry()
        counter = registry.counter("sor_c_total", "c")
        registry.histogram("sor_h", "h", buckets=(1.0,))
        assert to_prometheus_text(registry) == (
            "# HELP sor_c_total c\n"
            "# TYPE sor_c_total counter\n"
            "# HELP sor_h h\n"
            "# TYPE sor_h histogram\n"
        )
        counter.inc()
        registry.histogram("sor_h", "h", buckets=(1.0,)).observe(0.5)
        assert to_prometheus_text(registry) == (
            "# HELP sor_c_total c\n"
            "# TYPE sor_c_total counter\n"
            "sor_c_total 1\n"
            "# HELP sor_h h\n"
            "# TYPE sor_h histogram\n"
            'sor_h_bucket{le="1"} 1\n'
            'sor_h_bucket{le="+Inf"} 1\n'
            "sor_h_sum 0.5\n"
            "sor_h_count 1\n"
        )

    def test_reset_drops_the_cached_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("sor_c_total", "c")
        counter.inc(5)
        registry.reset()
        assert to_prometheus_text(registry) == (
            "# HELP sor_c_total c\n# TYPE sor_c_total counter\n"
        )
        counter.inc()
        assert counter.value() == 1.0
        assert "sor_c_total 1\n" in to_prometheus_text(registry)

    def test_a_labeled_metric_still_needs_its_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("sor_l_total", labels=("type",))
        with pytest.raises(ObservabilityError, match="takes labels"):
            counter.inc()
        with pytest.raises(ObservabilityError, match="takes labels"):
            counter.inc()
        assert to_prometheus_text(registry).count("sor_l_total{") == 0


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        null = NullRegistry()
        counter = null.counter("anything")
        counter.inc(7, type="x")
        assert counter.value() == 0.0
        gauge = null.gauge("g")
        gauge.set(3)
        gauge.dec()
        hist = null.histogram("h")
        hist.observe(1.0)
        assert hist.count() == 0
        timer = null.timer("t")
        with timer.time():
            pass


class TestQuantile:
    def test_nan_with_no_observations(self, registry):
        hist = registry.histogram("sor_q", buckets=[1.0, 2.0, 4.0])
        import math

        assert math.isnan(hist.quantile(0.5))

    def test_interpolates_within_bucket(self, registry):
        hist = registry.histogram("sor_q", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # rank 2 of 4 lands exactly at the (1,2] bucket's cumulative
        # count boundary... interpolate: p50 rank=2, cumulative (1.0,1),
        # (2.0,3): 1 + (2-1)/(3-1) * (2-1) = 1.5
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_clamps_to_highest_finite_bound(self, registry):
        hist = registry.histogram("sor_q", buckets=[1.0, 2.0])
        hist.observe(100.0)  # +Inf bucket only
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_rejects_out_of_range(self, registry):
        hist = registry.histogram("sor_q", buckets=[1.0])
        hist.observe(0.5)  # a child must exist for validation to run
        with pytest.raises(ObservabilityError):
            hist.quantile(1.5)


class TestThreadSafety:
    """Many threads hammering one metric must not lose updates."""

    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work):
        import threading

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_concurrent_counter_incs(self, registry):
        counter = registry.counter("sor_conc_total", labels=("kind",))

        def work():
            for _ in range(self.PER_THREAD):
                counter.inc(kind="a")

        self._hammer(work)
        assert counter.value(kind="a") == self.THREADS * self.PER_THREAD

    def test_concurrent_histogram_observes(self, registry):
        hist = registry.histogram("sor_conc_hist", buckets=[1.0, 2.0, 4.0])

        def work():
            for index in range(self.PER_THREAD):
                hist.observe(float(index % 5))

        self._hammer(work)
        expected_n = self.THREADS * self.PER_THREAD
        assert hist.count() == expected_n
        # sum of 0+1+2+3+4 per 5 observations, no torn adds
        assert hist.total() == pytest.approx(expected_n / 5 * 10)

    def test_concurrent_child_creation(self, registry):
        counter = registry.counter("sor_conc_children_total", labels=("k",))

        def work():
            for index in range(self.PER_THREAD):
                counter.inc(k=str(index % 16))

        self._hammer(work)
        total = sum(counter.value(k=str(k)) for k in range(16))
        assert total == self.THREADS * self.PER_THREAD
