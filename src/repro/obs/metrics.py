"""A dependency-free metrics registry: counters, gauges, histograms, timers.

Every hot path in the reproduction reports to one of these instruments so
the server's ``GET /metrics`` endpoint (and the ``repro obs`` CLI command)
can expose what the system actually did — requests handled, instants
evaluated by the greedy scheduler, flow iterations spent on aggregation,
bytes moved by the transport, rows touched in the database.

Design rules, in rough order of importance:

* **Cheap on the hot path.** ``Counter.labels(...)`` returns a child
  series whose ``inc`` is one float addition; callers on tight loops
  cache the child (or accumulate locally and report once per call).
* **Thread-safe.** The concurrent server increments counters and
  observes histograms from many request threads at once; every child
  series guards its state with a lock (`x += y` on a Python float is a
  read-modify-write that loses updates under races), and exposition
  snapshots series under the same locks.
* **Injectable.** Components accept a :class:`MetricsRegistry` and fall
  back to the process-global default (see :mod:`repro.obs`), so tests
  can pass a fresh registry — or :class:`NullRegistry` to turn the whole
  subsystem into no-ops.
* **Deterministic exposition.** Export order is sorted (metric name,
  then label values) so the Prometheus text is stable across runs.

The registry is get-or-create: asking twice for the same metric name
returns the same instrument, and asking with a conflicting kind or label
set raises :class:`~repro.common.errors.ObservabilityError`.
"""

from __future__ import annotations

import re
import threading
from typing import Iterator, Sequence

from repro.common.clock import Clock, SystemClock
from repro.common.errors import ObservabilityError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Generic histogram buckets (powers-of-ten ladder, wide enough for both
#: sub-millisecond timings and aggregate costs in the hundreds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: Buckets tuned for wall-clock seconds of in-process request handling.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def _validate_labels(label_names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ObservabilityError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names!r}")
    return names


class Metric:
    """Base class: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_names = _validate_labels(labels)
        self._series: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _child(self, labels: dict[str, object]) -> object:
        key = self._key(labels)
        child = self._series.get(key)
        if child is None:
            with self._lock:
                child = self._series.setdefault(key, self._new_child())
        return child

    def _new_child(self) -> object:  # pragma: no cover - subclass hook
        raise NotImplementedError

    def series(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """Yield ``(label_values, child)`` pairs in sorted label order.

        Snapshots the series map under the metric lock so exporters can
        run while request threads are still creating new label children.
        """
        with self._lock:
            items = list(self._series.items())
        return iter(sorted(items))

    def clear(self) -> None:
        """Drop every series (used by registry reset)."""
        with self._lock:
            self._series.clear()


class _CounterChild:
    """One counter series; ``inc`` is a single lock-guarded float addition."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up")
        with self._lock:
            self.value += amount


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def labels(self, **labels: object) -> _CounterChild:
        """The child series for ``labels`` (cache this on hot paths)."""
        return self._child(labels)  # type: ignore[return-value]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Increment the series for ``labels`` by ``amount`` (default 1)."""
        self.labels(**labels).inc(amount)

    def value(self, **labels: object) -> float:
        """Current value of the series for ``labels`` (0 if never touched)."""
        child = self._series.get(self._key(labels))
        return child.value if child is not None else 0.0  # type: ignore[union-attr]


class _GaugeChild:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Gauge(Metric):
    """A value that can go up and down (current coverage, queue depth)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def labels(self, **labels: object) -> _GaugeChild:
        """The child series for ``labels`` (cache this on hot paths)."""
        return self._child(labels)  # type: ignore[return-value]

    def set(self, value: float, **labels: object) -> None:
        """Set the series for ``labels`` to ``value``."""
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Increase the series for ``labels`` by ``amount``."""
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Decrease the series for ``labels`` by ``amount``."""
        self.labels(**labels).dec(amount)

    def value(self, **labels: object) -> float:
        """Current value of the series for ``labels`` (0 if never set)."""
        child = self._series.get(self._key(labels))
        return child.value if child is not None else 0.0  # type: ignore[union-attr]


class _HistogramChild:
    __slots__ = ("bucket_counts", "sum", "count", "_bounds", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    break

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self.bucket_counts)
            total = self.count
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self._bounds, counts):
            running += bucket_count
            out.append((bound, running))
        out.append((float("inf"), total))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        The same estimate ``histogram_quantile`` makes in PromQL: find
        the bucket the quantile rank lands in and interpolate between
        its bounds (the lowest bucket interpolates from zero). Values in
        the implicit +Inf bucket clamp to the highest finite bound.
        Returns ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError("quantile must be within [0, 1]")
        cumulative = self.cumulative_buckets()
        total = cumulative[-1][1]
        if total == 0:
            return float("nan")
        rank = q * total
        previous_bound, previous_count = 0.0, 0
        for bound, count in cumulative[:-1]:
            if count >= rank:
                if count == previous_count:
                    return bound
                fraction = (rank - previous_count) / (count - previous_count)
                return previous_bound + fraction * (bound - previous_bound)
            previous_bound, previous_count = bound, count
        return previous_bound  # beyond the last finite bucket: clamp


class Histogram(Metric):
    """A distribution over fixed, sorted upper-bound buckets.

    Values above the last bound land only in the implicit ``+Inf``
    bucket, exactly like Prometheus client libraries.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError("histogram buckets must be sorted and unique")
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def labels(self, **labels: object) -> _HistogramChild:
        """The child series for ``labels`` (cache this on hot paths)."""
        return self._child(labels)  # type: ignore[return-value]

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation in the series for ``labels``."""
        self.labels(**labels).observe(value)

    def count(self, **labels: object) -> int:
        """Number of observations recorded for ``labels``."""
        child = self._series.get(self._key(labels))
        return child.count if child is not None else 0  # type: ignore[union-attr]

    def total(self, **labels: object) -> float:
        """Sum of all observed values for ``labels``."""
        child = self._series.get(self._key(labels))
        return child.sum if child is not None else 0.0  # type: ignore[union-attr]

    def quantile(self, q: float, **labels: object) -> float:
        """Interpolated ``q``-quantile for ``labels`` (nan if unobserved)."""
        child = self._series.get(self._key(labels))
        if child is None:
            return float("nan")
        return child.quantile(q)  # type: ignore[union-attr]


class _TimerContext:
    """Context manager recording elapsed clock seconds into a histogram."""

    __slots__ = ("_timer", "_labels", "_start")

    def __init__(self, timer: "Timer", labels: dict[str, object]) -> None:
        self._timer = timer
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = self._timer.clock.now()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        elapsed = self._timer.clock.now() - self._start
        self._timer.histogram.observe(max(0.0, elapsed), **self._labels)
        return False


class Timer:
    """A histogram of elapsed seconds, driven by an injectable clock."""

    def __init__(self, histogram: Histogram, clock: Clock) -> None:
        self.histogram = histogram
        self.clock = clock

    def time(self, **labels: object) -> _TimerContext:
        """Context manager: observe the elapsed seconds of the block."""
        return _TimerContext(self, labels)

    def observe(self, seconds: float, **labels: object) -> None:
        """Record an externally measured duration."""
        self.histogram.observe(seconds, **labels)


class MetricsRegistry:
    """Get-or-create store of every metric in one process (or test)."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else SystemClock()
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, cls: type[Metric], name: str, help: str, labels: Sequence[str], **kwargs: object
    ) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.label_names != _validate_labels(labels):
                    raise ObservabilityError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names!r}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)  # type: ignore[arg-type]
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``name`` with fixed ``buckets``."""
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    def timer(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Timer:
        """Get or create a seconds histogram wrapped in a :class:`Timer`."""
        histogram = self.histogram(name, help, labels, buckets=buckets)
        return Timer(histogram, self.clock)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def collect(self) -> list[Metric]:
        """Every registered metric, sorted by name (for exporters)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop all series but keep registrations (between test cases)."""
        for metric in self._metrics.values():
            metric.clear()


class _NullInstrument:
    """Accepts the full Counter/Gauge/Histogram/Timer surface, does nothing."""

    def labels(self, **labels: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0

    def total(self, **labels: object) -> float:
        return 0.0

    def quantile(self, q: float, **labels: object) -> float:
        return float("nan")

    def time(self, **labels: object) -> "_NullInstrument":
        return self

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are shared no-ops.

    Inject into any component to switch its instrumentation off; the
    exporters see an empty registry.
    """

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):  # type: ignore[override]
        """A shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):  # type: ignore[override]
        """A shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(  # type: ignore[override]
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        """A shared no-op instrument."""
        return _NULL_INSTRUMENT

    def timer(  # type: ignore[override]
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        """A shared no-op instrument."""
        return _NULL_INSTRUMENT
