"""Lightweight trace spans with parent/child nesting.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("server.handle_request", host="server") as span:
        with tracer.span("scheduler.schedule_task", app_id="app-1"):
            ...
        span.set_attribute("type", "participate")

Entering a span pushes it on the tracer's active stack; the span opened
while another is active records that span as its parent. On exit the
span is closed against the tracer's clock and appended to a bounded ring
of finished :class:`SpanRecord` objects that ``tracer.export()`` turns
into plain dicts. An exception escaping the block is recorded on the
span (``error`` attribute) and re-raised.

The clock is injectable (:class:`~repro.common.clock.Clock`), so tests
drive span timing with :class:`~repro.common.clock.ManualClock`. One
tracer may serve many OS threads at once (the concurrent server runs
each request on its caller's thread and opens a span there): the
active-span stack is thread-local, so parent/child nesting is tracked
per thread, while the finished-span ring and the id counter are shared
across all of them.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.common.clock import Clock, SystemClock
from repro.common.errors import ObservabilityError


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly form (exporters and the CLI)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class Span:
    """An in-flight span; use only as a context manager."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attributes", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self._start = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach ``key=value`` to the span (overwrites)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._start = self._tracer._clock.now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None:
            self.attributes["error"] = repr(exc)
        self._tracer._pop(self)
        return False  # never swallow the exception


class Tracer:
    """Creates spans, tracks nesting, and keeps the last N finished spans."""

    def __init__(self, clock: Clock | None = None, max_finished: int = 2048) -> None:
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._local = threading.local()
        # deque.append is atomic under the GIL; itertools.count.__next__
        # is a single C call, so id allocation needs no lock either.
        self._finished: deque[SpanRecord] = deque(maxlen=max_finished)
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's active-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """A new span named ``name``; parent is the currently active span."""
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, next(self._ids), parent, name, dict(attributes))

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order (nesting violated)"
            )
        self._stack.pop()
        self._finished.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                start=span._start,
                end=self._clock.now(),
                attributes=span.attributes,
            )
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active_span(self) -> Span | None:
        """The innermost span currently open, if any."""
        return self._stack[-1] if self._stack else None

    def finished(self) -> tuple[SpanRecord, ...]:
        """Finished spans, oldest first (bounded by ``max_finished``)."""
        return tuple(self._finished)

    def export(self) -> list[dict[str, Any]]:
        """Finished spans as plain dicts (JSON exporter, CLI dump)."""
        return [record.to_dict() for record in self._finished]

    def reset(self) -> None:
        """Forget all finished spans (open spans stay open)."""
        self._finished.clear()


class _NullSpan:
    """Shared no-op span for :class:`NullTracer`."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer that records nothing (inject to disable tracing)."""

    def span(self, name: str, **attributes: Any) -> _NullSpan:  # type: ignore[override]
        """A shared no-op span."""
        return _NULL_SPAN
