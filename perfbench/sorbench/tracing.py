"""Span tracing from outside the program, for the traced run.

:class:`SpanRecorder` keeps spans in memory as ``(name, start_ns,
end_ns, span_id, parent_id, request_id)`` tuples. :func:`install`
replaces the public entry points of every layer (class attributes and
module bindings) with timing wrappers and returns a :class:`Patch` whose
``restore`` puts the originals back; nothing inside ``src/`` changes.

Context travels in a thread-local: the driver opens the root
``request`` span and sets the request id, every wrapper parents its span
on the innermost open span of its thread, and the
``RequestExecutor.submit`` wrapper carries the request id and parent
span across the worker hand-off (recording ``executor.queue_wait`` from
submit to pickup). Work on no request's behalf, such as the replication
pump, records spans with request id ``None``.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Self time of these spans, by layer, makes up a request's latency.
LAYER_OF_SPAN = {
    "request": "driver",
    "client.send": "client",
    "codec.encode": "codec",
    "codec.content_key": "codec",
    "codec.decode": "codec",
    "wire.send": "transport",
    "router.handle": "router",
    "server.handle": "server",
    "replica.handle": "server",
    "executor.run": "server",
    "rwlock.read_hold": "server",
    "rwlock.write_hold": "server",
    "executor.queue_wait": "queue_wait",
    "rwlock.read_wait": "lock_wait",
    "rwlock.write_wait": "lock_wait",
    "scheduler.schedule_task": "scheduler",
    "scheduler.add": "scheduler",
    "ranker.rank_many": "ranker",
    "ranker.aggregate": "ranker",
    "ranker.kemeny": "ranker",
    "db.table": "db",
    "wal.commit": "wal",
    "replication.ship": "replication",
    "replication.apply": "replication",
}

#: Every layer the accounting reports, in blocking-path order.
LAYERS = (
    "client", "codec", "transport", "router", "queue_wait", "lock_wait",
    "server", "scheduler", "ranker", "db", "wal", "replication",
)

Span = tuple  # (name, start_ns, end_ns, span_id, parent_id, request_id)


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.request: str | None = None


class SpanRecorder:
    """In-memory span and event store for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[tuple[str, float]] = []
        self.requests: dict[str, str] = {}  # request id -> request kind
        self._context = _Context()
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording a ``name`` span around every call."""
        context, ids, record = self._context, self._ids, self.spans.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = context.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((name, start, end, span_id, parent, context.request))

        return traced

    def request(self, request_id: str, kind: str) -> "_RequestScope":
        """The driver's root span for one request."""
        self.requests[request_id] = kind
        return _RequestScope(self, request_id)

    def event(self, name: str, amount: float) -> None:
        """Count ``amount`` toward the named event total."""
        self.events.append((name, amount))


class _RequestScope:
    __slots__ = ("_recorder", "_request", "_start", "_span_id")

    def __init__(self, recorder: SpanRecorder, request_id: str) -> None:
        self._recorder = recorder
        self._request = request_id

    def __enter__(self) -> None:
        context = self._recorder._context
        context.request = self._request
        self._span_id = next(self._recorder._ids)
        context.stack = [self._span_id]
        self._start = time.perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        context = self._recorder._context
        context.stack = []
        context.request = None
        self._recorder.spans.append(
            ("request", self._start, end, self._span_id, 0, self._request)
        )


class _TracedLock:
    """Records the wait for a lock side and the time it is held."""

    __slots__ = ("_recorder", "_inner", "_wait", "_hold", "_span_id", "_start")

    def __init__(
        self, recorder: SpanRecorder, inner: Any, wait: str, hold: str
    ) -> None:
        self._recorder = recorder
        self._inner = inner
        self._wait = wait
        self._hold = hold

    def __enter__(self) -> None:
        recorder = self._recorder
        context = recorder._context
        parent = context.stack[-1] if context.stack else 0
        start = time.perf_counter_ns()
        self._inner.__enter__()
        acquired = time.perf_counter_ns()
        recorder.spans.append(
            (self._wait, start, acquired, next(recorder._ids), parent, context.request)
        )
        self._span_id = next(recorder._ids)
        context.stack.append(self._span_id)
        self._start = acquired

    def __exit__(self, *exc: Any) -> Any:
        try:
            return self._inner.__exit__(*exc)
        finally:
            end = time.perf_counter_ns()
            context = self._recorder._context
            context.stack.pop()
            parent = context.stack[-1] if context.stack else 0
            self._recorder.spans.append(
                (self._hold, self._start, end, self._span_id, parent, context.request)
            )


# ----------------------------------------------------------------------
# installing and restoring the wrappers
# ----------------------------------------------------------------------
@dataclass
class Patch:
    """The wrapped attributes and their originals."""

    originals: list[tuple[Any, str, Any]] = field(default_factory=list)

    def set(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name``, remembering the original object."""
        original = vars(owner)[name]
        self.originals.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self.originals:
            owner, name, original = self.originals.pop()
            setattr(owner, name, original)


def wrapped_targets() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` the traced run wraps."""
    from repro.core.scheduling.objective import CoverageObjective
    from repro.db import replication
    from repro.db.replication import WalShipper
    from repro.db.table import Table
    from repro.db.wal import DurabilityManager
    from repro.net.messages import Envelope
    from repro.net.resilience import ResilientClient
    from repro.net.router import ShardRouter
    from repro.net.transport import Network
    from repro.server import ranker_service, sharding
    from repro.server.concurrency import ReadWriteLock, RequestExecutor
    from repro.server.ranker_service import PersonalizableRanker
    from repro.server.scheduler_service import SensingSchedulerService
    from repro.server.server import SensingServer
    from repro.server.sharding import ShardReplica

    return [
        (Envelope, "to_bytes"),
        (Envelope, "from_bytes"),
        (Envelope, "content_key"),
        (ResilientClient, "send"),
        (Network, "send"),
        (ShardRouter, "handle_request"),
        (SensingServer, "handle_request"),
        (ShardReplica, "handle_request"),
        (RequestExecutor, "submit"),
        (ReadWriteLock, "read"),
        (ReadWriteLock, "write"),
        (SensingSchedulerService, "schedule_task"),
        (CoverageObjective, "add"),
        (PersonalizableRanker, "rank_many"),
        (ranker_service, "aggregate_footrule"),
        (ranker_service, "weighted_kemeny_distance"),
        *((Table, method) for method in _TABLE_METHODS),
        (DurabilityManager, "commit"),
        (WalShipper, "ship"),
        (replication, "read_wal_file"),
        (sharding, "apply_records"),
    ]


_TABLE_METHODS = ("insert", "update", "delete", "select", "get", "count")

_SPAN_NAMES = {
    "to_bytes": "codec.encode",
    "from_bytes": "codec.decode",
    "content_key": "codec.content_key",
    "schedule_task": "scheduler.schedule_task",
    "add": "scheduler.add",
    "rank_many": "ranker.rank_many",
    "aggregate_footrule": "ranker.aggregate",
    "weighted_kemeny_distance": "ranker.kemeny",
    "commit": "wal.commit",
}

_HANDLER_SPANS = {
    "ShardRouter": "router.handle",
    "SensingServer": "server.handle",
    "ShardReplica": "replica.handle",
}


def install(recorder: SpanRecorder) -> Patch:
    """Wrap every target of :func:`wrapped_targets`; returns the patch."""
    patch = Patch()
    try:
        for owner, name in wrapped_targets():
            patch.set(owner, name, _replacement(recorder, owner, name))
    except BaseException:
        patch.restore()
        raise
    return patch


def unwrapped(originals: list[tuple[Any, str, Any]]) -> bool:
    """Whether every listed attribute is back to its original object."""
    return all(vars(owner)[name] is original for owner, name, original in originals)


def _replacement(recorder: SpanRecorder, owner: Any, name: str) -> Any:
    original = vars(owner)[name]
    owner_name = getattr(owner, "__name__", "")
    if isinstance(original, classmethod):
        return classmethod(recorder.wrap(original.__func__, _SPAN_NAMES[name]))
    if name == "handle_request":
        return recorder.wrap(original, _HANDLER_SPANS[owner_name])
    if name in ("read", "write"):
        return _lock_wrapper(recorder, original, name)
    if name == "submit":
        return _submit_wrapper(recorder, original)
    if name == "send":
        span = "client.send" if owner_name == "ResilientClient" else "wire.send"
        return recorder.wrap(original, span)
    if name == "ship":
        return _ship_wrapper(recorder, original)
    if name == "read_wal_file":
        return _read_wal_wrapper(recorder, original)
    if name == "apply_records":
        return _apply_wrapper(recorder, original)
    if name in _TABLE_METHODS:
        return recorder.wrap(original, "db.table")
    return recorder.wrap(original, _SPAN_NAMES[name])


def _lock_wrapper(recorder: SpanRecorder, original: Callable, side: str) -> Callable:
    wait, hold = f"rwlock.{side}_wait", f"rwlock.{side}_hold"

    @functools.wraps(original)
    def traced(lock: Any) -> _TracedLock:
        return _TracedLock(recorder, original(lock), wait, hold)

    return traced


def _submit_wrapper(recorder: SpanRecorder, original: Callable) -> Callable:
    context, ids, record = recorder._context, recorder._ids, recorder.spans.append
    clock = time.perf_counter_ns

    @functools.wraps(original)
    def traced(executor: Any, fn: Callable[[], Any]) -> Any:
        request = context.request
        parent = context.stack[-1] if context.stack else 0
        submitted = clock()

        def handed_off() -> Any:
            picked = clock()
            record(("executor.queue_wait", submitted, picked, next(ids), parent, request))
            saved = (context.request, context.stack)
            context.request, context.stack = request, [parent]
            span_id = next(ids)
            context.stack.append(span_id)
            try:
                return fn()
            finally:
                record(("executor.run", picked, clock(), span_id, parent, request))
                context.request, context.stack = saved

        pending = original(executor, handed_off)
        if pending is None:
            recorder.event("busy_rejections", 1)
        return pending

    return traced


def _ship_wrapper(recorder: SpanRecorder, original: Callable) -> Callable:
    timed = recorder.wrap(original, "replication.ship")

    @functools.wraps(original)
    def traced(shipper: Any, cursor: Any) -> Any:
        batch = timed(shipper, cursor)
        moved = batch.cursor
        shipped = (
            moved.offset - cursor.offset if moved.seq == cursor.seq else moved.offset
        )
        recorder.event("shipped_bytes", max(0, shipped))
        return batch

    return traced


def _read_wal_wrapper(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        recorder.event("parsed_bytes", result[1])
        return result

    return traced


def _apply_wrapper(recorder: SpanRecorder, original: Callable) -> Callable:
    timed = recorder.wrap(original, "replication.apply")

    @functools.wraps(original)
    def traced(database: Any, records: list, **kwargs: Any) -> Any:
        recorder.event("applied_records", len(records))
        return timed(database, records, **kwargs)

    return traced


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, int]:
    """span id -> its duration minus the time its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, _span_id, parent, _request in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for _name, start, end, span_id, _parent, _request in spans:
        inner = children.get(span_id)
        result[span_id] = (end - start) - (_covered(start, end, inner) if inner else 0)
    return result
