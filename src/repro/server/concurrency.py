"""Concurrency primitives for the sensing server's request path.

A real SOR deployment serves thousands of phones at once, so the server
cannot process envelopes one at a time. This module supplies the three
pieces the concurrent request path is built from:

* :class:`ConcurrencyConfig` — how many requests may run at once and
  how many more may wait for a slot;
* :class:`ReadWriteLock` — a writer-preferring readers–writer lock.
  Rank queries (pure reads) share it; every mutating handler commits
  under the exclusive side, which keeps the commit path single-writer
  so write-ahead-log append order always matches in-memory apply order;
* :class:`RequestExecutor` — an admission gate. Each admitted request
  runs on the thread that submitted it, so a handler's spans nest under
  its caller's. When the gate is full ``submit`` returns ``None`` at
  once and the server answers with a typed "busy" envelope (HTTP 503,
  :func:`repro.net.http.busy_response`) that
  :class:`~repro.net.resilience.ResilientClient` retries with its usual
  jittered backoff. That is the system's backpressure: load the server
  cannot absorb is pushed back to the phones instead of growing an
  unbounded queue.

Under CPython's GIL, pure-Python computation in concurrent requests
does not run in parallel; they overlap the *waiting* — request/response
I/O, WAL fsyncs. Long numpy calls release the GIL, though, and a
PARTICIPATE makes its greedy picks (a few long numpy calls per pick)
under its application's lock only, outside this module's readers–writer
lock: it validates under the shared side and commits under the
exclusive side. So picks for two applications run on two cores. The
lock order is the application's lock, then the readers–writer lock.
See ``docs/CONCURRENCY.md`` for the full threading model.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Shape of the server's admission gate.

    ``workers`` bounds the requests running at once; ``queue_capacity``
    bounds only the ones *waiting* for a slot, so at most ``workers +
    queue_capacity`` requests are in the building at once.
    """

    workers: int = 8
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")
        if self.queue_capacity < 1:
            raise ValidationError("queue_capacity must be at least 1")


class ReadWriteLock:
    """A writer-preferring readers–writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone. A waiting writer blocks *new* readers from entering (writer
    preference), so a steady stream of rank queries can never starve
    the commit path.

    Not reentrant in either direction — the server's request path
    acquires it exactly once per request, so reentrancy would only
    paper over bugs.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        self._writer_done = threading.Condition(self._mutex)
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        """Hold the shared (reader) side for the ``with`` block."""
        with self._mutex:
            while self._writer_active or self._writers_waiting:
                self._writer_done.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._mutex:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._readers_done.notify_all()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        """Hold the exclusive (writer) side for the ``with`` block."""
        with self._mutex:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._readers_done.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._mutex:
                self._writer_active = False
                # Wake everyone: the next writer races the readers for
                # the mutex, and writer preference re-asserts itself on
                # the next read() entry check.
                self._readers_done.notify_all()
                self._writer_done.notify_all()


class _Outcome:
    """A finished request: ``result()`` returns its value or re-raises."""

    __slots__ = ("_value", "_error")

    def __init__(self, value: Any, error: Exception | None) -> None:
        self._value = value
        self._error = error

    def result(self, timeout: float | None = None) -> Any:
        """The request's value, or re-raise what it raised.

        The request has already run, so ``timeout`` never expires.
        """
        if self._error is not None:
            raise self._error
        return self._value


class RequestExecutor:
    """An admission gate that runs each request on the thread that submits it.

    At most ``workers`` admitted requests run at once, and at most
    ``queue_capacity`` more wait for a slot. ``submit`` refuses any
    other request at once with ``None``, so backpressure is explicit
    and instant rather than hidden in a growing queue.

    A freed slot goes to the first caller that claims it: a waiter the
    release woke, or a caller that arrives while the slot is free, which
    saves a thread switch under the GIL. So waiters are not served in
    strict arrival order, but every release wakes one and yields the GIL
    to it, and no waiter is left waiting once requests stop arriving.
    """

    def __init__(self, config: ConcurrencyConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)  # close() waits on it
        self._running = 0
        self._waiting = 0
        self._closed = False

    def submit(self, fn: Callable[[], Any]) -> _Outcome | None:
        """Run ``fn`` here once a slot is free and return its outcome, or
        return ``None`` at once when the gate is full or closed."""
        workers = self.config.workers
        with self._lock:
            if self._closed:
                return None
            if self._running >= workers:
                if self._waiting >= self.config.queue_capacity:
                    return None
                self._waiting += 1
                while self._running >= workers:
                    self._slot_free.wait()
                self._waiting -= 1
            self._running += 1
        try:
            return _Outcome(fn(), None)
        except Exception as exc:  # noqa: BLE001 - re-raised by result()
            return _Outcome(None, exc)
        finally:
            with self._lock:
                self._running -= 1
                woke = self._waiting > 0
                if woke:
                    self._slot_free.notify()
                elif not self._running:
                    self._idle.notify_all()
            if woke:
                time.sleep(0)  # hand the GIL to the waiter just woken

    def queue_depth(self) -> int:
        """Admitted requests still waiting for a slot."""
        return self._waiting

    def close(self) -> None:
        """Refuse new requests, and return once every admitted one has
        finished (idempotent)."""
        with self._lock:
            self._closed = True
            while self._running or self._waiting:
                self._idle.wait()
