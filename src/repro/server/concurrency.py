"""Concurrency primitives for the sensing server's request path.

A real SOR deployment serves thousands of phones at once, so the server
cannot process envelopes one at a time. This module supplies the three
pieces the concurrent request path is built from:

* :class:`ConcurrencyConfig` — how many workers run handlers and how
  many requests may wait for a worker;
* :class:`ReadWriteLock` — a writer-preferring readers–writer lock.
  Rank queries (pure reads) share it; every mutating handler takes the
  exclusive side, which keeps the commit path single-writer so
  write-ahead-log append order always matches in-memory apply order;
* :class:`RequestExecutor` — a bounded admission queue feeding a fixed
  pool of daemon worker threads. ``submit`` never blocks: when the
  queue is full it returns ``None`` and the server answers with a typed
  "busy" envelope (HTTP 503, :func:`repro.net.http.busy_response`) that
  :class:`~repro.net.resilience.ResilientClient` retries with its usual
  jittered backoff. That is the system's backpressure: load the server
  cannot absorb is pushed back to the phones instead of growing an
  unbounded queue.

CPython's GIL means the pool does not parallelise pure computation; it
parallelises the *waiting* — request/response I/O, WAL fsyncs — which
is where a network server's wall-clock time actually goes. See
``docs/CONCURRENCY.md`` for the full threading model.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Shape of the server's worker pool and admission queue.

    ``queue_capacity`` bounds only the *waiting* requests; up to
    ``workers`` more are executing, so at most ``workers +
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


class _PendingResult:
    """The caller's handle on one submitted request."""

    __slots__ = ("_done", "_value", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None

    def _finish(self, value: Any, error: BaseException | None) -> None:
        self._value = value
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until the worker finished; re-raise what it raised."""
        if not self._done.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value


class RequestExecutor:
    """A fixed worker pool behind a bounded, non-blocking admission queue.

    ``submit`` either admits the work (returning a
    :class:`_PendingResult` the caller waits on) or refuses immediately
    (returning ``None``) when ``queue_capacity`` requests are already
    waiting. It never blocks the submitting thread, so backpressure is
    explicit and instant rather than hidden in a growing queue.

    ``submit`` and ``close`` are mutually exclusive via ``_lifecycle``:
    without that, a submitter could pass the ``_closed`` check, lose the
    CPU, and enqueue its work *behind* the shutdown sentinels — the
    workers exit first and the caller blocks forever on ``result()``.
    With the lock, every admitted request precedes every sentinel in
    queue order, so admitted work is always finished before the pool
    exits and late submits fail fast with ``None``.
    """

    def __init__(self, config: ConcurrencyConfig, *, name: str = "sor") -> None:
        self.config = config
        self._queue: "queue.Queue[tuple[Callable[[], Any], _PendingResult] | None]"
        self._queue = queue.Queue(maxsize=config.queue_capacity)
        self._closed = False
        self._lifecycle = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._work, name=f"{name}-worker-{index}", daemon=True
            )
            for index in range(config.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                return
            fn, pending = item
            try:
                pending._finish(fn(), None)
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                pending._finish(None, exc)

    def submit(self, fn: Callable[[], Any]) -> _PendingResult | None:
        """Admit ``fn`` for execution, or return ``None`` when full/closed."""
        pending = _PendingResult()
        with self._lifecycle:
            if self._closed:
                return None
            try:
                self._queue.put_nowait((fn, pending))
            except queue.Full:
                return None
        return pending

    def queue_depth(self) -> int:
        """Requests admitted but not yet picked up by a worker."""
        return self._queue.qsize()

    def close(self) -> None:
        """Stop accepting work and join the workers (drains the queue).

        ``_closed`` flips under ``_lifecycle``, so no submit can slip a
        work item in behind the sentinels; everything admitted before
        the flip sits ahead of them in FIFO order and is finished by a
        worker before it sees its sentinel and exits.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        # Sentinel puts may block on a full queue; that is fine — the
        # workers are still draining it, and no new work can arrive.
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
