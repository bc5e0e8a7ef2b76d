"""Fixtures for the server tests."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import pytest

from repro.server.concurrency import RequestExecutor


class Caller:
    """One concurrent caller: a thread blocked in ``executor.submit(fn)``."""

    def __init__(self, executor: RequestExecutor, fn: Callable[[], Any]) -> None:
        self.running = threading.Event()
        self.outcome: Any = None

        def tracked() -> Any:
            self.running.set()
            return fn()

        def call() -> None:
            self.outcome = executor.submit(tracked)

        self._thread = threading.Thread(target=call, daemon=True)
        self._thread.start()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def result(self, timeout: float | None = None) -> Any:
        """Wait for the call to return, then return the request's value."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("the caller is still inside submit()")
        return self.outcome.result()


@pytest.fixture
def submit_from_thread() -> Callable[[RequestExecutor, Callable[[], Any]], Caller | None]:
    """Submit ``fn`` from a new thread, as one concurrent caller would.

    Returns once the gate has decided: the :class:`Caller` when it
    admitted the request (it runs, or waits for a slot), ``None`` when
    it refused it.
    """

    def submit(executor: RequestExecutor, fn: Callable[[], Any]) -> Caller | None:
        depth = executor.queue_depth()
        caller = Caller(executor, fn)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if caller.running.is_set() or executor.queue_depth() > depth:
                return caller
            if not caller.is_alive():
                return None if caller.outcome is None else caller
            time.sleep(0.001)
        raise AssertionError("the gate neither admitted nor refused the caller")

    return submit
