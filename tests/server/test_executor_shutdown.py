"""Tests for the RequestExecutor submit/close interleaving.

``close()`` refuses new requests and returns only once every request
the gate admitted has finished: the ones running on their callers'
threads and the ones still waiting for a slot. These tests hammer
submits racing a close: every admitted request (submit returned a
handle) must complete, and every late submit must fail fast with
``None``.
"""

import threading
import time

from repro.server.concurrency import ConcurrencyConfig, RequestExecutor


def make_executor(workers=4, capacity=16):
    return RequestExecutor(
        ConcurrencyConfig(workers=workers, queue_capacity=capacity)
    )


class TestSubmitCloseRace:
    def test_every_admitted_request_finishes(self):
        for attempt in range(20):  # the race needs repetition to surface
            executor = make_executor(workers=2, capacity=8)
            admitted = []
            rejected = []
            start = threading.Barrier(5)

            def submitter():
                start.wait()
                for index in range(50):
                    handle = executor.submit(lambda index=index: index)
                    if handle is None:
                        rejected.append(index)
                    else:
                        admitted.append(handle)

            def closer():
                start.wait()
                time.sleep(0.0005)
                executor.close()

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            threads.append(threading.Thread(target=closer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # close() waited for every admitted request, so every
            # handle resolves.
            for handle in admitted:
                handle.result(timeout=5.0)

    def test_submit_after_close_returns_none(self):
        executor = make_executor()
        executor.close()
        assert executor.submit(lambda: 1) is None

    def test_close_drains_a_full_queue(self, submit_from_thread):
        executor = make_executor(workers=1, capacity=4)
        gate = threading.Event()
        started = threading.Event()

        def occupy():
            started.set()
            gate.wait()
            return "held"

        # Callers run their own requests, so helper threads hold the
        # slot and fill the queue.
        first = submit_from_thread(executor, occupy)  # occupies the only slot
        assert started.wait(timeout=1.0)  # ...before the backlog fills the queue
        backlog = [
            submit_from_thread(executor, lambda index=index: index)
            for index in range(4)
        ]
        assert all(handle is not None for handle in backlog)
        closer = threading.Thread(target=executor.close)
        closer.start()
        gate.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        assert first.result(timeout=1.0) == "held"
        assert [handle.result(timeout=1.0) for handle in backlog] == [0, 1, 2, 3]

    def test_close_is_idempotent(self):
        executor = make_executor()
        executor.close()
        executor.close()  # second call must return at once

    def test_worker_exception_is_relayed_not_swallowed(self):
        executor = make_executor()

        def boom():
            raise RuntimeError("handler crashed")

        handle = executor.submit(boom)
        try:
            handle.result(timeout=1.0)
        except RuntimeError as exc:
            assert "handler crashed" in str(exc)
        else:
            raise AssertionError("expected the handler's error to re-raise")
        executor.close()
