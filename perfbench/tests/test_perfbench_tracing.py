"""Self time over nested and cross-thread spans; wrappers come off cleanly."""

from __future__ import annotations

import time

from repro.server.concurrency import ConcurrencyConfig, RequestExecutor

from sorbench.tracing import SpanRecorder, install, self_times, unwrapped, wrapped_targets


def _span(name, start, end, span_id, parent, request="r"):
    return (name, start, end, span_id, parent, request)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("request", 0, 100, 1, 0),
        _span("client.send", 10, 90, 2, 1),
        _span("wire.send", 20, 80, 3, 2),
        _span("db.table", 30, 40, 4, 3),
        _span("db.table", 50, 70, 5, 3),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 20, 2: 20, 3: 30, 4: 10, 5: 20}
    assert sum(selfs.values()) == 100  # self times partition the root


def test_overlapping_children_count_once_and_clip_to_parent():
    spans = [
        _span("server.handle", 0, 100, 1, 0),
        _span("executor.queue_wait", 10, 60, 2, 1),
        _span("executor.run", 40, 120, 3, 1),  # overlaps, ends past parent
    ]
    assert self_times(spans)[1] == 10


def test_cross_thread_spans_nest_under_the_submitting_span():
    recorder = SpanRecorder()
    executor = RequestExecutor(ConcurrencyConfig(workers=1, queue_capacity=4))
    patch = install(recorder)
    try:
        handle = recorder.wrap(lambda: executor.submit(lambda: time.sleep(0.01)).result(), "server.handle")
        with recorder.request("r1", "participate"):
            handle()
    finally:
        patch.restore()
        executor.close()
    by_name = {span[0]: span for span in recorder.spans}
    assert set(by_name) == {"request", "server.handle", "executor.queue_wait", "executor.run"}
    server = by_name["server.handle"]
    for name in ("executor.queue_wait", "executor.run"):
        child = by_name[name]
        assert child[4] == server[3]  # parented across the worker hand-off
        assert child[5] == "r1"  # and carrying the request id
    assert by_name["executor.queue_wait"][2] == by_name["executor.run"][1]
    selfs = self_times(recorder.spans)
    assert selfs[by_name["executor.run"][3]] >= 10_000_000
    root = by_name["request"]
    assert sum(selfs.values()) == root[2] - root[1]


def test_install_wraps_every_target_and_restore_removes_every_wrapper():
    before = [(owner, name, vars(owner)[name]) for owner, name in wrapped_targets()]
    patch = install(SpanRecorder())
    try:
        assert all(vars(owner)[name] is not original for owner, name, original in before)
    finally:
        patch.restore()
    assert unwrapped(before)
    assert not patch.originals
