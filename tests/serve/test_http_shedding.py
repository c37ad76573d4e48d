"""Load-shedding and deadline semantics for the HTTP serving tier.

The admission-control contract: a bounded queue sheds with **429 +
``Retry-After``** when full, a blown deadline -- on arrival or while
queued -- yields **503**, and the ``ServeHttpMetrics`` shed/expired
counters account for **every** rejected request exactly (no rejection
is silent, none is double-counted).

Determinism: the coalescer-level tests inject a *gated* filler whose
``fill_batch`` blocks until the test releases it, so the queue can be
saturated reliably instead of racing real compute.  The HTTP server
flushes on its event-loop thread, where a blocked ``fill_batch`` would
stop the loop from reading the very requests meant to fill the queue;
there the test holds the flush trigger instead, and the loop keeps
admitting while flushes wait.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import ServeHttpMetrics
from repro.serve import BatchFiller
from repro.serve.http import (
    DeadlineCoalescer,
    DeadlineExpiredError,
    QueueFullError,
    HttpApiServer,
)

from tests.serve.conftest import http_post

pytestmark = pytest.mark.serve

N_COLS = 5
QUEUE_LIMIT = 3


class GatedFiller(BatchFiller):
    """A real filler whose ``fill_batch`` blocks until released."""

    def __init__(self, source) -> None:
        super().__init__(source)
        self.entered = threading.Event()
        self.release = threading.Event()

    def fill_batch(self, matrix):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "gate never released"
        return super().fill_batch(matrix)


@pytest.fixture
def held_server(served_model, monkeypatch):
    """A server with a queue of ``QUEUE_LIMIT`` whose flushes wait while
    the returned ``hold`` event is set.

    While held, the loop is told each due flush is 5 ms away, so it
    re-checks on a timer and keeps reading and admitting requests.
    """
    hold = threading.Event()
    next_flush_at = DeadlineCoalescer.next_flush_at

    def held_next_flush_at(coalescer):
        due = next_flush_at(coalescer)
        if due is not None and hold.is_set():
            return time.monotonic() + 0.005
        return due

    monkeypatch.setattr(DeadlineCoalescer, "next_flush_at", held_next_flush_at)
    api = HttpApiServer(
        served_model,
        port=0,
        max_batch_rows=1,
        flush_margin=0.0,
        queue_limit=QUEUE_LIMIT,
    )
    api.start()
    yield api, hold
    hold.clear()
    api.stop()


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


def _post_fill(api, *, timeout_ms, background=False):
    payload = {
        "row": [None] + [1.0] * (N_COLS - 1),
        "timeout_ms": timeout_ms,
    }
    if not background:
        return http_post(api.url + "/v1/fill", payload)
    result = {}

    def run():
        result["response"] = http_post(api.url + "/v1/fill", payload)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, result


def test_shedding_and_expiry_account_for_every_rejection(held_server):
    api, hold = held_server
    metrics = api.metrics

    # 1. One request is served through a flush of its own.
    status, _, _ = _post_fill(api, timeout_ms=30_000)
    assert status == 200

    # 2. Hold the flushes and fill the bounded queue: patient requests
    #    in every slot but the last, then one whose deadline will lapse
    #    while it waits.
    hold.set()
    queued = [
        _post_fill(api, timeout_ms=30_000, background=True)
        for _ in range(QUEUE_LIMIT - 1)
    ]
    expiring = _post_fill(api, timeout_ms=40, background=True)
    _wait_until(lambda: metrics.queue_depth == QUEUE_LIMIT)

    # 3. Admission control: the queue is full, so the next request is
    #    shed with 429 and a Retry-After header.
    status, body, headers = _post_fill(api, timeout_ms=30_000)
    assert status == 429
    assert "queue full" in body["error"]
    assert headers["Retry-After"] == str(api.retry_after_seconds)

    # 4. Deadline already blown on arrival: immediate 503, not queued
    #    (checked before admission, so a full queue cannot mask it).
    status, body, _ = _post_fill(api, timeout_ms=0)
    assert status == 503
    assert "deadline already blown" in body["error"]

    time.sleep(0.08)  # let the queued 40 ms deadline lapse

    # 5. Release the hold: the queued requests complete; the expired
    #    one comes back 503.
    hold.clear()
    for thread, result in queued:
        thread.join(timeout=10.0)
        assert result["response"][0] == 200
    thread, result = expiring
    thread.join(timeout=10.0)
    status, body, _ = result["response"]
    assert status == 503
    assert "expired while queued" in body["error"]

    # 6. Exact accounting: one shed (429), two expired (the on-arrival
    #    rejection and the in-queue lapse) -- nothing else.
    assert metrics.n_shed_queue_full == 1
    assert metrics.n_expired == 2
    assert metrics.n_rejected == 3
    assert metrics.n_errors == 0
    # Every admitted-and-live request was served through a flush.
    assert metrics.n_rows_coalesced == 1 + (QUEUE_LIMIT - 1)
    assert metrics.queue_depth_peak == QUEUE_LIMIT


def test_coalescer_level_shedding_counters(served_model):
    """Same contract one layer down, without HTTP in the loop."""
    metrics = ServeHttpMetrics()
    filler = GatedFiller(served_model)
    coalescer = DeadlineCoalescer(
        filler,
        max_batch_rows=1,
        flush_margin=0.0,
        queue_limit=2,
        metrics=metrics,
    )
    coalescer.start()
    row = np.full(N_COLS, np.nan)
    try:
        tickets = [coalescer.submit(row, timeout=30.0)]
        assert filler.entered.wait(timeout=5.0)
        tickets += [coalescer.submit(row, timeout=30.0) for _ in range(2)]
        with pytest.raises(QueueFullError):
            coalescer.submit(row, timeout=30.0)
        with pytest.raises(DeadlineExpiredError):
            coalescer.submit(row, timeout=-1.0)
        assert metrics.n_shed_queue_full == 1
        assert metrics.n_expired == 1
    finally:
        filler.release.set()
        coalescer.stop()
    for ticket in tickets:
        assert ticket.error is None and ticket.result is not None
    assert metrics.n_rows_coalesced == 3


def test_queue_depth_gauge_tracks_enqueue_and_flush(served_model):
    filler = GatedFiller(served_model)
    metrics = ServeHttpMetrics()
    coalescer = DeadlineCoalescer(
        filler,
        max_batch_rows=1,
        flush_margin=0.0,
        queue_limit=8,
        metrics=metrics,
    )
    coalescer.start()
    row = np.full(N_COLS, np.nan)
    try:
        coalescer.submit(row, timeout=30.0)
        assert filler.entered.wait(timeout=5.0)
        coalescer.submit(row, timeout=30.0)
        coalescer.submit(row, timeout=30.0)
        _wait_until(lambda: metrics.queue_depth == 2)
        assert metrics.queue_depth_peak == 2
    finally:
        filler.release.set()
        coalescer.stop()
    # After the final drain the gauge reads an empty queue.
    assert metrics.queue_depth == 0
