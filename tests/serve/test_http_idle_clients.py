"""Idle and slow clients cost the HTTP server a socket, never a thread.

Every connection is served by the server's one event-loop thread, so
64 idle keep-alive connections and a client that drips its request
head a byte at a time must neither add threads, nor slow a concurrent
fill, nor hold up :meth:`~repro.obs.export.HttpService.stop`.  A head
past the stdlib line and header limits is refused instead of buffered.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.obs.export import MAX_HEADERS, MAX_LINE_BYTES
from repro.serve import BatchFiller
from repro.serve.http import HttpApiServer

from tests.serve.conftest import http_post, make_rank2_matrix

pytestmark = pytest.mark.serve

N_IDLE = 64


def _read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (socket.timeout, ConnectionResetError):
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def test_idle_and_dripping_clients_hold_no_thread(served_model):
    api = HttpApiServer(served_model, port=0, max_batch_rows=1)
    api.start()
    stop_dripping = threading.Event()
    idle = []
    drip_thread = None
    try:
        threads = threading.active_count()
        idle = [
            socket.create_connection(("127.0.0.1", api.port), timeout=10)
            for _ in range(N_IDLE)
        ]
        dripper = socket.create_connection(("127.0.0.1", api.port), timeout=10)
        idle.append(dripper)
        head = b"POST /v1/fill HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n"

        def drip() -> None:
            for byte in head:
                if stop_dripping.wait(0.05):
                    return
                dripper.sendall(bytes([byte]))

        drip_thread = threading.Thread(target=drip)
        drip_thread.start()
        time.sleep(0.2)  # the dripper is mid-head, the idle ones silent

        row = make_rank2_matrix(3, n_rows=1)[0]
        row[2] = np.nan
        started = time.perf_counter()
        status, body, _ = http_post(
            api.url + "/v1/fill",
            {"row": [None if np.isnan(v) else float(v) for v in row]},
        )
        elapsed = time.perf_counter() - started
        assert status == 200
        offline = BatchFiller(served_model).fill_batch(row[None, :])
        assert body["filled"] == [float(v) for v in offline.filled[0]]
        assert elapsed < 0.5
        # 65 open connections, and no thread but the dripper's own.
        assert threading.active_count() == threads + 1
    finally:
        stop_dripping.set()  # the dripper's head stays incomplete
        if drip_thread is not None:
            drip_thread.join(timeout=10)
        started = time.monotonic()
        api.stop()
        stopped_in = time.monotonic() - started
    assert stopped_in < 2.0
    for sock in idle:  # every connection was closed by the server
        sock.settimeout(5)
        assert _read_until_closed(sock) == b""
        sock.close()


@pytest.mark.parametrize(
    ("head", "status"),
    [
        (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", b"414"),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE_BYTES, b"431"),
        (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
            + b"\r\n",
            b"431",
        ),
    ],
    ids=["request-line", "header-line", "header-count"],
)
def test_heads_past_the_limits_are_refused(served_model, head, status):
    with HttpApiServer(served_model, port=0) as api:
        with socket.create_connection(("127.0.0.1", api.port), timeout=10) as sock:
            sock.sendall(head)
            reply = _read_until_closed(sock)
    assert reply.split(b"\r\n", 1)[0].split()[1] == status
    assert b"connection: close" in reply.lower()


def test_expect_100_continue_is_answered_before_the_body(served_model):
    body = b'{"row": [1.0, null, 2.0, 3.0, 4.0]}'
    with HttpApiServer(served_model, port=0, max_batch_rows=1) as api:
        with socket.create_connection(("127.0.0.1", api.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/fill HTTP/1.1\r\nHost: t\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = sock.recv(65536)
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
