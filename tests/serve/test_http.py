"""Tests for the HTTP serving tier: endpoints, coalescer, lifecycle.

The load-bearing contract: a row served over HTTP through the
deadline coalescer is **bit-identical** to the same row served through
:meth:`repro.serve.BatchFiller.fill_batch` offline -- JSON floats
round-trip exactly (shortest-round-trip repr), and the coalesced flush
runs the very same kernel.  Everything else here is the protocol
surface: validation (400), shedding (429), expiry (503), routing
(404), and the shared :class:`repro.obs.export.HttpService` lifecycle.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.recommend import BasketRecommender
from repro.core.whatif import Scenario, evaluate_scenario
from repro.obs.export import HttpService, MetricsServer, ServiceHandler
from repro.obs.metrics import ServeHttpMetrics
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import get_tracer, set_tracing
from repro.serve import BatchFiller, ModelRegistry
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_TIMEOUT_SECONDS,
    CoalescerStoppedError,
    DeadlineCoalescer,
    DeadlineExpiredError,
    HttpApiServer,
    _BadRequest,
    _Ticket,
)

from tests.serve.conftest import http_get, http_post, make_rank2_matrix

pytestmark = pytest.mark.serve

N_COLS = 5


@pytest.fixture
def server(served_model):
    """A live API server on an ephemeral port.

    A lone request is flushed at ``deadline - flush_margin``, so the
    wide margin here makes single-request tests flush ~10 ms after
    enqueue instead of sitting out the whole deadline.
    """
    api = HttpApiServer(
        served_model,
        port=0,
        max_batch_rows=8,
        flush_margin=0.05,
        default_timeout_ms=60.0,
    )
    api.start()
    yield api
    api.stop()


def _row_payload(row) -> list:
    return [None if np.isnan(value) else float(value) for value in row]


class TestFillEndpoint:
    def test_served_row_bit_identical_to_offline_batch(
        self, server, served_model
    ):
        row = make_rank2_matrix(3, n_rows=1)[0]
        row[1] = np.nan
        row[3] = np.nan
        status, body, _ = http_post(
            server.url + "/v1/fill", {"row": _row_payload(row)}
        )
        assert status == 200
        offline = BatchFiller(served_model).fill_batch(row[None, :])
        # Exact equality, not approx: JSON round-trips float64 bits.
        assert body["filled"] == [float(v) for v in offline.filled[0]]
        assert body["case"] == offline.cases[0]
        assert body["version"] == 1
        assert body["fingerprint"] == served_model.fingerprint()
        assert body["coalesced_rows"] >= 1

    def test_complete_row_passes_through_untouched(self, server):
        row = make_rank2_matrix(4, n_rows=1)[0]
        status, body, _ = http_post(
            server.url + "/v1/fill", {"row": _row_payload(row)}
        )
        assert status == 200
        assert body["case"] == "no-holes"
        assert body["filled"] == [float(v) for v in row]

    @pytest.mark.parametrize(
        ("payload", "fragment"),
        [
            ({}, "must be a JSON array"),
            ({"row": "nope"}, "must be a JSON array"),
            ({"row": [1.0, 2.0]}, "expects 5"),
            ({"row": [1.0, None, None, None, "x"]}, "number or null"),
            ({"row": [1.0, None, None, None, True]}, "number or null"),
            ({"row": [0.0, 1.0, 2.0, 3.0, 4.0], "timeout_ms": "soon"},
             "timeout_ms"),
        ],
    )
    def test_validation_failures_are_400(self, server, payload, fragment):
        status, body, _ = http_post(server.url + "/v1/fill", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_infinity_cell_rejected(self, server):
        status, body, _ = http_post(
            server.url + "/v1/fill", {"row": [1e999, 1, 2, 3, 4]}
        )
        assert status == 400
        assert "infinite" in body["error"]

    def test_non_object_body_rejected(self, server):
        status, body, _ = http_post(server.url + "/v1/fill", [1, 2, 3])
        assert status == 400
        assert "JSON object" in body["error"]

    def test_bad_requests_are_counted(self, server):
        http_post(server.url + "/v1/fill", {"row": [1.0]})
        assert server.metrics.n_bad_requests == 1
        assert server.metrics.n_fill_requests == 1

    def test_non_finite_timeout_is_400_and_not_fatal(self, server):
        """Regression: json.loads parses Infinity/NaN; before the
        finiteness check an infinite deadline overflowed the batcher's
        condition wait and killed the coalescer thread for good."""
        row = [0.0, 1.0, 2.0, 3.0, 4.0]
        for bad in (float("inf"), float("-inf"), float("nan")):
            status, body, _ = http_post(
                server.url + "/v1/fill", {"row": row, "timeout_ms": bad}
            )
            assert status == 400
            assert "finite" in body["error"]
        # The batcher survived: a normal request still serves.
        status, body, _ = http_post(server.url + "/v1/fill", {"row": row})
        assert status == 200
        assert server.coalescer.running


class TestWhatifEndpoint:
    def test_matches_evaluate_scenario(self, server, served_model):
        scenario = Scenario(fixed={"col0": 6.0}, scaled={"col2": 1.5})
        expected = evaluate_scenario(served_model, scenario)
        status, body, _ = http_post(
            server.url + "/v1/whatif",
            {"set": {"col0": 6.0}, "scale": {"col2": 1.5}},
        )
        assert status == 200
        assert body["case"] == expected.case
        assert sorted(body["specified"]) == sorted(expected.specified)
        for name in served_model.schema_.names:
            assert body["values"][name] == expected[name], name

    @pytest.mark.parametrize(
        ("payload", "fragment"),
        [
            ({}, "at least one attribute"),
            ({"set": {"nope": 1.0}}, "unknown attribute"),
            ({"set": {"col0": 1.0}, "scale": {"col0": 2.0}},
             "both set and scaled"),
            ({"set": {"col0": "much"}}, "must be a number"),
            ({"set": [1, 2]}, "JSON object"),
        ],
    )
    def test_validation_failures_are_400(self, server, payload, fragment):
        status, body, _ = http_post(server.url + "/v1/whatif", payload)
        assert status == 400
        assert fragment in body["error"]


class TestOutlierEndpoint:
    def test_residual_matches_model_reconstruction(
        self, server, served_model
    ):
        row = make_rank2_matrix(5, n_rows=1)[0]
        status, body, _ = http_post(
            server.url + "/v1/outlier", {"row": _row_payload(row)}
        )
        assert status == 200
        reconstructed = served_model.reconstruct(row[None, :])[0]
        assert body["reconstructed"] == [float(v) for v in reconstructed]
        assert body["residual"] == float(
            np.linalg.norm(row - reconstructed)
        )
        assert body["cell_errors"] == [
            float(v) for v in (row - reconstructed)
        ]

    def test_incomplete_row_rejected(self, server):
        status, body, _ = http_post(
            server.url + "/v1/outlier", {"row": [1.0, None, 2.0, 3.0, 4.0]}
        )
        assert status == 400
        assert "complete row" in body["error"]


class TestRecommendEndpoint:
    def test_matches_basket_recommender(self, server, served_model):
        basket = {"col0": 4.0, "col1": 9.0}
        expected = BasketRecommender(served_model).recommend(basket, top_n=2)
        status, body, _ = http_post(
            server.url + "/v1/recommend", {"basket": basket, "top_n": 2}
        )
        assert status == 200
        assert [r["product"] for r in body["recommendations"]] == [
            r.product for r in expected
        ]
        assert [r["predicted_spend"] for r in body["recommendations"]] == [
            r.predicted_spend for r in expected
        ]
        assert [r["uplift"] for r in body["recommendations"]] == [
            r.uplift for r in expected
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"basket": {}},
            {"basket": {"unknown_product": 1.0}},
            {"basket": {"col0": 1.0}, "top_n": "three"},
            {"basket": {"col0": 1.0}, "ranking": "chaotic"},
        ],
    )
    def test_validation_failures_are_400(self, server, payload):
        status, _, _ = http_post(server.url + "/v1/recommend", payload)
        assert status == 400


class TestGetEndpoints:
    def test_models_describes_the_served_version(self, server, served_model):
        status, body, _ = http_get(server.url + "/v1/models")
        assert status == 200
        current = body["current"]
        assert current["version"] == 1
        assert current["fingerprint"] == served_model.fingerprint()
        assert current["k"] == served_model.k
        assert current["n_rows"] == served_model.n_rows_
        assert current["columns"] == served_model.schema_.names
        assert current["published_at"] > 0

    def test_healthz_ok(self, server):
        status, body, _ = http_get(server.url + "/healthz")
        assert (status, body["status"]) == (200, "ok")
        assert body["version"] == 1

    def test_unpublished_registry_is_503_but_models_is_200(self):
        api = HttpApiServer(ModelRegistry(), port=0)
        api.start()
        try:
            status, body, _ = http_get(api.url + "/healthz")
            assert status == 503
            status, body, _ = http_get(api.url + "/v1/models")
            assert (status, body["current"]) == (200, None)
            status, body, _ = http_post(api.url + "/v1/fill", {"row": []})
            assert status == 503
            assert "no model published" in body["error"]
        finally:
            api.stop()

    def test_unknown_paths_are_404(self, server):
        assert http_get(server.url + "/v1/nope")[0] == 404
        assert http_post(server.url + "/v1/nope", {})[0] == 404

    def test_healthz_503_when_batcher_thread_dead(self, server):
        """Health must reflect thread liveness, not lifecycle flags."""
        dead = threading.Thread(target=lambda: None)
        dead.start()
        dead.join()
        real = server.coalescer._thread
        server.coalescer._thread = dead
        try:
            status, body, _ = http_get(server.url + "/healthz")
            assert status == 503
            assert "coalescer" in body["error"]
        finally:
            server.coalescer._thread = real
        assert http_get(server.url + "/healthz")[0] == 200


class TestKeepAliveSafety:
    """Rejected-without-reading bodies must not bleed into the next
    request on an HTTP/1.1 keep-alive connection."""

    @staticmethod
    def _raw_post(server, headers: str, body: bytes) -> bytes:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            sock.sendall(
                (
                    "POST /v1/fill HTTP/1.1\r\nHost: t\r\n"
                    "Content-Type: application/json\r\n"
                    f"{headers}\r\n"
                ).encode("ascii")
                + body
            )
            response = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break  # server closed the connection
                response += chunk
        return response

    def test_oversized_body_rejected_and_connection_closed(self, server):
        declared = MAX_BODY_BYTES + 1
        # Send only a sliver of the declared body: the server must not
        # read it, respond 400, and hang up (instead of parsing the
        # leftover bytes as the next request line).
        response = self._raw_post(
            server, f"Content-Length: {declared}\r\n", b'{"row": [1,'
        )
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"connection: close" in response.lower()

    def test_chunked_body_rejected_and_connection_closed(self, server):
        response = self._raw_post(
            server,
            "Transfer-Encoding: chunked\r\n",
            b"5\r\n{\"row\r\n0\r\n\r\n",
        )
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"connection: close" in response.lower()

    def test_unroutable_post_closes_connection(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            sock.sendall(
                b"POST /v1/nope HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 8\r\n\r\n"
            )  # body intentionally never sent
            response = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                response += chunk
        assert b"404" in response.split(b"\r\n", 1)[0]
        assert b"connection: close" in response.lower()


def _holey_row() -> np.ndarray:
    row = make_rank2_matrix(3, n_rows=1)[0]
    row[1] = np.nan
    return row


class TestReplyStall:
    """A reply sent as headers, then body, in two small writes waits out
    a Nagle/delayed-ACK stall (~40 ms) on every keep-alive request."""

    @pytest.fixture
    def accepted(self, monkeypatch):
        """Per accepted connection: its TCP_NODELAY flag and the sizes
        of every write made to its ``wfile``."""
        seen = []
        original = ServiceHandler.setup

        def setup(handler):
            original(handler)
            writes = []
            write = handler.wfile.write

            def counting_write(data):
                writes.append(len(data))
                return write(data)

            handler.wfile.write = counting_write
            nodelay = handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            seen.append((type(handler).__name__, nodelay, writes))

        monkeypatch.setattr(ServiceHandler, "setup", setup)
        return seen

    def test_nodelay_sockets_and_one_write_per_reply(self, accepted, served_model):
        registry = MetricsRegistry()
        registry.counter("demo_total", "Demo.").inc()
        api = HttpApiServer(served_model, port=0, max_batch_rows=1)
        with api, MetricsServer(registry, port=0) as metrics:
            status, body, _ = http_post(
                api.url + "/v1/fill", {"row": _row_payload(_holey_row())}
            )
            assert status == 200 and body["filled"]
            with urllib.request.urlopen(metrics.url, timeout=10) as reply:
                assert b"demo_total 1.0" in reply.read()
        handlers = sorted(name for name, _, _ in accepted)
        assert handlers == ["_BoundApiHandler", "_BoundMetricsHandler"]
        for _, nodelay, writes in accepted:
            assert nodelay
            assert len(writes) == 1

    def test_keepalive_round_trips_do_not_stall(self, served_model):
        body = json.dumps({"row": _row_payload(_holey_row())}).encode()
        headers = {"Content-Type": "application/json"}
        seconds = []
        with HttpApiServer(served_model, port=0, max_batch_rows=1) as api:
            conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=10)
            try:
                for _ in range(50):
                    started = time.perf_counter()
                    conn.request("POST", "/v1/fill", body=body, headers=headers)
                    reply = conn.getresponse()
                    reply.read()
                    seconds.append(time.perf_counter() - started)
                    assert reply.status == 200
            finally:
                conn.close()
        assert statistics.median(seconds) < 0.020


class TestRequestSpans:
    def test_traced_fill_links_request_to_its_flush(self, served_model):
        tracer = get_tracer()
        tracer.clear()
        set_tracing(True)
        try:
            with HttpApiServer(served_model, port=0, max_batch_rows=1) as api:
                status, _, _ = http_post(
                    api.url + "/v1/fill", {"row": _row_payload(_holey_row())}
                )
                assert status == 200
                # The handler closes its span just after the reply leaves.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not any(
                    s["name"] == "serve.http.request" for s in tracer.spans()
                ):
                    time.sleep(0.01)
        finally:
            set_tracing(False)
        spans = tracer.drain()
        by_id = {s["span_id"]: s for s in spans}

        def children(parent):
            return sorted(
                s["name"] for s in spans if s["parent_id"] == parent["span_id"]
            )

        (request,) = [s for s in spans if s["name"] == "serve.http.request"]
        assert request["parent_id"] is None
        assert request["attrs"]["path"] == "/v1/fill"
        assert request["attrs"]["status"] == 200
        assert children(request) == [
            "serve.http.parse",
            "serve.http.reply",
            "serve.http.wait",
        ]
        flush = by_id[request["attrs"]["flush_span"]]
        assert flush["name"] == "serve.coalescer.flush"
        assert flush["attrs"]["rows"] == 1
        assert children(flush) == ["serve.fill_batch"]
        (fill_batch,) = [s for s in spans if s["name"] == "serve.fill_batch"]
        assert children(fill_batch) == ["serve.group_apply"]

    def test_untraced_fill_carries_no_flush_span(self, served_model):
        coalescer = DeadlineCoalescer(BatchFiller(served_model))
        coalescer.start()
        try:
            assert coalescer.fill(_holey_row(), 5.0).flush_span is None
        finally:
            coalescer.stop()


class TestServerLifecycle:
    def test_is_an_http_service(self, served_model):
        assert issubclass(HttpApiServer, HttpService)

    def test_double_start_rejected_stop_idempotent(self, served_model):
        api = HttpApiServer(served_model, port=0)
        api.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                api.start()
        finally:
            api.stop()
        api.stop()  # no-op
        assert not api.coalescer.running

    def test_context_manager(self, served_model):
        with HttpApiServer(served_model, port=0) as api:
            assert api.running and api.coalescer.running
            assert http_get(api.url + "/healthz")[0] == 200
        assert not api.running and not api.coalescer.running

    def test_accepts_registry_and_prebuilt_filler(self, served_model):
        registry = ModelRegistry(served_model)
        from_registry = HttpApiServer(registry, port=0)
        assert from_registry.registry is registry
        filler = BatchFiller(registry)
        from_filler = HttpApiServer(filler, port=0)
        assert from_filler.filler is filler
        assert from_filler.registry is registry

    def test_invalid_tuning_rejected(self, served_model):
        with pytest.raises(ValueError, match="max_batch_rows"):
            HttpApiServer(served_model, max_batch_rows=0)
        with pytest.raises(ValueError, match="flush_margin"):
            HttpApiServer(served_model, flush_margin=-0.1)
        with pytest.raises(ValueError, match="queue_limit"):
            HttpApiServer(served_model, queue_limit=0)
        with pytest.raises(ValueError, match="default_timeout_ms"):
            HttpApiServer(served_model, default_timeout_ms=0.0)

    def test_request_counters_cover_get_endpoints(self, server):
        before = server.metrics.n_requests
        http_get(server.url + "/healthz")
        http_get(server.url + "/v1/models")
        http_get(server.url + "/v1/nope")  # 404: not counted
        assert server.metrics.n_requests == before + 2


class TestDeadlineCoalescer:
    def test_fill_bit_identical_to_offline(self, served_model):
        filler = BatchFiller(served_model)
        coalescer = DeadlineCoalescer(filler, flush_margin=0.45)
        coalescer.start()
        try:
            row = make_rank2_matrix(9, n_rows=1)[0]
            row[2] = np.nan
            outcome = coalescer.fill(row, timeout=0.5)
        finally:
            coalescer.stop()
        offline = BatchFiller(served_model).fill_batch(row[None, :])
        np.testing.assert_array_equal(
            outcome.filled, offline.filled[0]
        )
        assert outcome.case == offline.cases[0]
        assert outcome.version == offline.version
        assert outcome.flush_rows == 1
        assert outcome.wait_seconds >= 0.0

    def test_double_start_rejected_and_stop_idempotent(self, served_model):
        coalescer = DeadlineCoalescer(BatchFiller(served_model))
        coalescer.start()
        with pytest.raises(RuntimeError, match="already started"):
            coalescer.start()
        coalescer.stop()
        coalescer.stop()  # no-op
        assert not coalescer.running

    def test_submit_before_start_or_after_stop_refused(self, served_model):
        coalescer = DeadlineCoalescer(BatchFiller(served_model))
        row = np.full(N_COLS, np.nan)
        with pytest.raises(CoalescerStoppedError):
            coalescer.submit(row, timeout=1.0)
        coalescer.start()
        coalescer.stop()
        with pytest.raises(CoalescerStoppedError):
            coalescer.submit(row, timeout=1.0)

    def test_nonpositive_timeout_counts_as_expired(self, served_model):
        metrics = ServeHttpMetrics()
        coalescer = DeadlineCoalescer(
            BatchFiller(served_model), metrics=metrics
        )
        coalescer.start()
        try:
            with pytest.raises(DeadlineExpiredError):
                coalescer.fill(np.full(N_COLS, np.nan), timeout=0.0)
        finally:
            coalescer.stop()
        assert metrics.n_expired == 1

    def test_stop_drains_queued_requests(self, served_model):
        """Graceful shutdown: everything admitted is still served."""
        coalescer = DeadlineCoalescer(
            BatchFiller(served_model),
            max_batch_rows=64,
            flush_margin=0.0,
        )
        coalescer.start()
        rows = make_rank2_matrix(10, n_rows=6)
        rows[:, 1] = np.nan
        tickets = [coalescer.submit(row, timeout=30.0) for row in rows]
        coalescer.stop()
        for ticket in tickets:
            assert ticket.done.is_set()
            assert ticket.error is None
            assert ticket.result is not None

    def test_flush_error_fails_only_that_flush(self, served_model):
        class FlakyFiller:
            def __init__(self, inner):
                self.inner = inner
                self.failures_left = 1

            def fill_batch(self, matrix):
                if self.failures_left:
                    self.failures_left -= 1
                    raise RuntimeError("transient flush failure")
                return self.inner.fill_batch(matrix)

        metrics = ServeHttpMetrics()
        coalescer = DeadlineCoalescer(
            FlakyFiller(BatchFiller(served_model)),
            flush_margin=0.45,
            metrics=metrics,
        )
        coalescer.start()
        try:
            row = np.full(N_COLS, np.nan)
            with pytest.raises(RuntimeError, match="transient"):
                coalescer.fill(row, timeout=0.5)
            # The batcher survives a failing flush; the next one works.
            outcome = coalescer.fill(row, timeout=0.5)
        finally:
            coalescer.stop()
        assert outcome.case == "all-holes"
        assert metrics.n_errors == 1

    def test_invalid_tuning_rejected(self, served_model):
        filler = BatchFiller(served_model)
        with pytest.raises(ValueError, match="max_batch_rows"):
            DeadlineCoalescer(filler, max_batch_rows=0)
        with pytest.raises(ValueError, match="flush_margin"):
            DeadlineCoalescer(filler, flush_margin=-1.0)
        with pytest.raises(ValueError, match="queue_limit"):
            DeadlineCoalescer(filler, queue_limit=0)

    def test_non_finite_timeout_rejected_and_huge_timeout_clamped(
        self, served_model
    ):
        coalescer = DeadlineCoalescer(BatchFiller(served_model))
        coalescer.start()
        try:
            row = np.full(N_COLS, np.nan)
            for bad in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match="finite"):
                    coalescer.submit(row, timeout=bad)
            ticket = coalescer.submit(row, timeout=1e12)
            assert (
                ticket.deadline - time.monotonic()
                <= MAX_TIMEOUT_SECONDS + 1.0
            )
        finally:
            coalescer.stop()

    def test_running_detects_dead_batcher_thread(self, served_model):
        coalescer = DeadlineCoalescer(BatchFiller(served_model))
        coalescer.start()
        try:
            assert coalescer.running
            dead = threading.Thread(target=lambda: None)
            dead.start()
            dead.join()
            real = coalescer._thread
            coalescer._thread = dead
            assert not coalescer.running
            with pytest.raises(CoalescerStoppedError):
                coalescer.submit(np.full(N_COLS, np.nan), timeout=1.0)
            coalescer._thread = real
            assert coalescer.running
        finally:
            coalescer.stop()

    def test_flush_isolates_stale_width_tickets(self, served_model):
        """A hot-swap mid-queue can leave rows whose width no longer
        matches the flush-time model; they must fail alone (400-class)
        without poisoning same-flush rows of the served width."""
        metrics = ServeHttpMetrics()
        coalescer = DeadlineCoalescer(
            BatchFiller(served_model), metrics=metrics
        )
        now = time.monotonic()
        good = _Ticket(
            row=np.full(N_COLS, np.nan),
            deadline=now + 5.0,
            enqueued_at=now,
        )
        stale = _Ticket(
            row=np.full(N_COLS + 2, np.nan),
            deadline=now + 5.0,
            enqueued_at=now,
        )
        coalescer._flush([good, stale], 0)
        assert good.error is None
        assert good.result is not None
        assert good.result.case == "all-holes"
        assert isinstance(stale.error, _BadRequest)
        assert stale.result is None
        assert metrics.n_errors == 1
