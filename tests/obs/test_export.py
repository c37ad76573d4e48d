"""Tests for the exporters: Prometheus text format, JSON, HTTP endpoint.

``parse_prometheus_text`` below is a deliberately strict miniature
parser for the Prometheus text exposition format; the acceptance test
feeds it a full scrape (all three record adapters registered) and
requires every line to parse and every family to be internally
consistent (``TYPE`` before samples, cumulative buckets, ``_count``
matching the ``+Inf`` bucket).
"""

from __future__ import annotations

import json
import math
import re
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    HttpService,
    MetricsServer,
    ServiceHandler,
    to_json,
    to_json_obj,
    to_prometheus,
)
from repro.obs.metrics import PipelineMetrics, ScanMetrics, ServeMetrics
from repro.obs.registry import (
    MetricsRegistry,
    register_pipeline_metrics,
    register_scan_metrics,
    register_serve_metrics,
)

pytestmark = pytest.mark.obs

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>.*)"$')


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def _split_labels(body: str):
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    pairs = {}
    for chunk in re.findall(r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"', body):
        match = _LABEL_PAIR.match(chunk)
        assert match, f"unparseable label pair: {chunk!r}"
        value = match.group("value")
        value = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pairs[match.group("name")] = value
    return pairs


def parse_prometheus_text(text: str):
    """Parse a text-exposition document into ``{family: {...}}``.

    Raises (via assert) on any line that is not a valid HELP/TYPE
    comment or a ``name{labels} value`` sample line, on samples whose
    family has no preceding TYPE, and on unknown metric types.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict = {}
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"samples": []})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), kind
            families.setdefault(name, {"samples": []})["type"] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _METRIC_LINE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = families.get(name) or families.get(base)
        assert family is not None, f"sample {name!r} before its TYPE line"
        assert "type" in family, f"family of {name!r} has no TYPE"
        family["samples"].append(
            {
                "name": name,
                "labels": _split_labels(match.group("labels") or ""),
                "value": _parse_value(match.group("value")),
            }
        )
    return families


def _full_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("demo_requests_total", "Requests.").inc(3, route="fill")
    registry.gauge("demo_depth", "Depth.").set(-2.5)
    hist = registry.histogram("demo_latency_seconds", "Latency.", (0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    scan = ScanMetrics(
        executor="process",
        n_rows=1000,
        scan_seconds=0.5,
        quarantined=[{"source": "x.csv"}],
        extras={"note": 'quo"te\nnewline\\slash', "count": 2},
    )
    serve = ServeMetrics(cache_hits=2, cache_misses=1)
    serve.record_batch(
        n_rows=4,
        n_rows_filled=4,
        n_rows_no_holes=0,
        n_rows_all_holes=0,
        n_holes_filled=6,
        group_sizes=[2, 2],
        seconds=0.01,
    )
    pipeline = PipelineMetrics(
        rows_ingested=500, refresh_reasons={"initial": 1}
    )
    register_scan_metrics(registry, scan)
    register_serve_metrics(registry, serve)
    register_pipeline_metrics(registry, pipeline)
    return registry


class TestPrometheusText:
    def test_full_scrape_parses(self):
        """The acceptance test: a full scrape is valid exposition."""
        families = parse_prometheus_text(to_prometheus(_full_registry()))
        assert "demo_requests_total" in families
        assert "repro_scan_n_rows" in families
        assert "repro_serve_cache_hit_rate" in families
        assert "repro_pipeline_rows_ingested" in families
        for name, family in families.items():
            assert "type" in family, f"{name} missing TYPE"

    def test_counter_sample_with_labels(self):
        families = parse_prometheus_text(to_prometheus(_full_registry()))
        (sample,) = families["demo_requests_total"]["samples"]
        assert sample["labels"] == {"route": "fill"}
        assert sample["value"] == 3.0

    def test_histogram_bucket_sum_count_invariants(self):
        families = parse_prometheus_text(to_prometheus(_full_registry()))
        samples = families["demo_latency_seconds"]["samples"]
        buckets = [s for s in samples if s["name"].endswith("_bucket")]
        (count,) = [s for s in samples if s["name"].endswith("_count")]
        (total,) = [s for s in samples if s["name"].endswith("_sum")]
        bounds = [s["labels"]["le"] for s in buckets]
        assert bounds == ["0.1", "1.0", "+Inf"]
        counts = [s["value"] for s in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts[-1] == count["value"] == 3
        assert total["value"] == pytest.approx(5.55)

    def test_label_values_are_escaped(self):
        text = to_prometheus(_full_registry())
        assert '\\"' in text  # the quote in the extras note
        assert "\\n" in text  # the newline
        assert "\\\\" in text  # the backslash
        families = parse_prometheus_text(text)
        info = families["repro_scan_extras_info"]["samples"]
        assert info[0]["labels"]["value"] == 'quo"te\nnewline\\slash'

    def test_special_float_values(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf").set(math.inf)
        registry.gauge("g_ninf").set(-math.inf)
        registry.gauge("g_nan").set(math.nan)
        families = parse_prometheus_text(to_prometheus(registry))
        assert families["g_inf"]["samples"][0]["value"] == math.inf
        assert families["g_ninf"]["samples"][0]["value"] == -math.inf
        assert math.isnan(families["g_nan"]["samples"][0]["value"])

    def test_help_lines_precede_samples(self):
        text = to_prometheus(_full_registry())
        lines = text.splitlines()
        index = lines.index("# TYPE demo_depth gauge")
        assert lines[index - 1] == "# HELP demo_depth Depth."
        assert lines[index + 1] == "demo_depth -2.5"


class TestJsonExport:
    def test_json_round_trips_and_carries_format_key(self):
        payload = json.loads(to_json(_full_registry()))
        assert payload["format"] == "repro-metrics/1"
        assert payload["families"]

    def test_every_collected_family_appears(self):
        registry = _full_registry()
        collected = {family.name for family in registry.collect()}
        exported = {f["name"] for f in to_json_obj(registry)["families"]}
        assert exported == collected

    def test_histogram_structure(self):
        payload = to_json_obj(_full_registry())
        (family,) = [
            f for f in payload["families"]
            if f["name"] == "demo_latency_seconds"
        ]
        (row,) = family["histograms"]
        assert [b["le"] for b in row["buckets"]] == ["0.1", "1.0", "+Inf"]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(5.55)

    def test_samples_carry_plain_label_dicts(self):
        payload = to_json_obj(_full_registry())
        (family,) = [
            f for f in payload["families"]
            if f["name"] == "demo_requests_total"
        ]
        assert family["samples"] == [
            {"labels": {"route": "fill"}, "value": 3.0}
        ]


class TestMetricsServer:
    def test_http_scrape_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Hits.").inc(2)
        with MetricsServer(registry, port=0) as server:
            assert server.port != 0  # ephemeral port was bound
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode()
        families = parse_prometheus_text(body)
        assert families["hits_total"]["samples"][0]["value"] == 2.0

    def test_json_endpoint(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        with MetricsServer(registry, port=0) as server:
            url = f"http://{server.host}:{server.port}/metrics.json"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert "application/json" in response.headers["Content-Type"]
                payload = json.loads(response.read().decode())
        assert payload["format"] == "repro-metrics/1"

    def test_unknown_path_is_404(self):
        with MetricsServer(MetricsRegistry(), port=0) as server:
            url = f"http://{server.host}:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404

    def test_scrape_reflects_live_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("live_total")
        with MetricsServer(registry, port=0) as server:
            counter.inc(5)
            with urllib.request.urlopen(server.url, timeout=5) as response:
                body = response.read().decode()
        assert "live_total 5.0" in body

    def test_double_start_rejected_and_stop_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
        server.stop()  # second stop is a no-op

    def test_is_an_http_service(self):
        """The shared lifecycle shell, not a private reimplementation."""
        assert issubclass(MetricsServer, HttpService)

    @staticmethod
    def _raw_get(server, request: bytes) -> bytes:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def test_reply_head_is_a_complete_http_response(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        with MetricsServer(registry, port=0) as server:
            raw = self._raw_get(server, b"GET /metrics HTTP/1.0\r\n\r\n")
        head, body = raw.split(b"\r\n\r\n", 1)
        status, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert status == "HTTP/1.0 200 OK"
        assert set(headers) == {
            "Server",
            "Date",
            "Content-Type",
            "Content-Length",
            "Connection",
        }
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert b"hits_total 1.0" in body

    def test_http_09_request_gets_the_bare_body(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        with MetricsServer(registry, port=0) as server:
            raw = self._raw_get(server, b"GET /metrics\r\n\r\n")
        assert raw == to_prometheus(registry).encode("utf-8")


class _PingService(HttpService):
    """Minimal HttpService subclass for exercising the base lifecycle."""

    def _handler_class(self):
        class _PingHandler(ServiceHandler):
            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                self.reply(200, b"pong", "text/plain")

        return _PingHandler


class TestHttpService:
    """Regression tests for the shared server lifecycle base class."""

    def test_handler_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            HttpService()._handler_class()

    def test_port_zero_discovers_ephemeral_port(self):
        service = _PingService(port=0)
        assert not service.running
        bound = service.start()
        try:
            assert bound != 0
            assert service.port == bound
            assert service.running
            url = f"http://{service.host}:{bound}/"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.read() == b"pong"
        finally:
            service.stop()
        assert not service.running

    def test_double_start_raises_without_losing_the_endpoint(self):
        service = _PingService(port=0)
        bound = service.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                service.start()
            # The rejected second start must not tear down the first.
            assert service.running and service.port == bound
            with urllib.request.urlopen(service.url + "/", timeout=5) as r:
                assert r.status == 200
        finally:
            service.stop()

    def test_stop_is_idempotent_and_safe_before_start(self):
        service = _PingService(port=0)
        service.stop()  # never started: no-op
        service.start()
        service.stop()
        service.stop()  # second stop: no-op
        assert not service.running

    def test_restart_after_stop_binds_a_fresh_port(self):
        service = _PingService(port=0)
        service.start()
        service.stop()
        bound = service.start()  # a stopped service can be started again
        try:
            with urllib.request.urlopen(
                f"http://{service.host}:{bound}/", timeout=5
            ) as response:
                assert response.read() == b"pong"
        finally:
            service.stop()

    def test_context_manager_round_trip(self):
        with _PingService(port=0) as service:
            assert service.running
        assert not service.running
