"""Exporters for :class:`~repro.obs.registry.MetricsRegistry` scrapes.

Three consumers of :meth:`MetricsRegistry.collect
<repro.obs.registry.MetricsRegistry.collect>` output:

* :func:`to_prometheus` -- the Prometheus *text exposition format*
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` rows for histograms);
* :func:`to_json` / :func:`to_json_obj` -- a structured JSON document
  for ``obs dump`` and programmatic consumers;
* :class:`MetricsServer` -- an optional stdlib ``http.server``
  endpoint (``/metrics`` for Prometheus, ``/metrics.json`` for JSON)
  for long-running ``ratio-rules pipeline --follow`` and serving
  processes.  One daemon thread, no dependencies, ``port=0`` binds an
  ephemeral port (handy in tests).

:class:`HttpService` is the lifecycle shell both :class:`MetricsServer`
and the hole-filling API server (:mod:`repro.serve.http`) are built on:
one ``ThreadingHTTPServer`` on one daemon thread, ``start()`` that
refuses a double start and reports the bound (possibly ephemeral) port,
an idempotent ``stop()``, and context-manager sugar.  Their request
handlers share :class:`ServiceHandler`, which sends every reply as one
write on a socket with Nagle's algorithm off.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from .registry import MetricFamily, MetricsRegistry

__all__ = [
    "HttpService",
    "MetricsServer",
    "ServiceHandler",
    "to_json",
    "to_json_obj",
    "to_prometheus",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(float(bound))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render one scrape in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        if family.type == "histogram":
            for labels, buckets, total, count in family.histogram_rows:
                for bound, cumulative in buckets:
                    bucket_labels = tuple(labels) + (
                        ("le", _format_bound(bound)),
                    )
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_format_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_format_labels(labels)} "
                    f"{_format_value(total)}"
                )
                lines.append(
                    f"{family.name}_count{_format_labels(labels)} {count}"
                )
        else:
            for sample in family.samples:
                lines.append(
                    f"{family.name}{_format_labels(sample.labels)} "
                    f"{_format_value(sample.value)}"
                )
    return "\n".join(lines) + "\n"


def _family_obj(family: MetricFamily) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "name": family.name,
        "type": family.type,
        "help": family.help,
        "samples": [
            {"labels": sample.labels_dict(), "value": sample.value}
            for sample in family.samples
        ],
    }
    if family.type == "histogram":
        obj["histograms"] = [
            {
                "labels": dict(labels),
                "buckets": [
                    {"le": _format_bound(bound), "count": cumulative}
                    for bound, cumulative in buckets
                ],
                "sum": total,
                "count": count,
            }
            for labels, buckets, total, count in family.histogram_rows
        ]
    return obj


def to_json_obj(registry: MetricsRegistry) -> Dict[str, Any]:
    """One scrape as a plain JSON-ready object."""
    return {
        "format": "repro-metrics/1",
        "families": [_family_obj(family) for family in registry.collect()],
    }


def to_json(registry: MetricsRegistry, *, indent: int = 2) -> str:
    """One scrape rendered as a JSON document."""
    return json.dumps(to_json_obj(registry), indent=indent, sort_keys=True)


class ServiceHandler(BaseHTTPRequestHandler):
    """Request-handler base for every :class:`HttpService` endpoint.

    A reply written as headers and then body in two small writes stalls
    a keep-alive client for about 40 ms: Nagle's algorithm holds the
    body until the headers are acknowledged, and the client delays that
    acknowledgement while it waits for the rest of the reply.  So the
    accepted socket runs with ``TCP_NODELAY`` (which also covers stdlib
    paths such as ``send_error``), and :meth:`reply` sends the status
    line, headers and body in one ``wfile.write``.
    """

    disable_nagle_algorithm = True

    def reply(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Send one complete response in a single write."""
        lines = [
            f"{self.protocol_version} {status} "
            f"{self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if self.close_connection:
            # Tell the client the connection is going away (always for
            # HTTP/1.0; on keep-alive when a body went unread).
            lines.append("Connection: close")
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        head = "\r\n".join(lines) + "\r\n\r\n"
        if self.request_version == "HTTP/0.9":
            head = ""  # a bare body, as the stdlib answers HTTP/0.9
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging."""


class HttpService:
    """Lifecycle shell for one stdlib ``ThreadingHTTPServer`` endpoint.

    Subclasses provide the request handler (a :class:`ServiceHandler`)
    via :meth:`_handler_class`; this class owns everything else --
    binding (``port=0`` discovers an ephemeral port, re-exposed on
    ``self.port`` after :meth:`start`), the daemon serving thread,
    double-start rejection, and an idempotent :meth:`stop`.  Both the
    read-only :class:`MetricsServer` and the hole-filling API server
    (:class:`repro.serve.http.HttpApiServer`) are built on it, so the
    server plumbing exists exactly once.
    """

    #: Name given to the serving thread (override per subclass).
    thread_name = "repro-http-service"

    #: Listen backlog.  The stdlib default of 5 resets connections the
    #: moment a few dozen clients connect at once -- far too small for
    #: a serving tier whose whole point is riding bursts of concurrent
    #: single-row requests.
    request_queue_size = 128

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def _handler_class(self) -> Type[ServiceHandler]:
        """Build the request-handler class bound to this instance."""
        raise NotImplementedError

    @property
    def running(self) -> bool:
        """Whether the endpoint is currently serving."""
        return self._server is not None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port.

        Raises
        ------
        RuntimeError
            If the service is already started (stop it first; the
            bound port cannot change under a live endpoint).
        """
        if self._server is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        server_class = type(
            "_BoundHTTPServer",
            (ThreadingHTTPServer,),
            {"request_queue_size": self.request_queue_size},
        )
        server = server_class((self.host, self.port), self._handler_class())
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the endpoint down and join the serving thread.

        Safe to call twice (the second call is a no-op) and safe to
        call on a never-started service.
        """
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        """Base URL of the endpoint (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "HttpService":
        self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


class _MetricsHandler(ServiceHandler):
    """Serves ``/metrics`` (Prometheus text) and ``/metrics.json``."""

    # Injected by MetricsServer via a subclass attribute.
    registry: MetricsRegistry

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = to_prometheus(self.registry).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = to_json(self.registry).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        else:
            self.send_error(404, "unknown path (try /metrics)")
            return
        self.reply(200, body, content_type)


class MetricsServer(HttpService):
    """A background ``/metrics`` HTTP endpoint over one registry.

    >>> from repro.obs.registry import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.counter("demo_total", "Demo.").inc(3)
    >>> server = MetricsServer(registry, port=0)
    >>> server.start()  # doctest: +SKIP
    >>> server.stop()   # doctest: +SKIP
    """

    thread_name = "repro-metrics-server"

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port)
        self.registry = registry

    def _handler_class(self) -> Type[ServiceHandler]:
        return type(
            "_BoundMetricsHandler",
            (_MetricsHandler,),
            {"registry": self.registry},
        )

    @property
    def url(self) -> str:
        """URL of the Prometheus scrape (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}/metrics"

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self
