"""Exporters for :class:`~repro.obs.registry.MetricsRegistry` scrapes.

Three consumers of :meth:`MetricsRegistry.collect
<repro.obs.registry.MetricsRegistry.collect>` output:

* :func:`to_prometheus` -- the Prometheus *text exposition format*
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` rows for histograms);
* :func:`to_json` / :func:`to_json_obj` -- a structured JSON document
  for ``obs dump`` and programmatic consumers;
* :class:`MetricsServer` -- an optional HTTP endpoint (``/metrics`` for
  Prometheus, ``/metrics.json`` for JSON) for long-running
  ``ratio-rules pipeline --follow`` and serving processes.  One daemon
  thread, no dependencies, ``port=0`` binds an ephemeral port (handy in
  tests).

:class:`HttpService` is the lifecycle shell both :class:`MetricsServer`
and the hole-filling API server (:mod:`repro.serve.http`) are built on:
one ``selectors`` event loop on one daemon thread serving every
connection, ``start()`` that refuses a double start and reports the
bound (possibly ephemeral) port, an idempotent ``stop()``, and
context-manager sugar.  The loop parses HTTP/1.x itself, within the
stdlib ``http.server`` limits, and hands each request to a
:class:`ServiceHandler` -- a light stand-in for the stdlib's
``BaseHTTPRequestHandler`` that sends every reply as one write on a
socket with Nagle's algorithm off.  ``http.server`` (and the ``email``
package it pulls in) stays off the import path.
"""

from __future__ import annotations

import heapq
import io
import json
import logging
import math
import selectors
import socket
import sys
import threading
import time
from collections import deque
from http import HTTPStatus
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from .registry import MetricFamily, MetricsRegistry

__all__ = [
    "MAX_BODY_BYTES",
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


#: Largest request body a service reads, in bytes.  A request declaring
#: more is answered at once and its connection closed, unread.
MAX_BODY_BYTES = 1 << 20

#: Longest request or header line, and most header lines, per request
#: (the stdlib ``http.server`` limits).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

#: Bound on one buffered request head: every line at its limit.
_MAX_HEAD_BYTES = (MAX_HEADERS + 2) * (MAX_LINE_BYTES + 2)

#: Seconds :meth:`HttpService.stop` lets queued replies leave before it
#: drops the connections that have not taken them.
_CLOSE_GRACE_SECONDS = 1.0

#: Most bytes read from a socket at once.
_RECV_BYTES = 1 << 18

#: Queued reply bytes past which a connection reads no further requests
#: until the client has taken some.
_WRITE_HIGH_WATER = 1 << 16

_ERROR_PAGE = (
    '<!DOCTYPE HTML>\n<html lang="en">\n    <head>\n'
    '        <meta charset="utf-8">\n'
    "        <title>Error response</title>\n    </head>\n    <body>\n"
    "        <h1>Error response</h1>\n"
    "        <p>Error code: {code}</p>\n"
    "        <p>Message: {message}.</p>\n"
    "        <p>Error code explanation: {code} - {explain}.</p>\n"
    "    </body>\n</html>\n"
)

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_date_cache: Tuple[int, str] = (-1, "")

_logger = logging.getLogger(__name__)


def _http_date() -> str:
    """The current RFC 7231 ``Date`` value, rebuilt once a second."""
    global _date_cache
    second = int(time.time())
    if second != _date_cache[0]:
        year, month, day, hour, minute, sec, weekday, _, _ = time.gmtime(second)
        _date_cache = (
            second,
            f"{_WEEKDAYS[weekday]}, {day:02d} {_MONTHS[month]} {year:04d} "
            f"{hour:02d}:{minute:02d}:{sec:02d} GMT",
        )
    return _date_cache[1]


def _escape_html(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Headers(Dict[str, str]):
    """Request headers by lower-cased name (the first of repeats wins)."""

    def get(self, name: str, default: Any = None) -> Any:  # type: ignore[override]
        return super().get(name.lower(), default)


class _Writer:
    """A handler's ``wfile``: writes go to the connection, which sends
    what the socket takes at once and queues the rest."""

    def __init__(self, connection: "_Connection") -> None:
        self._connection = connection

    def write(self, data: bytes) -> int:
        self._connection.write(data)
        return len(data)


class _Timer:
    """One scheduled callback of an :class:`_EventLoop`."""

    __slots__ = ("at", "callback", "args", "cancelled")

    def __init__(self, at: float, callback: Callable[..., Any], args: tuple) -> None:
        self.at = at
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "_Timer") -> bool:
        return self.at < other.at

    def cancel(self) -> None:
        self.cancelled = True


class _EventLoop:
    """A minimal ``selectors`` loop: socket callbacks, callbacks queued
    for the next turn, timers on ``time.monotonic()``, and wake-ups from
    other threads through a socket pair.

    Sockets are registered on ``selector`` with a callback, taking the
    ready event mask, as their data.  A callback that raises is logged
    and the loop goes on.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self._ready: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._timers: List[_Timer] = []
        self._stopping = False
        self.closed = False
        self._wake_in, self._wake_out = socket.socketpair()
        for end in (self._wake_in, self._wake_out):
            end.setblocking(False)
        self.selector.register(self._wake_in, selectors.EVENT_READ, self._woken)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` on the loop's next turn."""
        self._ready.append((callback, args))

    def call_at(self, at: float, callback: Callable[..., Any], *args: Any) -> _Timer:
        """Run ``callback(*args)`` once ``time.monotonic()`` reaches ``at``."""
        timer = _Timer(at, callback, args)
        heapq.heappush(self._timers, timer)
        return timer

    def call_soon_threadsafe(self, callback: Callable[..., Any], *args: Any) -> None:
        """:meth:`call_soon` from any thread; wakes the loop."""
        if self.closed:
            raise RuntimeError("event loop is closed")
        self._ready.append((callback, args))
        try:
            self._wake_out.send(b"\0")
        except OSError:  # the pipe is full, so a wake-up is pending
            pass

    def _woken(self, mask: int) -> None:
        try:
            while self._wake_in.recv(4096):
                pass
        except OSError:
            pass

    def stop(self) -> None:
        """End :meth:`run_forever` after the current turn."""
        self._stopping = True

    def run_forever(self) -> None:
        self._stopping = False
        while not self._stopping:
            self.run_once()

    def run_once(self, max_wait: Optional[float] = None) -> None:
        """Wait for sockets or the next timer, then run what is due."""
        timers = self._timers
        while timers and timers[0].cancelled:
            heapq.heappop(timers)
        if self._ready:
            wait: Optional[float] = 0.0
        elif timers:
            wait = max(0.0, timers[0].at - time.monotonic())
        else:
            wait = None
        if max_wait is not None:
            wait = max_wait if wait is None else min(wait, max_wait)
        for key, mask in self.selector.select(wait):
            self._run(key.data, (mask,))
        if timers:
            now = time.monotonic()
            while timers and timers[0].at <= now:
                timer = heapq.heappop(timers)
                if not timer.cancelled:
                    self._ready.append((timer.callback, timer.args))
        for _ in range(len(self._ready)):
            callback, args = self._ready.popleft()
            self._run(callback, args)

    @staticmethod
    def _run(callback: Callable[..., Any], args: tuple) -> None:
        try:
            callback(*args)
        except Exception:
            _logger.exception("event-loop callback failed")

    def close(self) -> None:
        self.closed = True
        self.selector.close()
        self._wake_in.close()
        self._wake_out.close()


class ServiceHandler:
    """Request-handler base for every :class:`HttpService` endpoint.

    The event loop makes one handler per connection (``setup`` runs
    once, as in the stdlib) and fills in ``command``, ``path``,
    ``request_version``, ``headers``, ``close_connection`` and a
    ``rfile`` holding the whole body before it calls ``do_<METHOD>``
    -- the attributes a stdlib ``BaseHTTPRequestHandler`` subclass
    reads.  A handler that cannot answer before returning calls
    :meth:`defer`; its later :meth:`reply` completes the request, and
    the connection reads nothing more until then, so replies leave in
    request order.

    A reply written as headers and then body in two small writes stalls
    a keep-alive client for about 40 ms: Nagle's algorithm holds the
    body until the headers are acknowledged, and the client delays that
    acknowledgement while it waits for the rest of the reply.  So the
    socket runs with ``TCP_NODELAY`` and :meth:`reply` sends the status
    line, headers and body in one ``wfile.write``.
    """

    protocol_version = "HTTP/1.0"
    server_version = "BaseHTTP/0.6"
    sys_version = "Python/" + sys.version.split()[0]
    disable_nagle_algorithm = True

    #: Reason phrase and explanation per status code.
    responses: Dict[int, Tuple[str, str]] = {
        status.value: (status.phrase, status.description)
        for status in HTTPStatus
    }

    def __init__(self, connection: "_Connection") -> None:
        self.connection = connection._sock
        self.wfile = _Writer(connection)
        self.rfile = io.BytesIO()
        self.headers = _Headers()
        self.command = ""
        self.path = ""
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self._on_deferred_reply: Optional[Callable[[], None]] = None
        self._dispatching = False
        self._deferred = False
        self._replied = False

    def setup(self) -> None:
        """Per-connection set-up (once, before the first request)."""
        if self.disable_nagle_algorithm:
            self.connection.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, True
            )

    def wants_body(self) -> bool:
        """Whether the request just parsed is worth reading a body for.

        Called after the header block; ``False`` answers the request at
        once and closes the connection with the body unread.
        """
        return True

    def defer(self) -> None:
        """Leave the current request open after ``do_<METHOD>`` returns."""
        self._deferred = True

    def reply(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Send one complete response in a single write."""
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # a bare body, as the stdlib answers
        else:
            head = (
                f"{self.protocol_version} {status} "
                f"{self.responses.get(status, ('',))[0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if self.close_connection:
                # Tell the client the connection is going away (always
                # for HTTP/1.0; on keep-alive when a body went unread).
                head += "Connection: close\r\n"
            for name, value in (headers or {}).items():
                head += f"{name}: {value}\r\n"
            self.wfile.write(head.encode("latin-1") + b"\r\n" + body)
        self._replied = True
        if self._deferred and not self._dispatching:
            assert self._on_deferred_reply is not None
            self._on_deferred_reply()

    def send_error(self, code: int, message: Optional[str] = None) -> None:
        """Answer with the stdlib's HTML error page and close."""
        phrase, description = self.responses.get(code, ("???", "???"))
        page = _ERROR_PAGE.format(
            code=code,
            message=_escape_html(phrase if message is None else message),
            explain=_escape_html(description),
        )
        self.close_connection = True
        self.reply(code, page.encode("utf-8", "replace"), "text/html;charset=utf-8")

    def version_string(self) -> str:
        """The ``Server`` header value."""
        return f"{self.server_version} {self.sys_version}"

    def date_time_string(self) -> str:
        """The ``Date`` header value."""
        return _http_date()


class _Connection:
    """One client connection: parse, dispatch, one request at a time.

    Replies go out with non-blocking sends; what the socket does not
    take at once waits in ``_out`` for the loop's write readiness, and
    while more than :data:`_WRITE_HIGH_WATER` bytes wait, no further
    request is read -- a client that never reads its replies costs a
    bounded buffer, not a thread.
    """

    def __init__(
        self,
        service: "HttpService",
        loop: _EventLoop,
        sock: socket.socket,
        handler_class: Type[ServiceHandler],
    ) -> None:
        self._service = service
        self._loop = loop
        self._sock = sock
        self._buffer = bytearray()
        self._out = bytearray()
        self._events = 0
        self._reading = True
        self._closing = False
        self._closed = False
        self._method: Optional[Callable[[], None]] = None
        self._body_length = 0
        self._busy = False
        self._eof = False
        sock.setblocking(False)
        handler = handler_class(self)
        handler._on_deferred_reply = self._deferred_reply_sent
        self._handler = handler
        service._connections.add(self)
        self._update_events()
        handler.setup()

    # -- socket side -------------------------------------------------------

    def _update_events(self) -> None:
        wanted = 0
        if self._reading and not self._closing:
            wanted |= selectors.EVENT_READ
        if self._out:
            wanted |= selectors.EVENT_WRITE
        if wanted == self._events or self._closed:
            return
        selector = self._loop.selector
        if not self._events:
            selector.register(self._sock, wanted, self._on_ready)
        elif not wanted:
            selector.unregister(self._sock)
        else:
            selector.modify(self._sock, wanted, self._on_ready)
        self._events = wanted

    def _on_ready(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._send_queued()
        if mask & selectors.EVENT_READ and not self._closed:
            try:
                data = self._sock.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.abort()
                return
            if data:
                self._data_received(data)
            else:
                self._eof_received()

    def write(self, data: bytes) -> None:
        """Send ``data``, queueing what the socket does not take now."""
        if self._closed or self._closing:
            return
        if not self._out:
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self.abort()
                return
            if sent == len(data):
                return
            data = data[sent:]
        self._out += data
        self._update_events()

    def _send_queued(self) -> None:
        try:
            sent = self._sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.abort()
            return
        del self._out[:sent]
        if self._out:
            return
        if self._closing:
            self.abort()
            return
        self._update_events()
        self._resume()

    def is_closing(self) -> bool:
        return self._closing or self._closed

    def close(self) -> None:
        """Close once every queued reply byte has been sent."""
        if self._out and not self._closed:
            self._closing = True
            self._update_events()
        else:
            self.abort()

    def abort(self) -> None:
        """Close now, dropping anything still queued."""
        if self._closed:
            return
        if self._events:
            self._loop.selector.unregister(self._sock)
        self._events = 0
        self._closed = True
        self._sock.close()
        self._service._connections.discard(self)

    def _set_reading(self, reading: bool) -> None:
        self._reading = reading
        self._update_events()

    # -- request cycle -----------------------------------------------------

    def _data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._busy or len(self._out) > _WRITE_HIGH_WATER:
            # Hold what a pipelining client sends ahead; once a line's
            # worth is waiting, stop reading until the reply is out.
            if len(self._buffer) > MAX_LINE_BYTES:
                self._set_reading(False)
            return
        self._process()

    def _eof_received(self) -> None:
        self._eof = True
        if self._busy:  # keep the socket for the pending reply
            self._set_reading(False)
        else:
            self.close()

    def _process(self) -> None:
        """Serve every complete request in the buffer, in order."""
        while not (
            self._busy or self.is_closing() or len(self._out) > _WRITE_HIGH_WATER
        ):
            if self._method is None and not self._read_head():
                return
            if len(self._buffer) < self._body_length:
                return
            self._dispatch()

    def _resume(self) -> None:
        if self._busy or self.is_closing() or len(self._out) > _WRITE_HIGH_WATER:
            return
        if not self._reading and not self._eof:
            self._set_reading(True)
        self._process()

    def _dispatch(self) -> None:
        handler = self._handler
        method, self._method = self._method, None
        assert method is not None
        length = self._body_length
        handler.rfile = io.BytesIO(bytes(self._buffer[:length]))
        del self._buffer[:length]
        handler._replied = handler._deferred = False
        handler._dispatching = True
        self._busy = True
        try:
            method()
        except Exception:
            _logger.exception("request handler failed; closing its connection")
            handler._deferred = False
            handler.close_connection = True
        finally:
            handler._dispatching = False
            if handler._replied or not handler._deferred:
                self._request_done()
            self._service._after_dispatch()

    def _request_done(self) -> None:
        self._busy = False
        if self._handler.close_connection or self._eof or not self._handler._replied:
            self.close()

    def _deferred_reply_sent(self) -> None:
        self._request_done()
        if self._buffer or not self._reading:
            self._loop.call_soon(self._resume)

    def _reject(self, code: int, message: Optional[str] = None) -> bool:
        self._handler.send_error(code, message)
        self.close()
        return False

    def _read_head(self) -> bool:
        """Parse one request head; True once its handler is chosen.

        False means the head is incomplete, or the request was answered
        (or the connection dropped) without reaching a handler.
        """
        buffer = self._buffer
        handler = self._handler
        eol = buffer.find(b"\n")
        if eol < 0 or eol + 1 > MAX_LINE_BYTES:
            if eol >= 0 or len(buffer) > MAX_LINE_BYTES:
                handler.request_version = ""
                return self._reject(HTTPStatus.REQUEST_URI_TOO_LONG)
            return False
        end = _head_end(buffer, eol)
        if end < 0:
            partial = len(buffer) - buffer.rfind(b"\n") - 1
            if partial > MAX_LINE_BYTES or len(buffer) > _MAX_HEAD_BYTES:
                handler.request_version = ""
                return self._reject(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long"
                )
            return False
        lines = buffer[:end].decode("latin-1").split("\n")
        del buffer[:end]
        return self._start_request(lines[0].rstrip("\r"), lines[1:-2])

    def _start_request(self, requestline: str, header_lines: List[str]) -> bool:
        """The stdlib's ``parse_request``, then routing and body sizing."""
        handler = self._handler
        handler.command = ""
        handler.request_version = "HTTP/0.9"
        handler.close_connection = True
        words = requestline.split()
        if not words:
            self.close()
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _parse_version(version)
            if number is None:
                return self._reject(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
            if number >= (1, 1) and handler.protocol_version >= "HTTP/1.1":
                handler.close_connection = False
            if number >= (2, 0):
                return self._reject(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
            handler.request_version = version
        if not 2 <= len(words) <= 3:
            return self._reject(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
        command, path = words[:2]
        if len(words) == 2:
            handler.close_connection = True
            if command != "GET":
                return self._reject(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        handler.command, handler.path = command, path
        try:
            headers = _parse_headers(header_lines)
        except ValueError as exc:
            return self._reject(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, str(exc))
        handler.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            handler.close_connection = True
        elif connection == "keep-alive" and handler.protocol_version >= "HTTP/1.1":
            handler.close_connection = False
        method = getattr(handler, "do_" + command, None)
        if method is None:
            return self._reject(
                HTTPStatus.NOT_IMPLEMENTED, f"Unsupported method ({command!r})"
            )
        self._method = method
        self._body_length = self._body_to_read(headers)
        return True

    def _body_to_read(self, headers: _Headers) -> int:
        """Bytes of body to wait for; 0 (and close) when it goes unread."""
        handler = self._handler
        declared = headers.get("content-length")
        length = 0
        unread = "chunked" in headers.get("transfer-encoding", "").lower()
        if declared is not None:
            try:
                length = int(declared)
            except ValueError:
                unread = True
            unread = unread or not 0 <= length <= MAX_BODY_BYTES
        if length and not unread and not handler.wants_body():
            unread = True
        if unread:
            handler.close_connection = True
            return 0
        if (
            length
            and headers.get("expect", "").lower() == "100-continue"
            and handler.request_version >= "HTTP/1.1"
            and handler.protocol_version >= "HTTP/1.1"
        ):
            self.write(
                handler.protocol_version.encode("latin-1")
                + b" 100 Continue\r\n\r\n"
            )
        return length


def _head_end(buffer: bytearray, eol: int) -> int:
    """Index just past the blank line that ends a request head, or -1."""
    crlf = buffer.find(b"\n\r\n", eol)
    lf = buffer.find(b"\n\n", eol)
    if lf >= 0 and (crlf < 0 or lf < crlf):
        return lf + 2
    return crlf + 3 if crlf >= 0 else -1


def _parse_version(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token, or None if malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _parse_headers(lines: List[str]) -> _Headers:
    """Header lines to a :class:`_Headers`, within the stdlib limits.

    Lines without a colon and obsolete folded lines are skipped.
    """
    if len(lines) > MAX_HEADERS:
        raise ValueError("Too many headers")
    headers = _Headers()
    for line in lines:
        if len(line) > MAX_LINE_BYTES:
            raise ValueError("Line too long")
        key, colon, value = line.partition(":")
        if colon and key[:1] not in (" ", "\t"):
            headers.setdefault(key.strip().lower(), value.strip())
    return headers


class HttpService:
    """Lifecycle shell for one HTTP endpoint served by an event loop.

    Subclasses provide the request handler (a :class:`ServiceHandler`)
    via :meth:`_handler_class`; this class owns everything else --
    binding (``port=0`` discovers an ephemeral port, re-exposed on
    ``self.port`` after :meth:`start`), the daemon serving thread and
    its event loop, double-start rejection, and an idempotent
    :meth:`stop`.  Both the read-only :class:`MetricsServer` and the
    hole-filling API server (:class:`repro.serve.http.HttpApiServer`)
    are built on it, so the server plumbing exists exactly once.

    Every connection is served by the one loop thread: an idle or slow
    client holds a socket and a bounded buffer, never a thread, and
    replies go out through the transport's non-blocking writes.
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
        self._loop: Optional[_EventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: Set[_Connection] = set()

    def _handler_class(self) -> Type[ServiceHandler]:
        """Build the request-handler class bound to this instance."""
        raise NotImplementedError

    def _attach(self, thread: threading.Thread) -> None:
        """Hook: runs in :meth:`start` just before ``thread`` serves."""

    def _after_dispatch(self) -> None:
        """Hook: runs on the serving thread after each handler call."""

    def _drain(self) -> None:
        """Hook: runs on the serving thread at shutdown, after the
        listener closes and before the connections do."""

    @property
    def running(self) -> bool:
        """Whether the endpoint is currently serving."""
        return self._loop is not None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port.

        Raises
        ------
        RuntimeError
            If the service is already started (stop it first; the
            bound port cannot change under a live endpoint).
        OSError
            If the address cannot be bound.
        """
        if self._loop is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        handler_class = self._handler_class()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(self.request_queue_size)
            listener.setblocking(False)
        except BaseException:
            listener.close()
            raise
        loop = _EventLoop()
        thread = threading.Thread(
            target=self._serve,
            args=(loop, listener, handler_class),
            name=self.thread_name,
            daemon=True,
        )
        self._loop, self._thread = loop, thread
        self.port = listener.getsockname()[1]
        self._attach(thread)
        thread.start()
        return self.port

    def _serve(
        self,
        loop: _EventLoop,
        listener: socket.socket,
        handler_class: Type[ServiceHandler],
    ) -> None:
        def accept(mask: int) -> None:
            for _ in range(self.request_queue_size):
                try:
                    sock, _ = listener.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:  # e.g. out of file descriptors
                    _logger.exception("accept failed")
                    return
                _Connection(self, loop, sock, handler_class)

        loop.selector.register(listener, selectors.EVENT_READ, accept)
        try:
            loop.run_forever()
            loop.selector.unregister(listener)
            listener.close()
            self._drain()
            for connection in list(self._connections):
                connection.close()
            # Replies still queued get a bounded time to leave; a
            # client that never reads them is cut off after that.
            deadline = time.monotonic() + _CLOSE_GRACE_SECONDS
            while self._connections and time.monotonic() < deadline:
                loop.run_once(max_wait=0.01)
        finally:
            listener.close()
            for connection in list(self._connections):
                connection.abort()
            loop.close()

    def stop(self) -> None:
        """Shut the endpoint down and join the serving thread.

        Safe to call twice (the second call is a no-op) and safe to
        call on a never-started service.
        """
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # the loop already ended
            pass
        if thread is not None:
            thread.join(timeout=10.0)
        self._loop = self._thread = None

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

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
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
