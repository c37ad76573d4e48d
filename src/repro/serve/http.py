"""The network serving tier: an HTTP hole-filling API with
deadline-based request coalescing.

Everything below this module is in-process; this is the first network
surface the query side gets.  :class:`HttpApiServer` exposes the four
query verbs the model already answers --

- ``POST /v1/fill`` -- fill the NaN holes of one row;
- ``POST /v1/whatif`` -- a what-if scenario (Sec. 3/4.4 of the paper)
  over attribute names;
- ``POST /v1/outlier`` -- reconstruction-residual score of one
  complete row;
- ``POST /v1/recommend`` -- basket completion / product ranking;

plus ``GET /v1/models`` (what is being served) and ``GET /healthz``.

With a durable :class:`~repro.store.ModelStore` mounted (``store=``),
the same four verbs become **tenant-addressable** under
``/v1/tenants/<tenant>/...`` (plus ``GET /v1/tenants`` and
``GET /v1/tenants/<tenant>/models``): each tenant namespace gets its
own registry, operator cache, and coalescer on first use -- operator
cache keys are per-registry version numbers, which collide across
tenants, so per-tenant fillers are a correctness requirement, not just
isolation.  A background :class:`~repro.store.StoreWatcher` polls the
store so every tenant hot-swaps versions published by other processes
sharing the directory.

The heart is :class:`DeadlineCoalescer`.  Single-row fill requests are
cheap individually but the ~30x serving speedup (``BENCH_serve.json``)
lives in the batch path: grouping rows by hole pattern through
``numpy.unique`` and applying one cached operator per pattern.  So
incoming requests do not call :meth:`~repro.serve.BatchFiller.fill_row`
directly -- they enqueue with a per-request **deadline**, and a batcher
thread drains the queue into micro-batches when either

- ``max_batch_rows`` requests are waiting, or
- the earliest queued deadline minus ``flush_margin`` arrives,

then runs **one** :meth:`~repro.serve.BatchFiller.fill_batch` per flush
and fans the rows back out to the waiting requests.  Inside
:class:`HttpApiServer` there is no batcher thread: the server's one
event-loop thread admits each row with a completion callback and runs
the flush itself, inline, when a batch fills or from a timer at the
earliest deadline minus the margin -- each reply is written from the
flush that served it.  Because
``fill_batch`` takes one atomic :class:`~repro.serve.PublishedModel`
snapshot per call, a flush pins exactly one model version for its whole
batch -- a concurrent hot-swap can never tear a micro-batch across two
versions.  And because the apply kernel is batch-size invariant, every
coalesced answer is **bit-identical** to serving the same row alone or
in any offline batch.

Admission control and load shedding:

- the queue is bounded (``queue_limit``); at the limit new requests are
  shed with HTTP **429** and a ``Retry-After`` header;
- a request whose deadline is already blown -- on arrival or while
  waiting in the queue -- gets HTTP **503**;
- every rejection is counted on
  :class:`~repro.obs.metrics.ServeHttpMetrics` (``n_shed_queue_full``,
  ``n_expired``), so the record exactly accounts for shed traffic.

See ``docs/serving_http.md`` for endpoint schemas and tuning.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.core.model import RatioRuleModel
from repro.obs.export import MAX_BODY_BYTES, HttpService, ServiceHandler
from repro.obs.metrics import ServeHttpMetrics
from repro.obs.tracing import span, start_span
from repro.serve.batch import BatchFiller
from repro.serve.registry import ModelRegistry, NoModelPublishedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store import ModelStore

__all__ = [
    "CoalescedFill",
    "CoalescerStoppedError",
    "DeadlineCoalescer",
    "DeadlineExpiredError",
    "HttpApiServer",
    "QueueFullError",
]

#: Cap on any single request deadline, in seconds.  ``json.loads``
#: happily parses ``Infinity``/``1e400`` out of a request body; an
#: unbounded deadline would feed ``Condition.wait`` a timestamp outside
#: the platform's ``time_t`` range (OverflowError) and park a ticket in
#: the queue forever, so deadlines are clamped at admission.
MAX_TIMEOUT_SECONDS = 600.0

_logger = logging.getLogger(__name__)


class QueueFullError(RuntimeError):
    """The coalescing queue is at its admission limit (HTTP 429)."""


class DeadlineExpiredError(RuntimeError):
    """The request's deadline passed before it could be served (503)."""


class CoalescerStoppedError(RuntimeError):
    """The coalescer is not running (server starting up or shut down)."""


@dataclass(frozen=True)
class CoalescedFill:
    """One row served through a coalesced micro-batch.

    Attributes
    ----------
    filled:
        The completed row (known cells untouched, holes reconstructed).
    version / fingerprint:
        The registry version the serving flush was pinned to.
    case:
        The row's dispatch regime (see :mod:`repro.core.reconstruction`).
    flush_rows:
        Rows in the micro-batch that served this request (> 1 means
        the request actually coalesced with others).
    wait_seconds:
        Time the request spent queued before its flush.
    flush_span:
        Span id of the ``serve.coalescer.flush`` span that served the
        request (``None`` while tracing is off); it links a request's
        trace to the flush's ``serve.fill_batch`` spans.
    """

    filled: np.ndarray
    version: int
    fingerprint: str
    case: str
    flush_rows: int
    wait_seconds: float
    flush_span: Optional[str] = None


@dataclass
class _Ticket:
    """One queued request: a row, a deadline, and a result slot.

    ``on_done`` (if any) runs on the flushing thread once the ticket
    is resolved; a waiting thread blocks on ``done`` instead.
    """

    row: np.ndarray
    deadline: float
    enqueued_at: float
    done: Optional[threading.Event] = field(default_factory=threading.Event)
    result: Optional[CoalescedFill] = None
    error: Optional[BaseException] = None
    on_done: Optional[Callable[["_Ticket"], None]] = None

    def resolve(self) -> None:
        if self.done is not None:
            self.done.set()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:  # one broken callback must not strand the rest
                _logger.exception("coalesced fill callback failed")


class DeadlineCoalescer:
    """Coalesce single-row fill requests into micro-batches.

    It runs in one of two modes over one flush path.  :meth:`start`
    runs a batcher thread for in-process callers of :meth:`fill`.
    :meth:`bind` runs none: an event loop admits rows with
    :meth:`submit` and a callback, asks :meth:`next_flush_at` when to
    flush, and calls :meth:`flush_once` on its own thread.

    Parameters
    ----------
    filler:
        The :class:`~repro.serve.BatchFiller` every flush runs through
        (one ``fill_batch`` call per flush -- one pinned model version
        per micro-batch).
    max_batch_rows:
        Flush as soon as this many requests are queued.
    flush_margin:
        Seconds before the earliest queued deadline at which to flush
        anyway, leaving the margin for the batch compute itself.
    queue_limit:
        Admission bound; :meth:`submit` sheds with
        :class:`QueueFullError` once this many requests are waiting.
    metrics:
        Optional shared :class:`~repro.obs.metrics.ServeHttpMetrics`;
        the coalescer records every enqueue, flush, shed, and expiry.
    """

    def __init__(
        self,
        filler: BatchFiller,
        *,
        max_batch_rows: int = 64,
        flush_margin: float = 0.005,
        queue_limit: int = 256,
        metrics: Optional[ServeHttpMetrics] = None,
    ) -> None:
        if max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        if flush_margin < 0.0:
            raise ValueError(
                f"flush_margin must be >= 0, got {flush_margin}"
            )
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.filler = filler
        self.max_batch_rows = int(max_batch_rows)
        self.flush_margin = float(flush_margin)
        self.queue_limit = int(queue_limit)
        self.metrics = metrics if metrics is not None else ServeHttpMetrics()
        self._queue: Deque[_Ticket] = deque()
        # Hold ``_lock`` (a C-level lock) for queue access and wait or
        # notify through ``_wake``, the condition built on it.
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._on_admit: Optional[Callable[[], None]] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the flushing thread is alive and accepting work.

        Checks actual thread liveness, not just lifecycle state: if the
        batcher (or the event loop it is bound to) ever died, health
        checks must fail and :meth:`submit` must refuse work that could
        never be served.
        """
        thread = self._thread
        return (
            thread is not None and thread.is_alive() and not self._stopping
        )

    def start(self) -> None:
        """Start the batcher thread (refuses a double start)."""
        if self._thread is not None:
            raise RuntimeError("DeadlineCoalescer already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True
        )
        self._thread.start()

    def bind(self, thread: threading.Thread, on_admit: Callable[[], None]) -> None:
        """Serve from ``thread``'s event loop instead of a batcher.

        ``on_admit`` runs after every admission; the loop answers by
        calling :meth:`flush_once` on ``thread`` whenever
        :meth:`next_flush_at` says a flush is due.  :meth:`stop` unbinds.
        """
        if self._thread is not None:
            raise RuntimeError("DeadlineCoalescer already started")
        self._stopping = False
        self._on_admit = on_admit
        self._thread = thread

    def stop(self) -> None:
        """Drain the queue with a final flush round, then stop.

        Idempotent; requests submitted after the stop begins are
        refused with :class:`CoalescerStoppedError`, but everything
        already queued is still served (graceful shutdown).  A bound
        coalescer is drained by its loop before the loop exits; this
        only unbinds it.
        """
        with self._lock:
            if self._thread is None:
                return
            self._stopping = True
            thread = self._thread
            self._wake.notify_all()
        if self._on_admit is None:
            thread.join(timeout=30.0)
        self._on_admit = None
        self._thread = None
        with self._lock:  # left behind only if the loop died first
            stranded = list(self._queue)
            self._queue.clear()
        for ticket in stranded:
            ticket.error = CoalescerStoppedError("coalescer stopped")
            ticket.resolve()

    # -- request side ------------------------------------------------------

    def submit(
        self,
        row: np.ndarray,
        timeout: float,
        on_done: Optional[Callable[[_Ticket], None]] = None,
    ) -> _Ticket:
        """Enqueue one row; returns the ticket to wait on.

        ``on_done`` runs on the flushing thread once the ticket holds
        its result or error.  Timeouts are clamped to
        :data:`MAX_TIMEOUT_SECONDS` so a queued deadline can never
        overflow the batcher's condition wait.

        Raises
        ------
        ValueError
            ``timeout`` is NaN or infinite (a caller bug, not load).
        DeadlineExpiredError
            ``timeout`` is not positive -- the deadline is already
            blown on arrival (counted as expired).
        QueueFullError
            The queue is at ``queue_limit`` (counted as shed).
        CoalescerStoppedError
            The batcher is not running.
        """
        now = time.monotonic()
        if not math.isfinite(timeout):
            raise ValueError(f"timeout must be finite, got {timeout!r}")
        if timeout <= 0.0:
            self.metrics.record_expired()
            raise DeadlineExpiredError(
                f"deadline already blown on arrival (timeout={timeout!r}s)"
            )
        ticket = _Ticket(
            row=np.asarray(row, dtype=np.float64),
            deadline=now + min(float(timeout), MAX_TIMEOUT_SECONDS),
            enqueued_at=now,
            done=threading.Event() if on_done is None else None,
            on_done=on_done,
        )
        with self._lock:
            if not self.running:
                raise CoalescerStoppedError("coalescer is not running")
            if len(self._queue) >= self.queue_limit:
                self.metrics.record_shed()
                raise QueueFullError(
                    f"coalescing queue full ({self.queue_limit} waiting)"
                )
            self._queue.append(ticket)
            self.metrics.record_enqueue(len(self._queue))
            on_admit = self._on_admit
            if on_admit is None:
                self._wake.notify_all()
        if on_admit is not None:
            on_admit()
        return ticket

    def fill(self, row: np.ndarray, timeout: float) -> CoalescedFill:
        """Submit one row and block until its micro-batch serves it.

        The wait is bounded by the deadline plus a generous compute
        grace; the batcher always resolves every drained ticket.
        """
        ticket = self.submit(row, timeout)
        assert ticket.done is not None
        ticket.done.wait(max(0.0, ticket.deadline - time.monotonic()) + 30.0)
        if ticket.error is not None:
            raise ticket.error
        if ticket.result is None:  # pragma: no cover - batcher died
            raise CoalescerStoppedError("coalescer dropped the request")
        return ticket.result

    # -- flushing ----------------------------------------------------------

    def next_flush_at(self) -> Optional[float]:
        """``time.monotonic()`` at which the next flush is due.

        ``None`` while the queue is empty; ``-inf`` when a flush is due
        now (a full batch, or a stop draining the queue).
        """
        with self._lock:
            return self._flush_at()

    def _flush_at(self) -> Optional[float]:
        if not self._queue:
            return None
        if self._stopping or len(self._queue) >= self.max_batch_rows:
            return -math.inf
        return min(t.deadline for t in self._queue) - self.flush_margin

    def flush_once(self) -> None:
        """Drain up to ``max_batch_rows`` queued rows and serve them."""
        with self._lock:
            batch, depth_after = self._take()
        if batch:
            self._flush(batch, depth_after)

    def _take(self) -> Tuple[List[_Ticket], int]:
        batch = [
            self._queue.popleft()
            for _ in range(min(len(self._queue), self.max_batch_rows))
        ]
        return batch, len(self._queue)

    def _run(self) -> None:
        while True:
            try:
                if self._run_once():
                    return
            except Exception:  # pragma: no cover - defensive
                # A batcher crash would silently strand every queued
                # and future request (the HTTP side would 503/hang);
                # log it and keep draining instead.
                _logger.exception(
                    "coalescer flush round failed; batcher continuing"
                )

    def _run_once(self) -> bool:
        """One wait/drain/flush round; True means stopped and drained."""
        with self._lock:
            while not self._stopping and not self._queue:
                self._wake.wait()
            if self._stopping and not self._queue:
                return True
            # Wait for a full batch or the earliest deadline minus
            # the flush margin, whichever comes first.  Stopping
            # short-circuits straight to a drain.
            while True:
                flush_at = self._flush_at()
                now = time.monotonic()
                if flush_at is None or now >= flush_at:
                    break
                # Deadlines are clamped at admission; the extra min()
                # keeps the condition wait inside time_t range even if
                # a caller smuggled in a huge deadline some other way.
                self._wake.wait(
                    timeout=min(flush_at - now, MAX_TIMEOUT_SECONDS)
                )
            batch, depth_after = self._take()
        if batch:
            self._flush(batch, depth_after)
        return False

    def _flush(self, batch: List[_Ticket], depth_after: int) -> None:
        """Serve one drained micro-batch and fan the rows back out."""
        now = time.monotonic()
        live: List[_Ticket] = []
        expired: List[_Ticket] = []
        for ticket in batch:
            (expired if now > ticket.deadline else live).append(ticket)
        if expired:
            self.metrics.record_expired(len(expired))
            for ticket in expired:
                ticket.error = DeadlineExpiredError(
                    "deadline expired while queued"
                )
                ticket.resolve()
        if not live:
            return
        # Rows were validated against the registry snapshot current at
        # admission; a hot-swap to a different-width model while they
        # queued can leave mixed widths in one drain.  Group by width so
        # a stale-width ticket fails alone instead of poisoning the
        # whole micro-batch's vstack.  Off the swap path there is
        # exactly one group, i.e. one fill_batch per flush as before.
        groups: Dict[int, List[_Ticket]] = {}
        for ticket in live:
            groups.setdefault(int(ticket.row.shape[0]), []).append(ticket)
        for group in groups.values():
            self._serve_group(group, depth_after)

    def _serve_group(self, live: List[_Ticket], depth_after: int) -> None:
        # Metrics are recorded before any ticket resolves: a client
        # holding its reply must find the flush already counted.
        try:
            with span("serve.coalescer.flush", rows=len(live)) as flush_span:
                result = self.filler.fill_batch(
                    np.array([ticket.row for ticket in live])
                )
        except BaseException as exc:
            if isinstance(exc, ValueError) and not isinstance(
                exc, _BadRequest
            ):
                # Rows are validated at admission, so a ValueError here
                # means the batch no longer matches the *flush-time*
                # model (a hot-swap changed the served width while the
                # rows queued): client/model skew, not a server fault.
                exc = _BadRequest(str(exc))
            self.metrics.record_error(len(live))
            for ticket in live:
                ticket.error = exc
                ticket.resolve()
            return
        served_at = time.monotonic()
        waits = [served_at - ticket.enqueued_at for ticket in live]
        self.metrics.record_flush(
            n_rows=len(live), waits=waits, queue_depth=depth_after
        )
        for i, ticket in enumerate(live):
            ticket.result = CoalescedFill(
                filled=result.filled[i],
                version=result.version,
                fingerprint=result.fingerprint,
                case=result.cases[i],
                flush_rows=len(live),
                wait_seconds=waits[i],
                flush_span=flush_span.span_id,
            )
            ticket.resolve()


# -- the HTTP layer --------------------------------------------------------


class _BadRequest(ValueError):
    """Client-side validation failure (rendered as HTTP 400)."""


class _UnknownTenant(LookupError):
    """The request addressed a tenant the store does not hold (404)."""


@dataclass
class _TenantState:
    """One tenant's serving stack: registry + filler + coalescer.

    Per-tenant fillers are a correctness requirement, not a
    convenience: operator-cache keys are ``(registry version, hole
    pattern, policy)``, and version numbers restart at 1 in every
    namespace -- a shared cache would serve tenant A's operators to
    tenant B.
    """

    name: str
    registry: ModelRegistry
    filler: BatchFiller
    coalescer: DeadlineCoalescer
    #: The loop's pending flush timer.
    timer: Any = None


def _parse_body(handler: ServiceHandler) -> Dict[str, Any]:
    """Read and decode the JSON request body.

    Whenever the declared body is rejected *without being read* the
    handler's connection is marked for close: under HTTP/1.1 keep-alive
    the unread bytes would otherwise be parsed as the next request line
    on the same connection, corrupting every later request on it.
    """
    if "chunked" in handler.headers.get("Transfer-Encoding", "").lower():
        handler.close_connection = True
        raise _BadRequest("chunked request bodies are not supported")
    try:
        length = int(handler.headers.get("Content-Length", "0"))
    except ValueError:
        handler.close_connection = True
        raise _BadRequest("invalid Content-Length header") from None
    if length <= 0:
        raise _BadRequest("a JSON request body is required")
    if length > MAX_BODY_BYTES:
        handler.close_connection = True
        raise _BadRequest(
            f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
        )
    raw = handler.rfile.read(length)
    if len(raw) < length:
        handler.close_connection = True
        raise _BadRequest("request body shorter than Content-Length")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


_FLOAT_OR_NULL = frozenset((float, type(None)))


def _parse_row(payload: Dict[str, Any], width: int) -> np.ndarray:
    """Decode ``{"row": [...]}``; ``null`` cells are holes (NaN)."""
    values = payload.get("row")
    if not isinstance(values, list):
        raise _BadRequest('"row" must be a JSON array of numbers/nulls')
    if len(values) != width:
        raise _BadRequest(
            f'"row" has {len(values)} cells; the served model expects '
            f"{width}"
        )
    if set(map(type, values)) <= _FLOAT_OR_NULL:
        # The common shape of a JSON row: numpy maps None to NaN.
        row = np.array(values, dtype=np.float64)
        if not np.isinf(row).any():
            return row
    row = np.empty(len(values), dtype=np.float64)
    for i, cell in enumerate(values):
        if cell is None:
            row[i] = np.nan
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            if math.isinf(cell):
                raise _BadRequest(
                    f'"row" cell {i} is infinite; holes must be null'
                )
            row[i] = float(cell)
        else:
            raise _BadRequest(
                f'"row" cell {i} must be a number or null, '
                f"got {type(cell).__name__}"
            )
    return row


def _parse_assignments(
    payload: Dict[str, Any], key: str
) -> Dict[str, float]:
    mapping = payload.get(key, {})
    if not isinstance(mapping, dict):
        raise _BadRequest(f'"{key}" must be a JSON object of name: number')
    parsed = {}
    for name, value in mapping.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _BadRequest(
                f'"{key}"["{name}"] must be a number, '
                f"got {type(value).__name__}"
            )
        parsed[str(name)] = float(value)
    return parsed


class _ApiHandler(ServiceHandler):
    """Routes the ``/v1/*`` endpoints onto one :class:`HttpApiServer`.

    Each request runs inside a ``serve.http.request`` span with
    ``serve.http.parse``, ``serve.http.wait`` (admission plus queue
    wait) and ``serve.http.reply`` (encode plus write) children.  Many
    requests interleave on the loop thread, so the request span is
    opened off the thread's stack and activated only while this
    request's code runs; the flush that serves it is a root span of
    its own, linked through the ``flush_span`` attribute.
    """

    # Injected by HttpApiServer via a subclass attribute.
    service: "HttpApiServer"

    protocol_version = "HTTP/1.1"

    #: The open ``serve.http.request`` span of the current request.
    _span: Any

    # -- plumbing ----------------------------------------------------------

    def wants_body(self) -> bool:
        """An unroutable POST is answered (404) without its body."""
        if self.command != "POST":
            return True
        return self._route_post(self.path.split("?", 1)[0]) is not None

    def _serve_request(self, method: str, path: str) -> None:
        self._span = start_span("serve.http.request", method=method, path=path)
        with self._span.activated():
            if method == "POST":
                self._post(path)
            else:
                self._get(path)
        if not self._deferred:
            self._span.end()

    def _respond(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._span.set_attr("status", status)
        with span("serve.http.reply"):
            body = json.dumps(payload).encode("utf-8")
            self.reply(status, body, "application/json; charset=utf-8", headers)

    def _error(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._respond(
            status, {"error": message, "status": status}, headers=headers
        )

    # -- routing -----------------------------------------------------------

    _POST_VERBS = {
        "fill": "_handle_fill",
        "whatif": "_handle_whatif",
        "outlier": "_handle_outlier",
        "recommend": "_handle_recommend",
    }

    def _route_post(
        self, path: str
    ) -> Optional[Tuple[str, str, Optional[str]]]:
        """Map a POST path to ``(verb, method, tenant-or-None)``."""
        if path.startswith("/v1/tenants/"):
            parts = path.split("/")
            # ["", "v1", "tenants", <tenant...>, <verb>]
            if len(parts) < 5:
                return None
            verb = parts[-1]
            tenant = "/".join(parts[3:-1])
            method = self._POST_VERBS.get(verb)
            if method is None or not tenant:
                return None
            return verb, method, tenant
        verb = path.removeprefix("/v1/")
        method = self._POST_VERBS.get(verb)
        if method is None or path != f"/v1/{verb}":
            return None
        return verb, method, None

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        self._serve_request("POST", self.path.split("?", 1)[0])

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        self._serve_request("GET", self.path.split("?", 1)[0])

    def _post(self, path: str) -> None:
        route = self._route_post(path)
        if route is None:
            # The body of an unroutable POST is never read; close the
            # connection so it cannot bleed into the next request.
            self.close_connection = True
            self._error(404, f"unknown endpoint {path!r}")
            return
        verb, method, tenant = route
        self.service.metrics.record_request(verb)
        try:
            with span("serve.http.parse"):
                state = self.service.tenant_state(tenant)
                payload = _parse_body(self)
            getattr(self, method)(payload, state)
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        """Answer a request with the status its failure maps to."""
        if isinstance(exc, _UnknownTenant):
            self.close_connection = True
            self._error(404, str(exc))
        elif isinstance(exc, _BadRequest):
            self.service.metrics.record_bad_request()
            self._error(400, str(exc))
        elif isinstance(exc, NoModelPublishedError):
            self._error(503, "no model published yet")
        elif isinstance(exc, QueueFullError):
            self._error(
                429,
                str(exc),
                headers={
                    "Retry-After": str(self.service.retry_after_seconds)
                },
            )
        elif isinstance(exc, (DeadlineExpiredError, CoalescerStoppedError)):
            self._error(503, str(exc))
        else:  # flush-side or handler-side failure
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _get(self, path: str) -> None:
        if path == "/healthz":
            self.service.metrics.record_request()
            self._handle_healthz()
            return
        if path == "/v1/models":
            self.service.metrics.record_request()
            self._handle_models(self.service.default_state)
            return
        if path == "/v1/tenants":
            self.service.metrics.record_request()
            if self.service.store is None:
                self._error(404, "tenant routes require a mounted store")
            else:
                self._handle_tenants()
            return
        if path.startswith("/v1/tenants/") and path.endswith("/models"):
            tenant = path[len("/v1/tenants/"): -len("/models")]
            self.service.metrics.record_request()
            try:
                self._handle_models(self.service.tenant_state(tenant))
            except _UnknownTenant as exc:
                self._error(404, str(exc))
            except _BadRequest as exc:
                self._error(400, str(exc))
            return
        self._error(404, f"unknown endpoint {path!r} (try /healthz)")

    # -- endpoints ---------------------------------------------------------

    def _timeout_seconds(self, payload: Dict[str, Any]) -> float:
        value = payload.get("timeout_ms", self.service.default_timeout_ms)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _BadRequest('"timeout_ms" must be a number')
        seconds = float(value) / 1e3
        # json.loads accepts Infinity/NaN/1e400; an unbounded deadline
        # would overflow the batcher's condition wait, so reject
        # non-finite values outright and clamp the rest.  Non-positive
        # timeouts stay legal here: they reach the coalescer as an
        # already-blown deadline (503 + expired counter, documented).
        if not math.isfinite(seconds):
            raise _BadRequest(
                '"timeout_ms" must be a finite number of milliseconds'
            )
        return min(seconds, MAX_TIMEOUT_SECONDS)

    def _coalesced_fill(
        self,
        state: "_TenantState",
        row: np.ndarray,
        payload: Dict[str, Any],
        answer: Callable[[CoalescedFill], None],
    ) -> None:
        """Admit ``row``; the flush that serves it calls ``answer``."""
        timeout = self._timeout_seconds(payload)
        request = self._span
        wait = start_span("serve.http.wait", parent=request)

        def done(ticket: _Ticket) -> None:
            wait.end(error=ticket.error is not None)
            with request.activated():
                if ticket.error is not None:
                    self._fail(ticket.error)
                else:
                    assert ticket.result is not None
                    request.set_attr("flush_span", ticket.result.flush_span)
                    answer(ticket.result)
            request.end()

        try:
            state.coalescer.submit(row, timeout, on_done=done)
        except BaseException:
            wait.end(error=True)
            raise
        self.defer()

    def _handle_fill(
        self, payload: Dict[str, Any], state: "_TenantState"
    ) -> None:
        snapshot = state.registry.current()
        row = _parse_row(payload, snapshot.model.schema_.width)

        def answer(outcome: CoalescedFill) -> None:
            self._respond(
                200,
                {
                    "filled": outcome.filled.tolist(),
                    "case": outcome.case,
                    "version": outcome.version,
                    "fingerprint": outcome.fingerprint,
                    "coalesced_rows": outcome.flush_rows,
                },
            )

        self._coalesced_fill(state, row, payload, answer)

    def _handle_whatif(
        self, payload: Dict[str, Any], state: "_TenantState"
    ) -> None:
        snapshot = state.registry.current()
        schema = snapshot.model.schema_
        fixed = _parse_assignments(payload, "set")
        scaled = _parse_assignments(payload, "scale")
        if not fixed and not scaled:
            raise _BadRequest(
                'a scenario must constrain at least one attribute '
                '(provide "set" and/or "scale")'
            )
        overlap = set(fixed) & set(scaled)
        if overlap:
            raise _BadRequest(
                f"attributes both set and scaled: {sorted(overlap)}"
            )
        baselines = dict(zip(schema.names, snapshot.model.means_))
        row = np.full(schema.width, np.nan)
        try:
            for name, value in fixed.items():
                row[schema.index_of(name)] = value
            for name, factor in scaled.items():
                row[schema.index_of(name)] = baselines[name] * factor
        except KeyError as exc:
            raise _BadRequest(f"unknown attribute: {exc}") from None

        def answer(outcome: CoalescedFill) -> None:
            self._respond(
                200,
                {
                    "values": {
                        name: float(outcome.filled[j])
                        for j, name in enumerate(schema.names)
                    },
                    "specified": sorted(set(fixed) | set(scaled)),
                    "case": outcome.case,
                    "version": outcome.version,
                    "fingerprint": outcome.fingerprint,
                },
            )

        self._coalesced_fill(state, row, payload, answer)

    def _handle_outlier(
        self, payload: Dict[str, Any], state: "_TenantState"
    ) -> None:
        snapshot = state.registry.current()
        model = snapshot.model
        row = _parse_row(payload, model.schema_.width)
        if np.isnan(row).any():
            raise _BadRequest(
                "outlier scoring needs a complete row (no null cells); "
                "fill holes first via /v1/fill"
            )
        reconstructed = model.reconstruct(row[None, :])[0]
        errors = row - reconstructed
        self._respond(
            200,
            {
                "residual": float(np.linalg.norm(errors)),
                "reconstructed": [float(v) for v in reconstructed],
                "cell_errors": [float(v) for v in errors],
                "version": snapshot.version,
                "fingerprint": snapshot.fingerprint,
            },
        )

    def _handle_recommend(
        self, payload: Dict[str, Any], state: "_TenantState"
    ) -> None:
        from repro.core.recommend import BasketRecommender

        snapshot = state.registry.current()
        basket = _parse_assignments(payload, "basket")
        if not basket:
            raise _BadRequest(
                '"basket" must name at least one known product'
            )
        top_n = payload.get("top_n", 3)
        if not isinstance(top_n, int) or isinstance(top_n, bool):
            raise _BadRequest('"top_n" must be an integer')
        ranking = payload.get("ranking", "uplift")
        try:
            recommender = BasketRecommender(snapshot.model, ranking=ranking)
            recommendations = recommender.recommend(basket, top_n=top_n)
        except (KeyError, ValueError) as exc:
            raise _BadRequest(str(exc)) from None
        self._respond(
            200,
            {
                "recommendations": [
                    {
                        "product": rec.product,
                        "predicted_spend": rec.predicted_spend,
                        "uplift": rec.uplift,
                    }
                    for rec in recommendations
                ],
                "version": snapshot.version,
                "fingerprint": snapshot.fingerprint,
            },
        )

    def _handle_healthz(self) -> None:
        service = self.service
        try:
            snapshot = service.registry.current()
        except NoModelPublishedError:
            self._error(503, "no model published yet")
            return
        if not service.coalescer.running:
            self._error(503, "coalescer is not running")
            return
        self._respond(
            200, {"status": "ok", "version": snapshot.version}
        )

    def _handle_models(self, state: "_TenantState") -> None:
        try:
            snapshot = state.registry.current()
        except NoModelPublishedError:
            self._respond(200, {"tenant": state.name, "current": None})
            return
        model = snapshot.model
        self._respond(
            200,
            {
                "tenant": state.name,
                "current": {
                    "version": snapshot.version,
                    "fingerprint": snapshot.fingerprint,
                    "published_at": snapshot.published_at,
                    "k": model.k,
                    "n_rows": model.n_rows_,
                    "columns": list(model.schema_.names),
                },
            },
        )

    def _handle_tenants(self) -> None:
        self._respond(200, self.service.describe_tenants())


class HttpApiServer(HttpService):
    """The hole-filling API server (see the module docstring).

    Parameters
    ----------
    source:
        A :class:`~repro.serve.ModelRegistry` (hot-swappable serving),
        a fitted :class:`~repro.core.model.RatioRuleModel`, or a
        ready-made :class:`~repro.serve.BatchFiller`.  May be ``None``
        when ``store`` is given -- the default tenant's model then
        comes from the store (recovered on startup, no refit).
    store:
        Optional :class:`~repro.store.ModelStore`.  Mounting one makes
        the server multi-tenant: the ``/v1/tenants/<tenant>/...``
        routes serve every namespace in the store (per-tenant serving
        stacks are created on first use), the default ``/v1/*`` routes
        serve the ``tenant`` namespace, and a
        :class:`~repro.store.StoreWatcher` polls for publishes from
        other processes sharing the directory.  A ``source`` model is
        published into the default tenant's namespace at construction
        (skipped when the store already holds that exact fingerprint).
    tenant:
        Default tenant namespace for the bare ``/v1/*`` routes
        (default ``"default"``).
    watch_interval:
        Store poll cadence in seconds; 0 disables background polling
        (hot-swaps then only happen via this process's own publishes
        or explicit ``registry.sync()`` calls).
    host / port:
        Bind address; ``port=0`` discovers an ephemeral port
        (re-exposed on ``self.port`` after :meth:`start`).
    max_batch_rows / flush_margin / queue_limit:
        Coalescer tuning; see :class:`DeadlineCoalescer`.
    default_timeout_ms:
        Per-request deadline applied when the request body carries no
        ``timeout_ms``.
    retry_after_seconds:
        Value of the ``Retry-After`` header on shed (429) responses.
    cache_entries / underdetermined:
        Forwarded to the internally built
        :class:`~repro.serve.BatchFiller` (ignored when ``source``
        already is one).
    metrics:
        Optional shared :class:`~repro.obs.metrics.ServeHttpMetrics`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RatioRuleModel
    >>> from repro.serve.http import HttpApiServer
    >>> X = np.outer(np.arange(1.0, 9.0), [1.0, 2.0])
    >>> server = HttpApiServer(RatioRuleModel(cutoff=1).fit(X), port=0)
    >>> port = server.start()   # doctest: +SKIP
    >>> server.stop()           # doctest: +SKIP
    """

    thread_name = "repro-serve-http"

    def __init__(
        self,
        source: Union[ModelRegistry, RatioRuleModel, BatchFiller, None] = None,
        *,
        store: Optional["ModelStore"] = None,
        tenant: Optional[str] = None,
        watch_interval: float = 0.25,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_rows: int = 64,
        flush_margin: float = 0.005,
        queue_limit: int = 256,
        default_timeout_ms: float = 1000.0,
        retry_after_seconds: int = 1,
        cache_entries: int = 1024,
        underdetermined: str = "truncate",
        metrics: Optional[ServeHttpMetrics] = None,
    ) -> None:
        super().__init__(host=host, port=port)
        if not math.isfinite(default_timeout_ms) or default_timeout_ms <= 0.0:
            raise ValueError(
                f"default_timeout_ms must be finite and > 0, "
                f"got {default_timeout_ms}"
            )
        if source is None and store is None:
            raise ValueError("provide a source, a store, or both")
        if tenant is not None and store is None:
            raise ValueError("tenant routing requires a store")
        if watch_interval < 0.0:
            raise ValueError(
                f"watch_interval must be >= 0, got {watch_interval}"
            )
        self.metrics = metrics if metrics is not None else ServeHttpMetrics()
        self.store = store
        self._coalescer_opts = {
            "max_batch_rows": max_batch_rows,
            "flush_margin": flush_margin,
            "queue_limit": queue_limit,
        }
        self._filler_opts = {
            "cache_entries": cache_entries,
            "underdetermined": underdetermined,
        }
        if store is not None:
            if tenant is None:
                from repro.store import DEFAULT_NAMESPACE

                tenant = DEFAULT_NAMESPACE
            if isinstance(source, BatchFiller):
                raise ValueError(
                    "a ready-made BatchFiller cannot be combined with a "
                    "store; pass a model, a store-backed registry, or "
                    "neither"
                )
            if isinstance(source, ModelRegistry):
                if source.store is not store:
                    raise ValueError(
                        "the registry's store must be the server's store"
                    )
                registry = source
                tenant = registry.namespace or tenant
            else:
                registry = ModelRegistry(store=store, namespace=tenant)
                if source is not None:
                    current = (
                        registry.current().fingerprint
                        if registry.latest_version
                        else None
                    )
                    if source.fingerprint() != current:
                        registry.publish(source, allow_schema_change=True)
            self.filler = BatchFiller(registry, **self._filler_opts)
        else:
            if isinstance(source, BatchFiller):
                self.filler = source
            else:
                self.filler = BatchFiller(source, **self._filler_opts)
        self.tenant = tenant
        self.registry = self.filler.registry
        self.coalescer = DeadlineCoalescer(
            self.filler, metrics=self.metrics, **self._coalescer_opts
        )
        self.default_state = _TenantState(
            name=tenant if tenant is not None else "default",
            registry=self.registry,
            filler=self.filler,
            coalescer=self.coalescer,
        )
        self._tenants: Dict[str, _TenantState] = {
            self.default_state.name: self.default_state
        }
        self._tenants_lock = threading.Lock()
        #: Tenants with rows admitted since the loop last pumped.
        self._admitted: List[_TenantState] = []
        self._watcher = None
        if store is not None and watch_interval > 0.0:
            from repro.store import StoreWatcher

            self._watcher = StoreWatcher(
                self._watched_registries, interval=watch_interval
            )
        self.default_timeout_ms = float(default_timeout_ms)
        self.retry_after_seconds = int(retry_after_seconds)

    # -- tenants -----------------------------------------------------------

    def _watched_registries(self) -> List[ModelRegistry]:
        with self._tenants_lock:
            states = list(self._tenants.values())
        return [
            state.registry for state in states
            if state.registry.store is not None
        ]

    def tenant_state(self, tenant: Optional[str]) -> _TenantState:
        """Resolve (lazily creating) the serving stack for a tenant.

        ``None`` and the default tenant's own name resolve to the
        default stack.  Other names require a mounted store holding
        that namespace; the first request for a namespace builds its
        registry (running startup recovery), filler, and coalescer.
        """
        if tenant is None or tenant == self.default_state.name:
            return self.default_state
        if self.store is None:
            raise _UnknownTenant(
                f"unknown tenant {tenant!r} (multi-tenant serving "
                f"requires a model store)"
            )
        with self._tenants_lock:
            state = self._tenants.get(tenant)
            if state is not None:
                return state
            from repro.store import StoreError

            try:
                if self.store.latest_version(tenant) == 0:
                    raise _UnknownTenant(
                        f"tenant {tenant!r} has no published models"
                    )
            except StoreError as exc:
                raise _BadRequest(str(exc)) from None
            registry = ModelRegistry(store=self.store, namespace=tenant)
            filler = BatchFiller(registry, **self._filler_opts)
            coalescer = DeadlineCoalescer(
                filler, metrics=self.metrics, **self._coalescer_opts
            )
            state = _TenantState(
                name=tenant,
                registry=registry,
                filler=filler,
                coalescer=coalescer,
            )
            if self._thread is not None:
                self._bind(state, self._thread)
            self._tenants[tenant] = state
            return state

    def describe_tenants(self) -> Dict[str, Any]:
        """The ``GET /v1/tenants`` payload: every servable namespace."""
        versions: Dict[str, int] = {}
        if self.store is not None:
            for namespace in self.store.namespaces():
                versions[namespace] = self.store.latest_version(namespace)
        with self._tenants_lock:
            for name, state in self._tenants.items():
                versions.setdefault(name, state.registry.latest_version)
        return {
            "default": self.default_state.name,
            "tenants": [
                {"name": name, "version": versions[name]}
                for name in sorted(versions)
            ],
        }

    # -- the loop side -----------------------------------------------------

    def _bind(self, state: _TenantState, thread: threading.Thread) -> None:
        def admitted() -> None:
            if threading.current_thread() is thread:
                self._admitted.append(state)  # pumped once the handler returns
            elif self._loop is not None:  # an in-process caller's thread
                self._loop.call_soon_threadsafe(self._pump, state)

        state.coalescer.bind(thread, admitted)

    def _attach(self, thread: threading.Thread) -> None:
        with self._tenants_lock:
            states = list(self._tenants.values())
        for state in states:
            self._bind(state, thread)

    def _after_dispatch(self) -> None:
        while self._admitted:
            self._pump(self._admitted.pop())

    def _pump(self, state: _TenantState) -> None:
        """Run every flush now due for one tenant; time the next one."""
        coalescer = state.coalescer
        while True:
            flush_at = coalescer.next_flush_at()
            if flush_at is None:
                return
            if flush_at > time.monotonic():  # the loop's clock
                timer = state.timer
                if timer is None or timer.at > flush_at:
                    if timer is not None:
                        timer.cancel()
                    assert self._loop is not None
                    state.timer = self._loop.call_at(
                        flush_at, self._on_timer, state
                    )
                return
            coalescer.flush_once()

    def _on_timer(self, state: _TenantState) -> None:
        state.timer = None
        self._pump(state)

    def _drain(self) -> None:
        """Serve everything still queued before the connections close."""
        with self._tenants_lock:
            states = list(self._tenants.values())
        for state in states:
            state.coalescer._stopping = True
            self._pump(state)

    # -- lifecycle ---------------------------------------------------------

    def _handler_class(self) -> Type[ServiceHandler]:
        return type("_BoundApiHandler", (_ApiHandler,), {"service": self})

    def start(self) -> int:
        """Start the watcher, then bind and serve every tenant's
        coalescer from the one event-loop thread."""
        if self.running:
            raise RuntimeError(f"{type(self).__name__} already started")
        if self._watcher is not None:
            self._watcher.start()
        try:
            return super().start()
        except Exception:
            self._stop_tenants()
            raise

    def stop(self) -> None:
        """Stop accepting requests, serve what is queued, then stop.

        Idempotent, like :meth:`HttpService.stop`.  The order matters:
        the listener goes down first so no new requests arrive, then
        the loop's final flushes serve everything already queued, and
        only then do the connections close.
        """
        super().stop()
        self._stop_tenants()

    def _stop_tenants(self) -> None:
        if self._watcher is not None:
            self._watcher.stop()
        with self._tenants_lock:
            states = list(self._tenants.values())
        for state in states:
            state.coalescer.stop()
            state.timer = None

    def __enter__(self) -> "HttpApiServer":
        self.start()
        return self
