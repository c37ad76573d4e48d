"""Trace spans: who spent the wall-clock, nested and exportable.

The counters in :mod:`repro.obs.metrics` say *how much* work a scan or
a served batch did; spans say *where the time went*.  A span is one
timed region with a name, key/value attributes, and a parent -- the
enclosing span on the same thread -- so a dump reconstructs the call
tree: ``engine.scan`` containing ``engine.plan``, many ``scan.chunk``
spans, and ``engine.merge``.

Design constraints, in order:

1. **Near-zero overhead when off.**  Tracing is *disabled by default*;
   :func:`span` then returns a shared no-op context manager after one
   module-global boolean check.  Nothing allocates, nothing locks, no
   clock is read.  ``benchmarks/test_obs_overhead.py`` holds this to
   <2% on the engine scale-up workload (and <10% enabled).
2. **Bounded memory.**  Finished spans land in an in-memory ring
   buffer (:data:`DEFAULT_BUFFER_SPANS` entries); beyond that the
   oldest spans are dropped and the drop count is reported in the
   dump, so a long-running ``pipeline --follow`` process cannot leak.
3. **Cross-process collection.**  Spans created inside
   ``ProcessPoolExecutor`` scan workers cannot reach the coordinator's
   buffer directly.  Workers instead *export* their finished spans as
   plain dicts (:func:`export_current_spans` on a private
   :class:`Tracer`), the engine piggybacks them on the per-chunk
   result tuples it already returns, and the coordinator re-parents
   them under its own scan span with :func:`adopt_spans`.  All
   timestamps are ``time.perf_counter()``, which on Linux is the
   system-wide ``CLOCK_MONOTONIC`` -- readings from different
   processes on one host are directly comparable, so adopted chunk
   spans order correctly against coordinator spans.

Work that interleaves on one thread -- an event loop serving many
requests -- cannot nest by the thread's stack: a request opened before
another one may finish after it.  :func:`start_span` opens a span off
the stack with an explicit parent; :meth:`SpanHandle.activated` puts it
on the stack for a synchronous stretch, so ordinary :func:`span` calls
nest under it; :meth:`SpanHandle.end` closes it.

The module-level functions (:func:`span`, :func:`traced`,
:func:`set_tracing`, :func:`drain_spans`, ...) all delegate to one
process-global :class:`Tracer`; tests may build private tracers.

>>> set_tracing(True)
>>> with span("demo.outer") as outer:
...     with span("demo.inner", rows=3):
...         pass
>>> set_tracing(False)
>>> names = [s["name"] for s in drain_spans()]
>>> names
['demo.inner', 'demo.outer']
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

__all__ = [
    "DEFAULT_BUFFER_SPANS",
    "Tracer",
    "SpanHandle",
    "adopt_spans",
    "drain_spans",
    "dump_spans",
    "export_current_spans",
    "get_tracer",
    "render_span_tree",
    "set_tracing",
    "span",
    "start_span",
    "traced",
    "tracing_enabled",
]

#: Ring-buffer capacity of finished spans; older spans are dropped
#: (and counted) once a trace grows past this.
DEFAULT_BUFFER_SPANS = 8192

_FuncT = TypeVar("_FuncT", bound=Callable[..., Any])


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    #: Null spans have no identity; adopted children of a null parent
    #: become roots.
    span_id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        """Discard the attribute (tracing is off)."""

    def activated(self) -> "_NullSpan":
        """No-op activation (tracing is off)."""
        return self

    def end(self, *, error: bool = False) -> None:
        """Nothing to close (tracing is off)."""


_NULL_SPAN = _NullSpan()

#: Process-wide span-id counter, shared by every :class:`Tracer` so ids
#: stay unique even when many short-lived tracers run in one process
#: (each scan-worker chunk task builds its own private tracer).
_ID_COUNTER = itertools.count(1)


class SpanHandle:
    """One live (open) span; finished spans are stored as plain dicts.

    Use as a context manager (via :meth:`Tracer.span`); attributes can
    be attached up front or mid-flight with :meth:`set_attr`.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: str = ""
        self.parent_id: Optional[str] = None
        self.start: float = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one key/value attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._new_id()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.end(error=exc_type is not None)
        return False

    def end(self, *, error: bool = False) -> None:
        """Close the span and record it (the context manager's exit)."""
        self._tracer._record(
            {
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "end": time.perf_counter(),
                "pid": os.getpid(),
                "status": "error" if error else "ok",
                "attrs": self.attrs,
            }
        )

    def activated(self) -> "_Activation":
        """Context manager that makes this open span the thread's
        current parent, without ending it on exit."""
        return _Activation(self)


class _Activation:
    """Push an open span on its thread's stack for one ``with`` block."""

    __slots__ = ("_handle",)

    def __init__(self, handle: SpanHandle) -> None:
        self._handle = handle

    def __enter__(self) -> SpanHandle:
        self._handle._tracer._stack().append(self._handle)
        return self._handle

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        stack = self._handle._tracer._stack()
        if stack and stack[-1] is self._handle:
            stack.pop()
        return False


class Tracer:
    """A span collector: enable switch, thread-local nesting, ring buffer.

    Parameters
    ----------
    enabled:
        Initial switch position (the process-global tracer starts off).
    buffer_spans:
        Finished-span ring-buffer capacity; the oldest spans are
        dropped (and counted on :attr:`n_dropped`) past it.
    """

    def __init__(
        self, *, enabled: bool = False, buffer_spans: int = DEFAULT_BUFFER_SPANS
    ) -> None:
        if buffer_spans < 1:
            raise ValueError(f"buffer_spans must be >= 1, got {buffer_spans}")
        self.enabled = bool(enabled)
        self._buffer: Deque[dict] = deque(maxlen=int(buffer_spans))
        self._lock = threading.Lock()
        self._local = threading.local()
        self.n_dropped = 0

    # -- internals ---------------------------------------------------------

    def _stack(self) -> List[SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _new_id(self) -> str:
        # pid + process-wide counter: unique on one host without any
        # randomness, and stable enough to diff two trace dumps.
        return f"{os.getpid():x}-{next(_ID_COUNTER):x}"

    def _record(self, payload: dict) -> None:
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self.n_dropped += 1
            self._buffer.append(payload)

    # -- the span API ------------------------------------------------------

    def span(
        self, name: str, **attrs: Any
    ) -> Union[SpanHandle, _NullSpan]:
        """Open a span context manager (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return SpanHandle(self, name, attrs)

    def start(
        self,
        name: str,
        *,
        parent: Union[SpanHandle, _NullSpan, None] = None,
        **attrs: Any,
    ) -> Union[SpanHandle, _NullSpan]:
        """Open a span off the thread's stack, under an explicit parent.

        The span is closed with :meth:`SpanHandle.end`; it nests other
        spans only inside :meth:`SpanHandle.activated`.
        """
        if not self.enabled:
            return _NULL_SPAN
        handle = SpanHandle(self, name, attrs)
        handle.parent_id = parent.span_id if parent is not None else None
        handle.span_id = self._new_id()
        handle.start = time.perf_counter()
        return handle

    def traced(self, name: Optional[str] = None) -> Callable[[_FuncT], _FuncT]:
        """Decorator form: wrap every call of the function in a span."""

        def decorate(func: _FuncT) -> _FuncT:
            span_name = name if name is not None else func.__qualname__

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return func(*args, **kwargs)
                with self.span(span_name):
                    return func(*args, **kwargs)

            return wrapper  # type: ignore[return-value]

        return decorate

    # -- collection --------------------------------------------------------

    def spans(self) -> List[dict]:
        """Snapshot of the finished spans, oldest first (non-draining)."""
        with self._lock:
            return list(self._buffer)

    def drain(self) -> List[dict]:
        """Return and clear the finished spans (drop count survives)."""
        with self._lock:
            spans = list(self._buffer)
            self._buffer.clear()
            return spans

    def clear(self) -> None:
        """Forget every finished span and reset the drop counter."""
        with self._lock:
            self._buffer.clear()
            self.n_dropped = 0

    def adopt(
        self,
        payloads: Sequence[dict],
        *,
        parent: Union[SpanHandle, _NullSpan, None] = None,
    ) -> int:
        """Re-parent foreign (e.g. worker-process) span dicts into this
        tracer's buffer.

        Foreign *root* spans (``parent_id`` is None or unknown within
        the payload batch) are attached under ``parent``; nested
        foreign spans keep their internal parentage.  Returns the
        number of spans adopted.
        """
        parent_id = parent.span_id if parent is not None else None
        known = {p.get("span_id") for p in payloads}
        adopted = 0
        for payload in payloads:
            record = dict(payload)
            if record.get("parent_id") not in known:
                record["parent_id"] = parent_id
            self._record(record)
            adopted += 1
        return adopted

    def export(self) -> List[dict]:
        """Drain finished spans for shipping across a process boundary.

        The returned dicts are plain (picklable/JSON-able); feed them
        to another tracer's :meth:`adopt`.
        """
        return self.drain()

    def dump(self, path: Union[str, Path]) -> int:
        """Write the buffered spans as a JSON trace file; returns the
        span count written.  The buffer is left intact."""
        spans = self.spans()
        payload = {
            "clock": "perf_counter",
            "n_spans": len(spans),
            "n_dropped": self.n_dropped,
            "spans": sorted(spans, key=lambda s: s["start"]),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return len(spans)


#: The process-global tracer behind the module-level helpers.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-global :class:`Tracer`."""
    return _GLOBAL


def tracing_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return _GLOBAL.enabled


def set_tracing(enabled: bool) -> None:
    """Flip the global tracing switch (off by default)."""
    _GLOBAL.enabled = bool(enabled)


def span(name: str, **attrs: Any) -> Union[SpanHandle, _NullSpan]:
    """Open a span on the global tracer (no-op while disabled)."""
    if not _GLOBAL.enabled:
        return _NULL_SPAN
    return SpanHandle(_GLOBAL, name, attrs)


def start_span(
    name: str,
    *,
    parent: Union[SpanHandle, _NullSpan, None] = None,
    **attrs: Any,
) -> Union[SpanHandle, _NullSpan]:
    """Open a span off the thread's stack on the global tracer."""
    if not _GLOBAL.enabled:
        return _NULL_SPAN
    return _GLOBAL.start(name, parent=parent, **attrs)


def traced(name: Optional[str] = None) -> Callable[[_FuncT], _FuncT]:
    """Decorator: trace every call of the function on the global tracer."""
    return _GLOBAL.traced(name)


def drain_spans() -> List[dict]:
    """Return and clear the global tracer's finished spans."""
    return _GLOBAL.drain()


def adopt_spans(
    payloads: Sequence[dict],
    *,
    parent: Union[SpanHandle, _NullSpan, None] = None,
) -> int:
    """Re-parent foreign span dicts into the global tracer."""
    return _GLOBAL.adopt(payloads, parent=parent)


def export_current_spans() -> List[dict]:
    """Drain the global tracer for cross-process shipping."""
    return _GLOBAL.export()


def dump_spans(path: Union[str, Path]) -> int:
    """Write the global tracer's spans as a JSON trace file."""
    return _GLOBAL.dump(path)


def render_span_tree(trace: dict) -> str:
    """Pretty-print a trace dump (the ``obs dump`` CLI rendering).

    ``trace`` is the JSON object written by :meth:`Tracer.dump`:
    ``{"spans": [...], "n_dropped": ...}``.  Spans are shown as an
    indented tree with millisecond durations and attributes.
    """
    spans = sorted(trace.get("spans", []), key=lambda s: s["start"])
    children: Dict[Optional[str], List[dict]] = {}
    ids = {s.get("span_id") for s in spans}
    for record in spans:
        parent = record.get("parent_id")
        if parent not in ids:
            parent = None  # orphan: render as a root
        children.setdefault(parent, []).append(record)

    origin = min((s["start"] for s in spans), default=0.0)
    lines: List[str] = []

    def _walk(parent: Optional[str], depth: int) -> None:
        for record in children.get(parent, []):
            duration_ms = (record["end"] - record["start"]) * 1e3
            offset_ms = (record["start"] - origin) * 1e3
            attrs = record.get("attrs") or {}
            attr_text = (
                "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                if attrs
                else ""
            )
            marker = " !" if record.get("status") == "error" else ""
            lines.append(
                f"{'  ' * depth}{record['name']}{marker}  "
                f"+{offset_ms:.3f}ms  {duration_ms:.3f}ms"
                f"{attr_text}"
            )
            _walk(record.get("span_id"), depth + 1)

    _walk(None, 0)
    n_dropped = int(trace.get("n_dropped", 0))
    header = f"{len(spans)} span(s)"
    if n_dropped:
        header += f" ({n_dropped} dropped by the ring buffer)"
    return "\n".join([header] + lines)
