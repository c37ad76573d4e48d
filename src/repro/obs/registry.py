"""A thread-safe metrics registry: counters, gauges, histograms.

The six records in :mod:`repro.obs.metrics` are plain dataclasses:
each subsystem owns one and mutates its fields directly.  That is fine
for ``--stats`` dumps but gives a monitoring system nothing to scrape.
This module adds the missing indirection: a
:class:`MetricsRegistry` holding named instruments --
:class:`Counter`, :class:`Gauge`, and fixed-bucket
:class:`Histogram` -- plus *collector* callbacks sampled lazily at
:meth:`MetricsRegistry.collect` time.

:func:`register_record` plugs any record in (the typed
``register_*_metrics`` functions are thin wrappers that also check the
record's type).  It registers a collector that snapshots the record's
``to_dict()`` on every scrape and maps **every field** to at least one
sample, as the field's declared kind says: counters scrape as
counters, other numbers as gauges, string fields as ``*_info`` gauges
with the value as a label, dict fields fan out one sample per key, and
bounded sample lists export their retained length.  The record's
``DERIVED`` families (throughput, hit rates, latency quantiles) follow.
The records stay the single writer-side source of truth.

Exporters (Prometheus text format, JSON, the ``/metrics`` HTTP
endpoint) live in :mod:`repro.obs.export` and consume
:meth:`MetricsRegistry.collect` output only.

>>> registry = MetricsRegistry()
>>> requests = registry.counter("demo_requests", "Requests served.")
>>> requests.inc()
>>> requests.inc(2.0, route="fill")
>>> [s.value for f in registry.collect() for s in f.samples]
[1.0, 2.0]
"""

from __future__ import annotations

import dataclasses
import re
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import (
    MetricsRecord,
    PipelineMetrics,
    ScanMetrics,
    ServeHttpMetrics,
    ServeMetrics,
    StoreMetrics,
    WatchMetrics,
    field_kinds,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "get_registry",
    "register_pipeline_metrics",
    "register_record",
    "register_scan_metrics",
    "register_serve_http_metrics",
    "register_serve_metrics",
    "register_store_metrics",
    "register_watch_metrics",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency-histogram buckets (seconds): 100us .. 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name: {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclasses.dataclass(frozen=True)
class Sample:
    """One exported time-series point: labels + value."""

    labels: _LabelKey
    value: float

    def labels_dict(self) -> Dict[str, str]:
        """The labels as a plain dict."""
        return dict(self.labels)


@dataclasses.dataclass(frozen=True)
class MetricFamily:
    """One named metric with all its labeled samples, ready to export.

    ``type`` is one of ``"counter"``, ``"gauge"``, ``"histogram"``.
    Histogram samples use the Prometheus convention: the suffix lives
    in the sample's synthetic ``__name__``-free encoding -- bucket
    samples carry an ``le`` label, and the family also exposes
    ``sum_samples`` / ``count_samples`` pairs via plain samples on the
    ``_sum`` / ``_count`` companion names produced by the exporters.
    """

    name: str
    type: str
    help: str
    samples: Tuple[Sample, ...]
    #: Histogram-only payload: per-labelset cumulative bucket rows
    #: ``(labels, [(upper_bound, cumulative_count), ...], sum, count)``.
    histogram_rows: Tuple[
        Tuple[_LabelKey, Tuple[Tuple[float, int], ...], float, int], ...
    ] = ()


class _Instrument:
    """Shared machinery: name/help, per-labelset storage, one lock."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: Dict[_LabelKey, float] = {}

    def _samples(self) -> Tuple[Sample, ...]:
        with self._lock:
            return tuple(
                Sample(labels, value)
                for labels, value in sorted(self._values.items())
            )

    def collect(self) -> MetricFamily:
        """Snapshot this instrument as a :class:`MetricFamily`."""
        return MetricFamily(
            name=self.name,
            type=self.kind,
            help=self.help,
            samples=self._samples(),
        )


class Counter(_Instrument):
    """A monotonically increasing sum (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        """Current value of the labeled series (0.0 if never touched)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)


class Gauge(_Instrument):
    """A value that can go up and down (optionally per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labeled series to ``value``."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Subtract ``amount`` from the labeled series."""
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of the labeled series (0.0 if never set)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)


class Histogram(_Instrument):
    """Fixed-bucket distribution of observations (e.g. latencies).

    Buckets are upper bounds in increasing order; a final ``+Inf``
    bucket is implicit.  Exported in the cumulative Prometheus
    convention.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"buckets must be strictly increasing: {bounds}")
        self.buckets = bounds
        self._counts: Dict[_LabelKey, List[int]] = {}
        self._sums: Dict[_LabelKey, float] = {}
        self._totals: Dict[_LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labeled series."""
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1  # the implicit +Inf bucket
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def collect(self) -> MetricFamily:
        """Snapshot with cumulative bucket rows per label set."""
        with self._lock:
            rows = []
            for key in sorted(self._counts):
                cumulative = 0
                bucket_rows = []
                for bound, count in zip(self.buckets, self._counts[key]):
                    cumulative += count
                    bucket_rows.append((bound, cumulative))
                cumulative += self._counts[key][-1]
                bucket_rows.append((float("inf"), cumulative))
                rows.append(
                    (
                        key,
                        tuple(bucket_rows),
                        self._sums[key],
                        self._totals[key],
                    )
                )
        return MetricFamily(
            name=self.name,
            type=self.kind,
            help=self.help,
            samples=(),
            histogram_rows=tuple(rows),
        )


#: A collector is sampled at scrape time and yields ready families.
Collector = Callable[[], Iterable[MetricFamily]]


class MetricsRegistry:
    """Named instruments plus lazy collectors, scraped together.

    Instrument factories are idempotent on ``(name)``: asking twice
    for the same name returns the same instrument, and asking for the
    same name with a different instrument kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Collector] = []

    def _get_or_create(
        self, name: str, factory: Callable[[], _Instrument]
    ) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        instrument = self._get_or_create(
            name, lambda: Counter(name, help_text)
        )
        if not isinstance(instrument, Counter):
            raise TypeError(
                f"{name!r} is already registered as {instrument.kind}"
            )
        return instrument

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        instrument = self._get_or_create(name, lambda: Gauge(name, help_text))
        if not isinstance(instrument, Gauge):
            raise TypeError(
                f"{name!r} is already registered as {instrument.kind}"
            )
        return instrument

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the named :class:`Histogram`."""
        instrument = self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets)
        )
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"{name!r} is already registered as {instrument.kind}"
            )
        return instrument

    def register_collector(self, collector: Collector) -> None:
        """Add a callback sampled on every :meth:`collect`."""
        with self._lock:
            self._collectors.append(collector)

    def unregister_collector(self, collector: Collector) -> None:
        """Remove a previously registered collector (no-op if absent)."""
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def collect(self) -> List[MetricFamily]:
        """Scrape: snapshot every instrument, then every collector."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        families = [instrument.collect() for instrument in instruments]
        for collector in collectors:
            families.extend(collector())
        return families

    def clear(self) -> None:
        """Drop every instrument and collector (test isolation)."""
        with self._lock:
            self._instruments.clear()
            self._collectors.clear()


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL


# -- metrics records as scrape targets -------------------------------------


def _sanitize(token: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", token)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _dict_families(
    metric: str, kind: str, help_text: str, value: Dict[str, Any]
) -> List[MetricFamily]:
    """One sample per numeric key, plus an ``_info`` family for the rest."""
    samples: List[Sample] = []
    info_samples: List[Sample] = []
    for key in sorted(value):
        entry = value[key]
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            samples.append(Sample((("key", str(key)),), float(entry)))
        else:
            info_samples.append(
                Sample((("key", str(key)), ("value", str(entry))), 1.0)
            )
    if not samples and not info_samples:
        # An empty dict still exports one zero sample, so the field
        # never vanishes from the scrape.
        samples.append(Sample((), 0.0))
    families = [MetricFamily(metric, kind, help_text, tuple(samples))]
    if info_samples:
        families.append(
            MetricFamily(f"{metric}_info", "gauge", help_text, tuple(info_samples))
        )
    return families


def _record_families(record: MetricsRecord, prefix: str) -> List[MetricFamily]:
    """Map every field of a metrics record to >= 1 sample, then add the
    record's derived families.

    This is the guarantee the exporters lean on: iterate the record's
    fields and emit something for each, so a field added to a record
    can never silently vanish from the scrape.  The field's kind picks
    the family type: ``counter`` and ``keyed`` fields scrape as
    counters, everything else as gauges.
    """
    snapshot = record.to_dict()
    families: List[MetricFamily] = []
    for name, kind, _ in field_kinds(type(record)):
        value = snapshot[name]
        metric = f"{prefix}_{_sanitize(name)}"
        help_text = f"{type(record).__name__} field {name!r}."
        family_type = "counter" if kind in ("counter", "keyed") else "gauge"
        if kind == "samples":
            families.append(
                MetricFamily(
                    f"{metric}_retained",
                    "gauge",
                    help_text + " Retained sample count.",
                    (Sample((), float(len(value))),),
                )
            )
        elif kind in ("keyed", "extras"):
            families.extend(_dict_families(metric, family_type, help_text, value))
        elif isinstance(value, str):
            families.append(
                MetricFamily(
                    f"{metric}_info",
                    "gauge",
                    help_text,
                    (Sample((("value", value),), 1.0),),
                )
            )
        else:
            families.append(
                MetricFamily(
                    metric, family_type, help_text, (Sample((), float(value)),)
                )
            )
    for derived in record.DERIVED:
        reading = (
            getattr(record, derived.name)
            if derived.value is None
            else derived.value(record)
        )
        if isinstance(reading, dict):
            derived_samples = tuple(
                Sample((("quantile", quantile),), value)
                for quantile, value in reading.items()
            )
        else:
            derived_samples = (Sample((), float(reading)),)
        families.append(
            MetricFamily(
                f"{prefix}_{derived.name}",
                derived.type,
                derived.help,
                derived_samples,
            )
        )
    return families


def _register(
    registry: MetricsRegistry, record: Any, expected: type, prefix: Optional[str]
) -> Collector:
    """Register ``record`` after checking it is a live ``expected``.

    Collectors run inside every scrape -- including the HTTP handler
    thread -- so a bad registration must fail here, not there.  The
    common trap: a *loaded* model carries ``metrics_ = None`` (only a
    fit produces scan telemetry).
    """
    if not isinstance(record, expected):
        raise TypeError(
            f"expected a live {expected.__name__} record, got "
            f"{type(record).__name__}"
        )
    field_kinds(type(record))  # an undeclared field fails here, not mid-scrape
    name = record.PREFIX if prefix is None else prefix

    def collect() -> List[MetricFamily]:
        return _record_families(record, name)

    registry.register_collector(collect)
    return collect


def register_record(
    registry: MetricsRegistry,
    record: MetricsRecord,
    *,
    prefix: Optional[str] = None,
) -> Collector:
    """Expose a live metrics record: every field plus its derived families.

    Metric names are ``<prefix>_<field>``, the prefix defaulting to the
    record's ``PREFIX`` (``repro_scan``, ``repro_serve_http``, ...).
    Returns the collector so callers can
    :meth:`~MetricsRegistry.unregister_collector` it later.
    """
    return _register(registry, record, MetricsRecord, prefix)


def register_scan_metrics(
    registry: MetricsRegistry, metrics: ScanMetrics, *, prefix: Optional[str] = None
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.ScanMetrics` record."""
    return _register(registry, metrics, ScanMetrics, prefix)


def register_pipeline_metrics(
    registry: MetricsRegistry,
    metrics: PipelineMetrics,
    *,
    prefix: Optional[str] = None,
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.PipelineMetrics` record."""
    return _register(registry, metrics, PipelineMetrics, prefix)


def register_serve_metrics(
    registry: MetricsRegistry, metrics: ServeMetrics, *, prefix: Optional[str] = None
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.ServeMetrics` record."""
    return _register(registry, metrics, ServeMetrics, prefix)


def register_serve_http_metrics(
    registry: MetricsRegistry,
    metrics: ServeHttpMetrics,
    *,
    prefix: Optional[str] = None,
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.ServeHttpMetrics` record."""
    return _register(registry, metrics, ServeHttpMetrics, prefix)


def register_store_metrics(
    registry: MetricsRegistry, metrics: StoreMetrics, *, prefix: Optional[str] = None
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.StoreMetrics` record."""
    return _register(registry, metrics, StoreMetrics, prefix)


def register_watch_metrics(
    registry: MetricsRegistry, metrics: WatchMetrics, *, prefix: Optional[str] = None
) -> Collector:
    """Expose a live :class:`~repro.obs.metrics.WatchMetrics` record."""
    return _register(registry, metrics, WatchMetrics, prefix)
