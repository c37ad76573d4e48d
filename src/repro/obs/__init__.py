"""Observability: instrumentation for the mining + serving pipeline.

The paper's headline claim is a *performance* claim -- one sequential
scan, a tiny solve -- so the library should be able to quantify its own
hot path instead of taking Fig. 8 on faith.  This package holds the
measurement substrate:

- :mod:`repro.obs.metrics` -- scan/solve timers and counters
  (:class:`~repro.obs.metrics.ScanMetrics`), attached to fitted models
  as ``model.metrics_`` and rendered by the CLI ``--stats`` flag, plus
  the serving-side counterpart
  (:class:`~repro.obs.metrics.ServeMetrics`): operator-cache traffic,
  pattern-group sizes and fill-latency percentiles for
  :mod:`repro.serve`; and the ingestion-side counterpart
  (:class:`~repro.obs.metrics.PipelineMetrics`): rows/batches
  ingested, drift scores, refresh counts and latency, reservoir
  occupancy for :mod:`repro.pipeline`.
- :mod:`repro.obs.tracing` -- span-based tracing of *where* the time
  went: a ``with span("scan.chunk", rows=...)`` context-manager API on
  the monotonic clock, a bounded in-memory buffer, and cross-process
  collection of spans emitted inside process-pool scan workers.
  Disabled by default; :func:`~repro.obs.tracing.set_tracing` turns it
  on, the CLI ``--trace <path>`` flag dumps the result.
- :mod:`repro.obs.registry` -- a thread-safe
  :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms, with adapters that expose live
  ``ScanMetrics`` / ``ServeMetrics`` / ``PipelineMetrics`` records as
  scrape targets.
- :mod:`repro.obs.export` -- Prometheus text-format and JSON
  exporters over a registry, plus an optional dependency-free
  ``/metrics`` HTTP endpoint (CLI ``--metrics-port``).

The record counters are plain ints/floats updated once per block, once
per fit, or once per served batch -- never per cell -- and tracing off
is one boolean check, so the default configuration stays production
cheap (see ``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.export import (
    HttpService,
    MetricsServer,
    ServiceHandler,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import (
    PipelineMetrics,
    ScanMetrics,
    ServeHttpMetrics,
    ServeMetrics,
    Stopwatch,
    StoreMetrics,
    WatchMetrics,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    register_pipeline_metrics,
    register_scan_metrics,
    register_serve_http_metrics,
    register_serve_metrics,
    register_store_metrics,
    register_watch_metrics,
)
from repro.obs.tracing import (
    Tracer,
    adopt_spans,
    drain_spans,
    dump_spans,
    export_current_spans,
    get_tracer,
    set_tracing,
    span,
    traced,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HttpService",
    "MetricsRegistry",
    "MetricsServer",
    "PipelineMetrics",
    "ScanMetrics",
    "ServeHttpMetrics",
    "ServeMetrics",
    "ServiceHandler",
    "Stopwatch",
    "StoreMetrics",
    "WatchMetrics",
    "Tracer",
    "adopt_spans",
    "drain_spans",
    "dump_spans",
    "export_current_spans",
    "get_registry",
    "get_tracer",
    "register_pipeline_metrics",
    "register_scan_metrics",
    "register_serve_http_metrics",
    "register_serve_metrics",
    "register_store_metrics",
    "register_watch_metrics",
    "set_tracing",
    "span",
    "to_json",
    "to_prometheus",
    "traced",
    "tracing_enabled",
]
