"""Metrics records for the fit, ingest, serve, store and watch layers.

Six dataclasses, one per subsystem: :class:`ScanMetrics` (one fit's
scan, merge and solve), :class:`PipelineMetrics` (continuous
ingestion), :class:`ServeMetrics` (the batch filler and its operator
cache), :class:`ServeHttpMetrics` (the HTTP tier and its coalescer),
:class:`StoreMetrics` (the durable model store) and
:class:`WatchMetrics` (the anomaly-watch daemon).  Each subsystem owns
its record and writes the fields directly or through the record's
``record_*`` mutators; the CLI renders it for ``--stats``.

Every field declares its merge rule once, as field metadata, through
one of the kind constructors below (:func:`counter`, :func:`gauge`,
:func:`maxed`, :func:`samples`, ...).  :class:`MetricsRecord` derives
``merge``, ``to_dict`` / ``from_dict``, ``to_json`` / ``from_json``
and ``__str__`` from that metadata, and
:func:`repro.obs.registry.register_record` derives the scrape from it.
A field declared without a kind raises on first use.

Everything is a plain counter -- no background threads, no sampling --
so the overhead is one ``perf_counter`` call per stage and one integer
add per block (or per batch).
"""

from __future__ import annotations

import contextlib
import copy
import json
import threading
import time
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

__all__ = [
    "MetricsRecord",
    "PipelineMetrics",
    "ScanMetrics",
    "ServeHttpMetrics",
    "ServeMetrics",
    "Stopwatch",
    "StoreMetrics",
    "WatchMetrics",
]

#: The field kinds; each constructor below states its kind's merge rule.
KINDS = frozenset(
    {"counter", "summed_gauge", "gauge", "maxed", "samples", "keyed", "extras"}
)


def counter(default: float) -> Any:
    """A monotonic count or time: summed on merge, scraped as a counter."""
    return field(default=default, metadata={"kind": "counter"})


def summed_gauge(default: float) -> Any:
    """Summed on merge but reset by its writer, so scraped as a gauge."""
    return field(default=default, metadata={"kind": "summed_gauge"})


def gauge(default: Union[float, str]) -> Any:
    """One record's latest state: merge keeps the receiver's value."""
    return field(default=default, metadata={"kind": "gauge"})


def maxed(default: float) -> Any:
    """A high-water mark: merge takes the max."""
    return field(default=default, metadata={"kind": "maxed"})


def samples(cap: Optional[int] = None) -> Any:
    """A list that concatenates on merge, keeping its newest ``cap``."""
    return field(default_factory=list, metadata={"kind": "samples", "cap": cap})


def keyed() -> Any:
    """A ``{key: count}`` dict: merge sums per key; scraped as a counter."""
    return field(default_factory=dict, metadata={"kind": "keyed"})


def extras_field() -> Any:
    """Ad-hoc values: merge follows :func:`_merge_extras`."""
    return field(default_factory=dict, metadata={"kind": "extras"})


def field_kinds(record_type: Type[Any]) -> List[Tuple[str, str, Optional[int]]]:
    """``(name, kind, cap)`` for each field of a record, in field order.

    A field declared without a kind raises, so a new field cannot skip
    deciding how it merges and exports.
    """
    kinds = []
    for field_def in fields(record_type):
        kind = field_def.metadata.get("kind")
        if kind not in KINDS:
            raise TypeError(
                f"{record_type.__name__}.{field_def.name} declares no "
                f"metrics kind; declare it with counter(), gauge(), ..."
            )
        kinds.append((field_def.name, kind, field_def.metadata.get("cap")))
    return kinds


def _merge_extras(mine: dict, theirs: dict) -> None:
    """Fold ``theirs`` into ``mine`` in place.

    Numeric values sum (they are ad-hoc counters); on a non-numeric
    collision the receiver's value wins; missing keys are copied.
    Booleans are deliberately *not* summed -- a flag stays a flag.
    """
    for key, value in theirs.items():
        if key not in mine:
            mine[key] = value
            continue
        current = mine[key]
        numeric = (int, float)
        if (
            isinstance(current, numeric)
            and isinstance(value, numeric)
            and not isinstance(current, bool)
            and not isinstance(value, bool)
        ):
            mine[key] = current + value


def _percentiles(
    ordered: Sequence[float], quantiles: Sequence[float]
) -> Tuple[float, ...]:
    """Linearly interpolated ``quantiles`` of the ascending ``ordered``.

    ``quantiles`` are fractions in [0, 1], checked first, so an empty
    sample rejects a bad quantile as a full one does.  Zeros for an
    empty sample.
    """
    for quantile in quantiles:
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    if not ordered:
        return tuple(0.0 for _ in quantiles)
    result = []
    for quantile in quantiles:
        position = quantile * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        result.append(ordered[low] * (1.0 - weight) + ordered[high] * weight)
    return tuple(result)


#: Quantiles of the derived latency families.
_QUANTILES = (0.5, 0.9, 0.99)


def _by_quantile(values: Sequence[float]) -> Dict[str, float]:
    return {str(quantile): value for quantile, value in zip(_QUANTILES, values)}


@dataclass(frozen=True)
class Derived:
    """One scrape family computed from a record rather than stored in it.

    ``value`` maps the live record to a number, or to
    ``{quantile: value}`` for a quantile family; by default it reads
    the record's attribute called ``name``.
    """

    name: str
    help: str
    value: Optional[Callable[[Any], Union[float, Dict[str, float]]]] = None
    type: str = "gauge"


R = TypeVar("R", bound="MetricsRecord")


class MetricsRecord:
    """Merge, snapshot and (de)serialization shared by every record.

    Subclasses are dataclasses that declare each field through a kind
    constructor; the methods here walk :func:`field_kinds`.  Records
    written from several threads set a real ``_lock`` in
    ``__post_init__``; the others keep the no-op default.
    """

    #: Metric-name prefix of the record's scrape families.
    PREFIX = ""
    #: Families computed at scrape time, after the per-field ones.
    DERIVED: Tuple[Derived, ...] = ()
    _lock: ContextManager[Any] = contextlib.nullcontext()
    extras: Dict[str, Any]

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        raise NotImplementedError

    def _render(self, lines: List[str]) -> str:
        """Join ``lines`` plus one line per ``extras`` key."""
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()

    def merge(self: R, other: R) -> None:
        """Fold another record into this one, each field by its kind.

        ``other`` may be a *live* record another thread is still
        recording into, so both locks are taken -- in a globally
        consistent order (by ``id``) so two threads cross-merging the
        same pair cannot deadlock.  Merging a record into itself folds
        a snapshot (doubling its counters) rather than self-deadlocking.
        """
        if other is self:
            other = self.from_dict(self.to_dict())
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            for name, kind, cap in field_kinds(type(self)):
                mine: Any = getattr(self, name)
                theirs: Any = getattr(other, name)
                if kind in ("counter", "summed_gauge"):
                    setattr(self, name, mine + theirs)
                elif kind == "maxed":
                    setattr(self, name, max(mine, theirs))
                elif kind == "samples":
                    mine.extend(theirs)
                    if cap is not None:
                        del mine[:-cap]
                elif kind == "keyed":
                    for key, count in theirs.items():
                        mine[key] = mine.get(key, 0) + count
                elif kind == "extras":
                    _merge_extras(mine, theirs)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot of every field (JSON-serializable).

        Container fields are deep-copied.  Live list/dict references
        would alias the record's internals into the payload: a record
        rebuilt via ``from_dict(to_dict())`` would then share (and, on
        ``merge``, mutate) the original's containers -- double-counting
        in disguise.
        """
        with self._lock:
            snapshot = {}
            for name, _, _ in field_kinds(type(self)):
                value = getattr(self, name)
                if isinstance(value, (list, dict)):
                    value = copy.deepcopy(value)
                snapshot[name] = value
            return snapshot

    @classmethod
    def from_dict(cls: Type[R], payload: Dict[str, Any]) -> R:
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {name for name, _, _ in field_kinds(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
        build: Callable[..., R] = cls
        return build(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


class Stopwatch:
    """Context manager measuring one wall-clock span.

    >>> with Stopwatch() as watch:
    ...     _ = sum(range(10))
    >>> watch.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._started is not None
        self.seconds = time.perf_counter() - self._started
        self._started = None


@dataclass
class ScanMetrics(MetricsRecord):
    """Counters and timings for one fit (scan + merge + solve).

    Attributes
    ----------
    executor:
        Execution fabric actually used for the map step: ``"serial"``,
        ``"thread"``, or ``"process"`` (after any graceful fallback, so
        this reports what ran, not what was requested).
    n_workers:
        Pool width of the map step (1 for serial scans).
    n_sources:
        Input shards/files/arrays scanned.
    n_chunks:
        Planned scan chunks (>= ``n_sources`` when sources are split).
    n_blocks:
        Row blocks folded into accumulators across all chunks.
    n_rows:
        Total rows scanned.
    n_merges:
        Partial-accumulator merges in the reduce step.
    scan_seconds:
        Wall-clock of the map + merge phase (the out-of-core part).
    solve_seconds:
        Wall-clock of the eigensystem solve.
    total_seconds:
        End-to-end fit wall-clock (>= scan + solve; includes planning).
    n_faults:
        Failed chunk-scan attempts observed (each retry of a flaky
        chunk counts its failure here before succeeding).
    n_retries:
        Chunk attempts re-queued after a fault (<= ``n_faults``; the
        difference is attempts that exhausted the retry budget).
    n_timeouts:
        Faults that were per-chunk deadline expiries specifically.
    n_quarantined:
        Chunks abandoned after exhausting retries under the
        ``on_bad_chunk="skip"`` policy.
    rows_quarantined / bytes_quarantined:
        Data lost to quarantined chunks: rows for row-range chunks
        (row stores, arrays), bytes for CSV byte-range chunks.
    n_executor_downgrades:
        Times the scan fell back to a weaker fabric after a worker
        pool died (process -> thread -> serial).
    n_chunks_resumed:
        Chunks skipped because a checkpoint already held their
        partial accumulators.
    n_shm_handoffs:
        Chunk partials returned through a shared-memory segment
        instead of being pickled back through the pool.
    n_pickled_handoffs:
        Chunk partials from process workers that fell back to the
        pickled return path (shared memory unavailable or disabled).
    quarantined:
        One record per quarantined chunk: ``{"kind", "source",
        "start", "stop", "rows_lost", "bytes_lost", "error"}``.
    """

    executor: str = gauge("serial")
    n_workers: int = gauge(1)
    n_sources: int = counter(1)
    n_chunks: int = counter(1)
    n_blocks: int = counter(0)
    n_rows: int = counter(0)
    n_merges: int = counter(0)
    scan_seconds: float = counter(0.0)
    solve_seconds: float = counter(0.0)
    total_seconds: float = counter(0.0)
    n_faults: int = counter(0)
    n_retries: int = counter(0)
    n_timeouts: int = counter(0)
    n_quarantined: int = counter(0)
    rows_quarantined: int = counter(0)
    bytes_quarantined: int = counter(0)
    n_executor_downgrades: int = counter(0)
    n_chunks_resumed: int = counter(0)
    n_shm_handoffs: int = counter(0)
    n_pickled_handoffs: int = counter(0)
    quarantined: list = samples()
    extras: dict = extras_field()

    PREFIX = "repro_scan"
    DERIVED = (Derived("rows_per_second", "ScanMetrics derived scan throughput."),)

    @property
    def rows_per_second(self) -> float:
        """Scan throughput; 0.0 when the scan was too fast to time."""
        if self.scan_seconds <= 0.0:
            return 0.0
        return self.n_rows / self.scan_seconds

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        throughput = self.rows_per_second
        throughput_text = f"{throughput:,.0f} rows/s" if throughput else "n/a"
        lines = [
            f"executor      {self.executor} ({self.n_workers} worker(s))",
            f"sources       {self.n_sources} source(s), {self.n_chunks} chunk(s)",
            f"rows scanned  {self.n_rows:,} in {self.n_blocks:,} block(s)",
            f"merges        {self.n_merges}",
            f"faults        {self.n_faults} fault(s), {self.n_retries} "
            f"retrie(s), {self.n_timeouts} timeout(s)",
            f"quarantined   {self.n_quarantined} chunk(s)  "
            f"({self.rows_quarantined} row(s) / "
            f"{self.bytes_quarantined} byte(s) lost)",
            f"downgrades    {self.n_executor_downgrades}",
            f"resumed       {self.n_chunks_resumed} chunk(s) from checkpoint",
            f"handoffs      {self.n_shm_handoffs} shm / "
            f"{self.n_pickled_handoffs} pickled",
            f"scan time     {self.scan_seconds:.4f} s  ({throughput_text})",
            f"solve time    {self.solve_seconds:.4f} s",
            f"total time    {self.total_seconds:.4f} s",
        ]
        return self._render(lines)


@dataclass
class PipelineMetrics(MetricsRecord):
    """Counters and timings for one continuous-ingestion pipeline.

    One record instruments one
    :class:`repro.pipeline.IngestionPipeline`.  The pipeline is the
    only writer (it runs its ingest loop on one thread), so the record
    needs no lock; rendering from another thread sees a consistent
    enough snapshot for monitoring.

    Attributes
    ----------
    rows_ingested:
        Rows folded into the online accumulator so far.
    n_batches:
        Non-empty source polls processed.
    n_empty_polls:
        Polls that returned no rows (idle stream).
    n_blocks_folded:
        Accumulator ``update()`` calls (block-aligned folds).
    n_source_rotations:
        Times the tailed source file was replaced under the reader
        (log rotation) and the source reopened the new file.
    n_source_truncations:
        Times the tailed source file shrank below the read offset
        (in-place truncation) and the source resynced from the top.
    n_rows_skipped:
        Corrupt rows dropped by the source's ``on_bad_row="skip"``
        policy.
    n_rows_diverted:
        Rows removed by the pre-accumulator tap (e.g. quarantined by a
        ``repro.watch`` daemon) before they could be folded.
    n_drift_evaluations:
        Times the drift detector scored the published model.
    n_refreshes:
        Models published by this pipeline (including the initial one).
    refresh_reasons:
        ``{reason: count}`` across all refreshes (``"initial"``,
        ``"drift:guessing-error"``, ``"drift:rule-angle"``,
        ``"forced:max-rows"``, ``"manual"``, ``"final"``).
    last_refresh_reason:
        Reason string of the most recent refresh ("" before the first).
    last_version:
        Registry version of the most recent publish (0 before any).
    rows_since_refresh:
        Rows ingested since the last publish.
    last_guessing_error / baseline_guessing_error:
        Most recent holdout GE1 of the published model on the drift
        reservoir, and the baseline it is compared against (0.0 until
        first measured).
    last_angle_degrees:
        Most recent largest principal angle between the published and
        candidate rule subspaces (0.0 until first measured).
    reservoir_rows / reservoir_capacity:
        Current drift-reservoir occupancy.
    ingest_seconds / drift_seconds / refresh_seconds:
        Cumulative wall-clock in each pipeline stage.
    last_refresh_seconds:
        Wall-clock of the most recent refit-and-publish.
    """

    rows_ingested: int = counter(0)
    n_batches: int = counter(0)
    n_empty_polls: int = counter(0)
    n_blocks_folded: int = counter(0)
    n_source_rotations: int = counter(0)
    n_source_truncations: int = counter(0)
    n_rows_skipped: int = counter(0)
    n_rows_diverted: int = counter(0)
    n_drift_evaluations: int = counter(0)
    n_refreshes: int = counter(0)
    refresh_reasons: dict = keyed()
    last_refresh_reason: str = gauge("")
    last_version: int = gauge(0)
    rows_since_refresh: int = summed_gauge(0)
    last_guessing_error: float = gauge(0.0)
    baseline_guessing_error: float = gauge(0.0)
    last_angle_degrees: float = gauge(0.0)
    reservoir_rows: int = gauge(0)
    reservoir_capacity: int = gauge(0)
    ingest_seconds: float = counter(0.0)
    drift_seconds: float = counter(0.0)
    refresh_seconds: float = counter(0.0)
    last_refresh_seconds: float = gauge(0.0)
    extras: dict = extras_field()

    PREFIX = "repro_pipeline"
    DERIVED = (
        Derived("rows_per_second", "PipelineMetrics derived ingest throughput."),
        Derived(
            "reservoir_occupancy", "PipelineMetrics derived reservoir fill fraction."
        ),
    )

    @property
    def rows_per_second(self) -> float:
        """Ingest throughput; 0.0 when ingestion was too fast to time."""
        if self.ingest_seconds <= 0.0:
            return 0.0
        return self.rows_ingested / self.ingest_seconds

    @property
    def reservoir_occupancy(self) -> float:
        """Reservoir fill fraction in [0, 1] (0.0 for capacity 0)."""
        if self.reservoir_capacity <= 0:
            return 0.0
        return self.reservoir_rows / self.reservoir_capacity

    def record_refresh(self, *, version: int, reason: str, seconds: float) -> None:
        """Fold one refit-and-publish into the record."""
        self.n_refreshes += 1
        self.refresh_reasons[reason] = self.refresh_reasons.get(reason, 0) + 1
        self.last_refresh_reason = reason
        self.last_version = int(version)
        self.refresh_seconds += float(seconds)
        self.last_refresh_seconds = float(seconds)
        self.rows_since_refresh = 0

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        throughput = self.rows_per_second
        throughput_text = f"{throughput:,.0f} rows/s" if throughput else "n/a"
        reasons = ", ".join(
            f"{reason} x{count}"
            for reason, count in sorted(self.refresh_reasons.items())
        ) or "none"
        lines = [
            f"ingested      {self.rows_ingested:,} row(s) in "
            f"{self.n_batches:,} batch(es)  ({self.n_empty_polls} empty "
            f"poll(s), {self.n_blocks_folded} block fold(s))",
            f"source        {self.n_source_rotations} rotation(s), "
            f"{self.n_source_truncations} truncation(s), "
            f"{self.n_rows_skipped} bad row(s) skipped, "
            f"{self.n_rows_diverted} row(s) diverted",
            f"refreshes     {self.n_refreshes} publish(es): {reasons}",
            f"served        version {self.last_version}, "
            f"{self.rows_since_refresh:,} row(s) since refresh",
            f"drift         {self.n_drift_evaluations} evaluation(s); "
            f"GE1 {self.last_guessing_error:.4g} "
            f"(baseline {self.baseline_guessing_error:.4g}), "
            f"angle {self.last_angle_degrees:.1f} deg",
            f"reservoir     {self.reservoir_rows}/{self.reservoir_capacity} "
            f"row(s) ({self.reservoir_occupancy:.0%})",
            f"ingest time   {self.ingest_seconds:.4f} s  ({throughput_text})",
            f"drift time    {self.drift_seconds:.4f} s",
            f"refresh time  {self.refresh_seconds:.4f} s  "
            f"(last {self.last_refresh_seconds:.4f} s)",
        ]
        return self._render(lines)


#: Cap on retained latency / group-size samples; beyond it the oldest
#: samples are dropped (the counters keep exact totals regardless).
_MAX_SAMPLES = 4096


@dataclass
class ServeMetrics(MetricsRecord):
    """Counters and timings for the reconstruction serving layer.

    One record instruments one :class:`repro.serve.BatchFiller` (its
    operator cache reports into the same record).  All mutators take an
    internal lock, so a single record can be shared by every serving
    thread; reads for rendering are snapshots, not transactions.

    Attributes
    ----------
    n_batches:
        ``fill_batch`` calls served.
    n_rows:
        Total rows across all batches.
    n_rows_filled:
        Rows that had at least one hole and went through an operator.
    n_rows_no_holes:
        Rows passed through untouched (the documented no-op fast path;
        these never touch the operator cache).
    n_rows_all_holes:
        Rows with nothing known (filled with the column means).
    n_groups:
        Pattern groups processed (one operator apply each).
    n_holes_filled:
        Individual cells reconstructed.
    cache_hits / cache_misses / cache_evictions:
        Operator-cache traffic.  A miss means one
        ``compute_fill_operator`` solve; a hit means the solve was
        amortized away.
    n_publishes:
        Model versions published to the registry feeding this filler.
    fill_seconds:
        Total wall-clock spent inside ``fill_batch``.
    group_sizes:
        Recent per-pattern group sizes (bounded sample).
    batch_latencies:
        Recent per-batch wall-clock seconds (bounded sample), the basis
        of :meth:`latency_percentiles`.
    """

    n_batches: int = counter(0)
    n_rows: int = counter(0)
    n_rows_filled: int = counter(0)
    n_rows_no_holes: int = counter(0)
    n_rows_all_holes: int = counter(0)
    n_groups: int = counter(0)
    n_holes_filled: int = counter(0)
    cache_hits: int = counter(0)
    cache_misses: int = counter(0)
    cache_evictions: int = counter(0)
    n_publishes: int = counter(0)
    fill_seconds: float = counter(0.0)
    group_sizes: list = samples(_MAX_SAMPLES)
    batch_latencies: list = samples(_MAX_SAMPLES)
    extras: dict = extras_field()

    PREFIX = "repro_serve"
    DERIVED = (
        Derived(
            "batch_latency_seconds",
            "ServeMetrics derived batch-latency percentiles.",
            lambda m: _by_quantile(m.latency_percentiles(_QUANTILES)),
        ),
        Derived("cache_hit_rate", "ServeMetrics derived cache hit rate."),
    )

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- recording (called by the serving layer) ---------------------------

    def record_batch(
        self,
        *,
        n_rows: int,
        n_rows_filled: int,
        n_rows_no_holes: int,
        n_rows_all_holes: int,
        n_holes_filled: int,
        group_sizes: Sequence[int],
        seconds: float,
    ) -> None:
        """Fold one ``fill_batch`` call into the record."""
        with self._lock:
            self.n_batches += 1
            self.n_rows += int(n_rows)
            self.n_rows_filled += int(n_rows_filled)
            self.n_rows_no_holes += int(n_rows_no_holes)
            self.n_rows_all_holes += int(n_rows_all_holes)
            self.n_groups += len(group_sizes)
            self.n_holes_filled += int(n_holes_filled)
            self.fill_seconds += float(seconds)
            self.group_sizes.extend(int(size) for size in group_sizes)
            del self.group_sizes[:-_MAX_SAMPLES]
            self.batch_latencies.append(float(seconds))
            del self.batch_latencies[:-_MAX_SAMPLES]

    def record_cache_hit(self) -> None:
        """One operator served from cache."""
        with self._lock:
            self.cache_hits += 1

    def record_cache_miss(self) -> None:
        """One operator computed fresh."""
        with self._lock:
            self.cache_misses += 1

    def record_cache_eviction(self) -> None:
        """One operator dropped by the LRU policy."""
        with self._lock:
            self.cache_evictions += 1

    def record_publish(self) -> None:
        """One model version published."""
        with self._lock:
            self.n_publishes += 1

    # -- derived views -----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def rows_per_second(self) -> float:
        """Serving throughput; 0.0 when nothing was timed."""
        if self.fill_seconds <= 0.0:
            return 0.0
        return self.n_rows / self.fill_seconds

    def latency_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Tuple[float, ...]:
        """Batch-latency percentiles (seconds) from the retained sample.

        ``quantiles`` are fractions in [0, 1].  Returns zeros before
        the first batch.
        """
        with self._lock:
            ordered = sorted(self.batch_latencies)
        return _percentiles(ordered, quantiles)

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        p50, p90, p99 = self.latency_percentiles((0.5, 0.9, 0.99))
        throughput = self.rows_per_second
        throughput_text = f"{throughput:,.0f} rows/s" if throughput else "n/a"
        max_group = max(self.group_sizes) if self.group_sizes else 0
        lines = [
            f"batches       {self.n_batches} batch(es), {self.n_rows:,} row(s)",
            f"rows          {self.n_rows_filled:,} filled, "
            f"{self.n_rows_no_holes:,} complete (no-op), "
            f"{self.n_rows_all_holes:,} all-holes",
            f"holes filled  {self.n_holes_filled:,}",
            f"patterns      {self.n_groups} group(s), largest {max_group} row(s)",
            f"cache         {self.cache_hits} hit(s), {self.cache_misses} "
            f"miss(es), {self.cache_evictions} eviction(s)  "
            f"(hit rate {self.cache_hit_rate:.1%})",
            f"publishes     {self.n_publishes} model version(s)",
            f"latency       p50 {p50 * 1e3:.3f} ms  p90 {p90 * 1e3:.3f} ms  "
            f"p99 {p99 * 1e3:.3f} ms",
            f"fill time     {self.fill_seconds:.4f} s  ({throughput_text})",
        ]
        return self._render(lines)


@dataclass
class ServeHttpMetrics(MetricsRecord):
    """Counters and timings for the HTTP serving tier.

    One record instruments one :class:`repro.serve.http.HttpApiServer`
    (its request handlers and its coalescers' flushes all report into
    the same record).  All mutators take an internal lock; reads
    for rendering are snapshots, not transactions.

    Attributes
    ----------
    n_requests:
        HTTP requests routed to a known endpoint (every verb plus the
        GET endpoints; 404s are not counted).
    n_fill_requests / n_whatif_requests / n_outlier_requests /
    n_recommend_requests:
        Per-verb request counters for the four query endpoints.
    n_flushes:
        Coalesced micro-batches executed (one
        :meth:`~repro.serve.BatchFiller.fill_batch` call each).
    n_rows_coalesced:
        Rows served through flushes (each row was one queued request).
    n_shed_queue_full:
        Requests rejected at admission because the queue was at its
        limit (HTTP 429).
    n_expired:
        Requests whose deadline was already blown -- on arrival or
        while waiting in the queue (HTTP 503).
    n_errors:
        Requests failed by a flush-side exception (HTTP 500).
    n_bad_requests:
        Malformed requests rejected before enqueueing (HTTP 400).
    coalesce_seconds:
        Total queue-wait across all coalesced rows (enqueue to flush).
    queue_depth:
        Queue depth observed at the most recent enqueue/flush (a
        point-in-time gauge, not a counter).
    queue_depth_peak:
        Highest queue depth ever observed.
    flush_sizes:
        Recent per-flush row counts (bounded sample); the direct
        evidence that coalescing happened (sizes > 1).
    coalesce_waits:
        Recent per-row queue waits in seconds (bounded sample), the
        basis of :meth:`coalesce_wait_percentiles`.
    """

    n_requests: int = counter(0)
    n_fill_requests: int = counter(0)
    n_whatif_requests: int = counter(0)
    n_outlier_requests: int = counter(0)
    n_recommend_requests: int = counter(0)
    n_flushes: int = counter(0)
    n_rows_coalesced: int = counter(0)
    n_shed_queue_full: int = counter(0)
    n_expired: int = counter(0)
    n_errors: int = counter(0)
    n_bad_requests: int = counter(0)
    coalesce_seconds: float = counter(0.0)
    queue_depth: int = gauge(0)
    queue_depth_peak: int = maxed(0)
    flush_sizes: list = samples(_MAX_SAMPLES)
    coalesce_waits: list = samples(_MAX_SAMPLES)
    extras: dict = extras_field()

    PREFIX = "repro_serve_http"
    DERIVED = (
        Derived(
            "coalesce_wait_seconds",
            "ServeHttpMetrics derived queue-wait percentiles.",
            lambda m: _by_quantile(m.coalesce_wait_percentiles(_QUANTILES)),
        ),
        Derived(
            "rows_per_flush", "ServeHttpMetrics derived mean coalesced batch size."
        ),
        Derived(
            "rejected_total",
            "ServeHttpMetrics derived shed + expired request count.",
            lambda m: m.n_rejected,
            type="counter",
        ),
    )

    _VERB_COUNTERS = {
        "fill": "n_fill_requests",
        "whatif": "n_whatif_requests",
        "outlier": "n_outlier_requests",
        "recommend": "n_recommend_requests",
    }

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- recording (called by the HTTP layer and the batcher) --------------

    def record_request(self, verb: Optional[str] = None) -> None:
        """One routed HTTP request; ``verb`` names a query endpoint."""
        with self._lock:
            self.n_requests += 1
            counter = self._VERB_COUNTERS.get(verb or "")
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)

    def record_enqueue(self, queue_depth: int) -> None:
        """One request admitted to the coalescing queue."""
        with self._lock:
            self.queue_depth = int(queue_depth)
            self.queue_depth_peak = max(self.queue_depth_peak, int(queue_depth))

    def record_flush(
        self,
        *,
        n_rows: int,
        waits: Sequence[float],
        queue_depth: int,
    ) -> None:
        """One coalesced micro-batch served."""
        with self._lock:
            self.n_flushes += 1
            self.n_rows_coalesced += int(n_rows)
            self.coalesce_seconds += float(sum(waits))
            self.queue_depth = int(queue_depth)
            self.flush_sizes.append(int(n_rows))
            del self.flush_sizes[:-_MAX_SAMPLES]
            self.coalesce_waits.extend(float(wait) for wait in waits)
            del self.coalesce_waits[:-_MAX_SAMPLES]

    def record_shed(self, n: int = 1) -> None:
        """Requests turned away because the queue was full (429)."""
        with self._lock:
            self.n_shed_queue_full += int(n)

    def record_expired(self, n: int = 1) -> None:
        """Requests whose deadline was blown before serving (503)."""
        with self._lock:
            self.n_expired += int(n)

    def record_error(self, n: int = 1) -> None:
        """Requests failed by a flush-side exception (500)."""
        with self._lock:
            self.n_errors += int(n)

    def record_bad_request(self) -> None:
        """One malformed request rejected up front (400)."""
        with self._lock:
            self.n_bad_requests += 1

    # -- derived views -----------------------------------------------------

    @property
    def n_rejected(self) -> int:
        """Everything turned away: shed + expired (the 429s and 503s)."""
        return self.n_shed_queue_full + self.n_expired

    @property
    def rows_per_flush(self) -> float:
        """Mean coalesced batch size; 0.0 before the first flush."""
        if self.n_flushes == 0:
            return 0.0
        return self.n_rows_coalesced / self.n_flushes

    @property
    def max_flush_rows(self) -> int:
        """Largest retained flush (0 before the first flush)."""
        with self._lock:
            return max(self.flush_sizes) if self.flush_sizes else 0

    def coalesce_wait_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Tuple[float, ...]:
        """Queue-wait percentiles (seconds) from the retained sample.

        ``quantiles`` are fractions in [0, 1].  Returns zeros before
        the first flush.
        """
        with self._lock:
            ordered = sorted(self.coalesce_waits)
        return _percentiles(ordered, quantiles)

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        p50, p90, p99 = self.coalesce_wait_percentiles((0.5, 0.9, 0.99))
        lines = [
            f"requests      {self.n_requests} "
            f"(fill {self.n_fill_requests}, "
            f"what-if {self.n_whatif_requests}, "
            f"outlier {self.n_outlier_requests}, "
            f"recommend {self.n_recommend_requests})",
            f"coalescing    {self.n_rows_coalesced:,} row(s) in "
            f"{self.n_flushes} flush(es)  "
            f"(mean {self.rows_per_flush:.1f} rows/flush, "
            f"largest {self.max_flush_rows})",
            f"queue         depth {self.queue_depth}, "
            f"peak {self.queue_depth_peak}",
            f"rejected      {self.n_shed_queue_full} shed (429), "
            f"{self.n_expired} expired (503)",
            f"failures      {self.n_errors} error(s) (500), "
            f"{self.n_bad_requests} bad request(s) (400)",
            f"queue wait    p50 {p50 * 1e3:.3f} ms  p90 {p90 * 1e3:.3f} ms  "
            f"p99 {p99 * 1e3:.3f} ms  "
            f"(total {self.coalesce_seconds:.4f} s)",
        ]
        return self._render(lines)


@dataclass
class StoreMetrics(MetricsRecord):
    """Counters and timings for the durable model store (:mod:`repro.store`).

    One record instruments one :class:`~repro.store.ModelStore` across
    every namespace it holds.  All mutators take an internal lock, so a
    single record can be shared by the publish path, the recovery walk,
    and a polling :class:`~repro.store.StoreWatcher` thread at once.

    Attributes
    ----------
    n_publishes:
        Snapshots durably published (the rename landed).
    publish_bytes:
        Total snapshot bytes written by those publishes.
    n_loads:
        Models hydrated from disk (cache misses that read a snapshot).
    n_cache_hits / n_cache_misses / n_cache_evictions:
        Warm-model LRU cache traffic.
    n_recoveries:
        Recovery walks that ran (startup or explicit ``recover``).
    n_quarantined:
        Damaged files moved to the quarantine directory (never deleted).
    n_manifest_rebuilds:
        Manifests rebuilt from the directory listing because the
        incremental copy was missing, unreadable, or stale.
    n_gc_removed / gc_reclaimed_bytes:
        Snapshots deleted by the retention policy and their bytes.
    n_sync_checks / n_sync_swaps:
        Store-watch polls, and how many of them adopted a new version.
    n_lock_breaks:
        Stale publish locks broken (previous owner died mid-publish).
    publish_seconds / load_seconds:
        Wall-clock totals inside publish and hydrate.
    """

    n_publishes: int = counter(0)
    publish_bytes: int = counter(0)
    n_loads: int = counter(0)
    n_cache_hits: int = counter(0)
    n_cache_misses: int = counter(0)
    n_cache_evictions: int = counter(0)
    n_recoveries: int = counter(0)
    n_quarantined: int = counter(0)
    n_manifest_rebuilds: int = counter(0)
    n_gc_removed: int = counter(0)
    gc_reclaimed_bytes: int = counter(0)
    n_sync_checks: int = counter(0)
    n_sync_swaps: int = counter(0)
    n_lock_breaks: int = counter(0)
    publish_seconds: float = counter(0.0)
    load_seconds: float = counter(0.0)
    extras: dict = extras_field()

    PREFIX = "repro_store"
    DERIVED = (Derived("cache_hit_rate", "StoreMetrics derived warm-cache hit rate."),)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- recording (called by the store) -----------------------------------

    def record_publish(self, *, n_bytes: int, seconds: float) -> None:
        """One snapshot durably renamed into place."""
        with self._lock:
            self.n_publishes += 1
            self.publish_bytes += int(n_bytes)
            self.publish_seconds += float(seconds)

    def record_load(self, *, seconds: float) -> None:
        """One model hydrated from its snapshot file."""
        with self._lock:
            self.n_loads += 1
            self.load_seconds += float(seconds)

    def record_cache_hit(self) -> None:
        """One model served from the warm LRU cache."""
        with self._lock:
            self.n_cache_hits += 1

    def record_cache_miss(self) -> None:
        """One model not in the warm cache (a disk read follows)."""
        with self._lock:
            self.n_cache_misses += 1

    def record_cache_eviction(self) -> None:
        """One warm model dropped by the LRU policy."""
        with self._lock:
            self.n_cache_evictions += 1

    def record_recovery(self) -> None:
        """One recovery walk over a namespace."""
        with self._lock:
            self.n_recoveries += 1

    def record_quarantine(self, n: int = 1) -> None:
        """Damaged file(s) moved aside to quarantine."""
        with self._lock:
            self.n_quarantined += int(n)

    def record_manifest_rebuild(self) -> None:
        """One manifest rebuilt from the directory listing."""
        with self._lock:
            self.n_manifest_rebuilds += 1

    def record_gc(self, *, n_removed: int, reclaimed_bytes: int) -> None:
        """One retention sweep's removals."""
        with self._lock:
            self.n_gc_removed += int(n_removed)
            self.gc_reclaimed_bytes += int(reclaimed_bytes)

    def record_sync(self, *, swapped: bool) -> None:
        """One store-watch poll; ``swapped`` means it adopted a version."""
        with self._lock:
            self.n_sync_checks += 1
            if swapped:
                self.n_sync_swaps += 1

    def record_lock_break(self) -> None:
        """One stale publish lock broken."""
        with self._lock:
            self.n_lock_breaks += 1

    # -- derived views -----------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Warm-cache hits over lookups; 0.0 before the first lookup."""
        lookups = self.n_cache_hits + self.n_cache_misses
        if lookups == 0:
            return 0.0
        return self.n_cache_hits / lookups

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        lines = [
            f"publishes     {self.n_publishes} snapshot(s), "
            f"{self.publish_bytes:,} byte(s) "
            f"({self.publish_seconds:.4f} s)",
            f"warm cache    {self.n_cache_hits} hit(s), "
            f"{self.n_cache_misses} miss(es), "
            f"{self.n_cache_evictions} eviction(s)  "
            f"(hit rate {self.cache_hit_rate:.1%})",
            f"loads         {self.n_loads} hydrate(s) "
            f"({self.load_seconds:.4f} s)",
            f"recovery      {self.n_recoveries} walk(s), "
            f"{self.n_quarantined} file(s) quarantined, "
            f"{self.n_manifest_rebuilds} manifest rebuild(s)",
            f"retention     {self.n_gc_removed} snapshot(s) removed, "
            f"{self.gc_reclaimed_bytes:,} byte(s) reclaimed",
            f"replication   {self.n_sync_checks} poll(s), "
            f"{self.n_sync_swaps} hot-swap(s), "
            f"{self.n_lock_breaks} stale lock(s) broken",
        ]
        return self._render(lines)


@dataclass
class WatchMetrics(MetricsRecord):
    """Counters and timings for one anomaly-watch daemon.

    One record instruments one :class:`repro.watch.WatchDaemon`.  The
    daemon is the only writer (routing runs on its loop thread), so
    the record needs no lock; rendering from another thread sees a
    consistent enough snapshot for monitoring.

    Attributes
    ----------
    rows_seen:
        Rows the tap inspected (scored or not).
    rows_scored:
        Rows that received a z-score against the calibration.
    rows_unscored:
        Rows passed through before a model was published or before
        the calibration warmed up.
    rows_passed:
        Scored rows admitted unchanged.
    rows_cleaned:
        Scored rows repaired (worst cell re-filled) then admitted.
    rows_quarantined:
        Scored rows diverted to the append-only quarantine.
    n_batches_tapped:
        Non-empty batches inspected by the tap.
    n_bursts:
        ``outlier-burst`` events raised.
    n_calibration_resets:
        Times the residual calibration restarted (model refresh).
    n_events:
        Events published to the notification manager.
    n_sink_failures:
        Sink deliveries that raised (logged and skipped).
    events_by_kind:
        ``{event_kind: count}`` across all published events.
    last_event_kind:
        Kind of the most recent event ("" before the first).
    last_z_score / last_residual:
        Score of the most recently scored row (0.0 before any).
    calibration_rows:
        Rows folded into the current residual calibration.
    calibration_mean / calibration_std:
        Current calibrated residual distribution (0.0 until ready).
    model_version:
        Registry version the daemon last scored against (0 = none).
    quarantine_rows / quarantine_bytes:
        Size of the quarantine file.
    score_seconds / clean_seconds / quarantine_seconds:
        Cumulative wall-clock in each routing stage.
    """

    rows_seen: int = counter(0)
    rows_scored: int = counter(0)
    rows_unscored: int = counter(0)
    rows_passed: int = counter(0)
    rows_cleaned: int = counter(0)
    rows_quarantined: int = counter(0)
    n_batches_tapped: int = counter(0)
    n_bursts: int = counter(0)
    n_calibration_resets: int = counter(0)
    n_events: int = counter(0)
    n_sink_failures: int = counter(0)
    events_by_kind: dict = keyed()
    last_event_kind: str = gauge("")
    last_z_score: float = gauge(0.0)
    last_residual: float = gauge(0.0)
    calibration_rows: int = gauge(0)
    calibration_mean: float = gauge(0.0)
    calibration_std: float = gauge(0.0)
    model_version: int = gauge(0)
    quarantine_rows: int = gauge(0)
    quarantine_bytes: int = gauge(0)
    score_seconds: float = counter(0.0)
    clean_seconds: float = counter(0.0)
    quarantine_seconds: float = counter(0.0)
    extras: dict = extras_field()

    PREFIX = "repro_watch"
    DERIVED = (
        Derived(
            "quarantine_fraction",
            "WatchMetrics derived quarantined share of scored rows.",
        ),
        Derived("rows_per_second", "WatchMetrics derived scoring throughput."),
    )

    @property
    def rows_per_second(self) -> float:
        """Scoring throughput; 0.0 when scoring was too fast to time."""
        if self.score_seconds <= 0.0:
            return 0.0
        return self.rows_scored / self.score_seconds

    @property
    def quarantine_fraction(self) -> float:
        """Fraction of scored rows quarantined (0.0 before scoring)."""
        if self.rows_scored <= 0:
            return 0.0
        return self.rows_quarantined / self.rows_scored

    def record_event(self, kind: str) -> None:
        """Fold one published event into the record."""
        self.n_events += 1
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        self.last_event_kind = kind

    def render(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        throughput = self.rows_per_second
        throughput_text = f"{throughput:,.0f} rows/s" if throughput else "n/a"
        kinds = (
            ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(self.events_by_kind.items())
            )
            or "none"
        )
        lines = [
            f"seen          {self.rows_seen:,} row(s) in "
            f"{self.n_batches_tapped:,} batch(es), "
            f"{self.rows_unscored:,} unscored",
            f"routed        {self.rows_passed:,} passed, "
            f"{self.rows_cleaned:,} cleaned, "
            f"{self.rows_quarantined:,} quarantined "
            f"({self.quarantine_fraction:.2%} of scored)",
            f"scoring       {self.rows_scored:,} row(s) in "
            f"{self.score_seconds:.4f} s  ({throughput_text}) "
            f"against model v{self.model_version}",
            f"calibration   {self.calibration_rows:,} row(s), "
            f"mean {self.calibration_mean:.4f}, "
            f"std {self.calibration_std:.4f}, "
            f"{self.n_calibration_resets} reset(s)",
            f"quarantine    {self.quarantine_rows:,} row(s), "
            f"{self.quarantine_bytes:,} byte(s)",
            f"events        {self.n_events} published "
            f"({self.n_sink_failures} sink failure(s)): {kinds}",
        ]
        return self._render(lines)
