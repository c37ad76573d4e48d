"""Scan/solve/serve instrumentation for the mining + serving pipeline.

:class:`ScanMetrics` is the record the *fitting* side shares: the scan
engine fills in the map/merge side (rows, blocks, chunks, merges,
wall-clock), the model fills in the solve side, and the CLI renders the
result for ``--stats``.  :class:`ServeMetrics` is its counterpart for
the *query* side (:mod:`repro.serve`): operator-cache hit/miss/eviction
counters, pattern-group sizes, and fill-latency percentiles.
Everything is a plain counter -- no background threads, no sampling --
so the overhead is one ``perf_counter`` call per stage and one integer
add per block (or per batch).
"""

from __future__ import annotations

import copy
import json
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

__all__ = [
    "PipelineMetrics",
    "ScanMetrics",
    "ServeHttpMetrics",
    "ServeMetrics",
    "Stopwatch",
    "StoreMetrics",
    "WatchMetrics",
]


def _snapshot_value(value):
    """Deep-copy container fields so ``to_dict`` is a true snapshot.

    Returning live list/dict references would alias the record's
    internals into the payload: a record rebuilt via
    ``from_dict(to_dict())`` would then share (and, on ``merge``,
    mutate) the original's containers -- double-counting in disguise.
    """
    if isinstance(value, (list, dict)):
        return copy.deepcopy(value)
    return value


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
class ScanMetrics:
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
    accumulate_dtype:
        Accumulation mode of the scan (``"float64"``, ``"raw64"``, or
        ``"float32"``); a mode describes one scan, so ``merge`` keeps
        the receiver's value.
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

    executor: str = "serial"
    n_workers: int = 1
    n_sources: int = 1
    n_chunks: int = 1
    n_blocks: int = 0
    n_rows: int = 0
    n_merges: int = 0
    scan_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    n_faults: int = 0
    n_retries: int = 0
    n_timeouts: int = 0
    n_quarantined: int = 0
    rows_quarantined: int = 0
    bytes_quarantined: int = 0
    n_executor_downgrades: int = 0
    n_chunks_resumed: int = 0
    accumulate_dtype: str = "float64"
    n_shm_handoffs: int = 0
    n_pickled_handoffs: int = 0
    quarantined: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def rows_per_second(self) -> float:
        """Scan throughput; 0.0 when the scan was too fast to time."""
        if self.scan_seconds <= 0.0:
            return 0.0
        return self.n_rows / self.scan_seconds

    def merge(self, other: "ScanMetrics") -> None:
        """Fold another metrics record into this one (for sub-scans)."""
        self.n_sources += other.n_sources
        self.n_chunks += other.n_chunks
        self.n_blocks += other.n_blocks
        self.n_rows += other.n_rows
        self.n_merges += other.n_merges
        self.scan_seconds += other.scan_seconds
        self.solve_seconds += other.solve_seconds
        self.total_seconds += other.total_seconds
        self.n_faults += other.n_faults
        self.n_retries += other.n_retries
        self.n_timeouts += other.n_timeouts
        self.n_quarantined += other.n_quarantined
        self.rows_quarantined += other.rows_quarantined
        self.bytes_quarantined += other.bytes_quarantined
        self.n_executor_downgrades += other.n_executor_downgrades
        self.n_chunks_resumed += other.n_chunks_resumed
        self.n_shm_handoffs += other.n_shm_handoffs
        self.n_pickled_handoffs += other.n_pickled_handoffs
        self.quarantined.extend(other.quarantined)
        _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        return {
            field_def.name: _snapshot_value(getattr(self, field_def.name))
            for field_def in fields(self)
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScanMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ScanMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScanMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
            f"accumulate    {self.accumulate_dtype}  "
            f"({self.n_shm_handoffs} shm / "
            f"{self.n_pickled_handoffs} pickled handoff(s))",
            f"scan time     {self.scan_seconds:.4f} s  ({throughput_text})",
            f"solve time    {self.solve_seconds:.4f} s",
            f"total time    {self.total_seconds:.4f} s",
        ]
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass
class PipelineMetrics:
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

    rows_ingested: int = 0
    n_batches: int = 0
    n_empty_polls: int = 0
    n_blocks_folded: int = 0
    n_source_rotations: int = 0
    n_source_truncations: int = 0
    n_rows_skipped: int = 0
    n_rows_diverted: int = 0
    n_drift_evaluations: int = 0
    n_refreshes: int = 0
    refresh_reasons: dict = field(default_factory=dict)
    last_refresh_reason: str = ""
    last_version: int = 0
    rows_since_refresh: int = 0
    last_guessing_error: float = 0.0
    baseline_guessing_error: float = 0.0
    last_angle_degrees: float = 0.0
    reservoir_rows: int = 0
    reservoir_capacity: int = 0
    ingest_seconds: float = 0.0
    drift_seconds: float = 0.0
    refresh_seconds: float = 0.0
    last_refresh_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

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

    def record_refresh(
        self, *, version: int, reason: str, seconds: float
    ) -> None:
        """Fold one refit-and-publish into the record."""
        self.n_refreshes += 1
        self.refresh_reasons[reason] = self.refresh_reasons.get(reason, 0) + 1
        self.last_refresh_reason = reason
        self.last_version = int(version)
        self.refresh_seconds += float(seconds)
        self.last_refresh_seconds = float(seconds)
        self.rows_since_refresh = 0

    def merge(self, other: "PipelineMetrics") -> None:
        """Fold another record into this one (multi-pipeline rollup).

        Counters sum; the ``last_*`` / reservoir gauges describe *one*
        pipeline's latest state, so the receiver's values are kept.
        """
        self.rows_ingested += other.rows_ingested
        self.n_batches += other.n_batches
        self.n_empty_polls += other.n_empty_polls
        self.n_blocks_folded += other.n_blocks_folded
        self.n_source_rotations += other.n_source_rotations
        self.n_source_truncations += other.n_source_truncations
        self.n_rows_skipped += other.n_rows_skipped
        self.n_rows_diverted += other.n_rows_diverted
        self.n_drift_evaluations += other.n_drift_evaluations
        self.n_refreshes += other.n_refreshes
        for reason, count in other.refresh_reasons.items():
            self.refresh_reasons[reason] = (
                self.refresh_reasons.get(reason, 0) + count
            )
        self.rows_since_refresh += other.rows_since_refresh
        self.ingest_seconds += other.ingest_seconds
        self.drift_seconds += other.drift_seconds
        self.refresh_seconds += other.refresh_seconds
        _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        return {
            field_def.name: _snapshot_value(getattr(self, field_def.name))
            for field_def in fields(self)
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown PipelineMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


#: Cap on retained latency / group-size samples; beyond it the oldest
#: samples are dropped (the counters keep exact totals regardless).
_MAX_SAMPLES = 4096


@dataclass
class ServeMetrics:
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

    n_batches: int = 0
    n_rows: int = 0
    n_rows_filled: int = 0
    n_rows_no_holes: int = 0
    n_rows_all_holes: int = 0
    n_groups: int = 0
    n_holes_filled: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    n_publishes: int = 0
    fill_seconds: float = 0.0
    group_sizes: list = field(default_factory=list)
    batch_latencies: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

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
            sample = sorted(self.batch_latencies)
        if not sample:
            return tuple(0.0 for _ in quantiles)
        result = []
        for quantile in quantiles:
            if not 0.0 <= quantile <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {quantile}")
            position = quantile * (len(sample) - 1)
            low = int(position)
            high = min(low + 1, len(sample) - 1)
            weight = position - low
            result.append(sample[low] * (1.0 - weight) + sample[high] * weight)
        return tuple(result)

    # -- (de)serialization -------------------------------------------------

    def merge(self, other: "ServeMetrics") -> None:
        """Fold another record into this one (multi-filler aggregation).

        ``other`` may be a *live* record another thread is still
        recording into, so both locks are taken -- in a globally
        consistent order (by ``id``) so two threads cross-merging the
        same pair cannot deadlock.  Merging a record into itself folds
        a snapshot (doubling its counters) rather than self-deadlocking.
        """
        if other is self:
            other = ServeMetrics.from_dict(self.to_dict())
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            self.n_batches += other.n_batches
            self.n_rows += other.n_rows
            self.n_rows_filled += other.n_rows_filled
            self.n_rows_no_holes += other.n_rows_no_holes
            self.n_rows_all_holes += other.n_rows_all_holes
            self.n_groups += other.n_groups
            self.n_holes_filled += other.n_holes_filled
            self.cache_hits += other.cache_hits
            self.cache_misses += other.cache_misses
            self.cache_evictions += other.cache_evictions
            self.n_publishes += other.n_publishes
            self.fill_seconds += other.fill_seconds
            self.group_sizes.extend(other.group_sizes)
            del self.group_sizes[:-_MAX_SAMPLES]
            self.batch_latencies.extend(other.batch_latencies)
            del self.batch_latencies[:-_MAX_SAMPLES]
            _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        with self._lock:
            return {
                field_def.name: _snapshot_value(getattr(self, field_def.name))
                for field_def in fields(self)
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ServeMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServeMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass
class ServeHttpMetrics:
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

    n_requests: int = 0
    n_fill_requests: int = 0
    n_whatif_requests: int = 0
    n_outlier_requests: int = 0
    n_recommend_requests: int = 0
    n_flushes: int = 0
    n_rows_coalesced: int = 0
    n_shed_queue_full: int = 0
    n_expired: int = 0
    n_errors: int = 0
    n_bad_requests: int = 0
    coalesce_seconds: float = 0.0
    queue_depth: int = 0
    queue_depth_peak: int = 0
    flush_sizes: list = field(default_factory=list)
    coalesce_waits: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

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
            self.queue_depth_peak = max(
                self.queue_depth_peak, int(queue_depth)
            )

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
            sample = sorted(self.coalesce_waits)
        if not sample:
            return tuple(0.0 for _ in quantiles)
        result = []
        for quantile in quantiles:
            if not 0.0 <= quantile <= 1.0:
                raise ValueError(
                    f"quantile must be in [0, 1], got {quantile}"
                )
            position = quantile * (len(sample) - 1)
            low = int(position)
            high = min(low + 1, len(sample) - 1)
            weight = position - low
            result.append(
                sample[low] * (1.0 - weight) + sample[high] * weight
            )
        return tuple(result)

    # -- (de)serialization -------------------------------------------------

    def merge(self, other: "ServeHttpMetrics") -> None:
        """Fold another record into this one (multi-server aggregation).

        Same locking discipline as :meth:`ServeMetrics.merge`: both
        locks taken in a globally consistent order so cross-merges
        cannot deadlock, and self-merge folds a snapshot.  Counters
        sum; ``queue_depth`` keeps the receiver's reading (it is a
        point-in-time gauge); ``queue_depth_peak`` takes the max.
        """
        if other is self:
            other = ServeHttpMetrics.from_dict(self.to_dict())
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            self.n_requests += other.n_requests
            self.n_fill_requests += other.n_fill_requests
            self.n_whatif_requests += other.n_whatif_requests
            self.n_outlier_requests += other.n_outlier_requests
            self.n_recommend_requests += other.n_recommend_requests
            self.n_flushes += other.n_flushes
            self.n_rows_coalesced += other.n_rows_coalesced
            self.n_shed_queue_full += other.n_shed_queue_full
            self.n_expired += other.n_expired
            self.n_errors += other.n_errors
            self.n_bad_requests += other.n_bad_requests
            self.coalesce_seconds += other.coalesce_seconds
            self.queue_depth_peak = max(
                self.queue_depth_peak, other.queue_depth_peak
            )
            self.flush_sizes.extend(other.flush_sizes)
            del self.flush_sizes[:-_MAX_SAMPLES]
            self.coalesce_waits.extend(other.coalesce_waits)
            del self.coalesce_waits[:-_MAX_SAMPLES]
            _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        with self._lock:
            return {
                field_def.name: _snapshot_value(getattr(self, field_def.name))
                for field_def in fields(self)
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeHttpMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ServeHttpMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServeHttpMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass
class StoreMetrics:
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

    n_publishes: int = 0
    publish_bytes: int = 0
    n_loads: int = 0
    n_cache_hits: int = 0
    n_cache_misses: int = 0
    n_cache_evictions: int = 0
    n_recoveries: int = 0
    n_quarantined: int = 0
    n_manifest_rebuilds: int = 0
    n_gc_removed: int = 0
    gc_reclaimed_bytes: int = 0
    n_sync_checks: int = 0
    n_sync_swaps: int = 0
    n_lock_breaks: int = 0
    publish_seconds: float = 0.0
    load_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

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

    # -- (de)serialization -------------------------------------------------

    def merge(self, other: "StoreMetrics") -> None:
        """Fold another record into this one (multi-store aggregation).

        ``other`` may be a *live* record another thread is still
        recording into, so both locks are taken -- in a globally
        consistent order (by ``id``) so two threads cross-merging the
        same pair cannot deadlock.  Merging a record into itself folds
        a snapshot (doubling its counters) rather than self-deadlocking.
        """
        if other is self:
            other = StoreMetrics.from_dict(self.to_dict())
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            self.n_publishes += other.n_publishes
            self.publish_bytes += other.publish_bytes
            self.n_loads += other.n_loads
            self.n_cache_hits += other.n_cache_hits
            self.n_cache_misses += other.n_cache_misses
            self.n_cache_evictions += other.n_cache_evictions
            self.n_recoveries += other.n_recoveries
            self.n_quarantined += other.n_quarantined
            self.n_manifest_rebuilds += other.n_manifest_rebuilds
            self.n_gc_removed += other.n_gc_removed
            self.gc_reclaimed_bytes += other.gc_reclaimed_bytes
            self.n_sync_checks += other.n_sync_checks
            self.n_sync_swaps += other.n_sync_swaps
            self.n_lock_breaks += other.n_lock_breaks
            self.publish_seconds += other.publish_seconds
            self.load_seconds += other.load_seconds
            _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        with self._lock:
            return {
                field_def.name: _snapshot_value(getattr(self, field_def.name))
                for field_def in fields(self)
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "StoreMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown StoreMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StoreMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


@dataclass
class WatchMetrics:
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

    rows_seen: int = 0
    rows_scored: int = 0
    rows_unscored: int = 0
    rows_passed: int = 0
    rows_cleaned: int = 0
    rows_quarantined: int = 0
    n_batches_tapped: int = 0
    n_bursts: int = 0
    n_calibration_resets: int = 0
    n_events: int = 0
    n_sink_failures: int = 0
    events_by_kind: dict = field(default_factory=dict)
    last_event_kind: str = ""
    last_z_score: float = 0.0
    last_residual: float = 0.0
    calibration_rows: int = 0
    calibration_mean: float = 0.0
    calibration_std: float = 0.0
    model_version: int = 0
    quarantine_rows: int = 0
    quarantine_bytes: int = 0
    score_seconds: float = 0.0
    clean_seconds: float = 0.0
    quarantine_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

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

    def merge(self, other: "WatchMetrics") -> None:
        """Fold another record into this one (multi-daemon rollup).

        Counters sum; the ``last_*`` / calibration / quarantine gauges
        describe *one* daemon's latest state, so the receiver's values
        are kept.
        """
        self.rows_seen += other.rows_seen
        self.rows_scored += other.rows_scored
        self.rows_unscored += other.rows_unscored
        self.rows_passed += other.rows_passed
        self.rows_cleaned += other.rows_cleaned
        self.rows_quarantined += other.rows_quarantined
        self.n_batches_tapped += other.n_batches_tapped
        self.n_bursts += other.n_bursts
        self.n_calibration_resets += other.n_calibration_resets
        self.n_events += other.n_events
        self.n_sink_failures += other.n_sink_failures
        for kind, count in other.events_by_kind.items():
            self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + count
        self.score_seconds += other.score_seconds
        self.clean_seconds += other.clean_seconds
        self.quarantine_seconds += other.quarantine_seconds
        _merge_extras(self.extras, other.extras)

    def to_dict(self) -> dict:
        """Plain-dict snapshot of every counter (JSON-serializable)."""
        return {
            field_def.name: _snapshot_value(getattr(self, field_def.name))
            for field_def in fields(self)
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WatchMetrics":
        """Rebuild a record from a :meth:`to_dict` snapshot.

        Unknown keys are rejected so stale snapshots fail loudly
        rather than silently dropping counters.
        """
        known = {field_def.name for field_def in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown WatchMetrics fields: {unknown}")
        return cls(**payload)

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WatchMetrics":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

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
        for key, value in sorted(self.extras.items()):
            lines.append(f"{key:<13} {value}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()
