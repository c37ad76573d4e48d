"""Process-parallel, out-of-core, fault-tolerant scan engine.

The paper's algorithm is a single sequential scan folding rows into a
mergeable O(M^2) accumulator -- which makes it embarrassingly
shardable: split the bytes, scan the pieces anywhere, merge the
partials with the exact Chan/Golub/LeVeque algebra of
:class:`~repro.core.covariance.StreamingCovariance`.  This module is
the execution fabric for that observation:

1. **plan** -- :func:`plan_chunks` turns any mix of sources (CSV files,
   row stores, partition directories, in-memory arrays, readers) into
   independently scannable :class:`ScanChunk` descriptors: byte ranges
   for CSVs, row ranges for fixed-width row stores and arrays, whole
   files for unsplittable formats (gzip, npz);
2. **map** -- :func:`scan_sources` executes the chunks on a
   ``ProcessPoolExecutor`` (CSV parsing and block iteration are
   pure-Python and GIL-bound, so real parallelism needs processes),
   falling back gracefully to threads for in-memory sources a process
   would have to pickle, and to a serial loop when ``max_workers <= 1``
   or there is only one chunk;
3. **reduce** -- partials are merged *in plan order*, so the result is
   deterministic and numerically identical across executors (identical
   chunk statistics, identical merge sequence).

Because chunks are independent and partials are exact, **failure is
recoverable without changing results**.  The engine layers four
fault-tolerance mechanisms on the map step, all off by default:

- **retry** -- a failed chunk attempt is re-queued up to
  ``max_retries`` times with exponential backoff
  (:class:`RetryPolicy`); a per-attempt ``chunk_timeout`` bounds how
  long the reducer waits on any single chunk before treating it as
  faulted;
- **quarantine** -- a chunk that exhausts its retry budget either
  aborts the scan (``on_bad_chunk="raise"``, the strict default) or is
  skipped with its identity and estimated rows/bytes lost recorded on
  :class:`~repro.obs.metrics.ScanMetrics` (``on_bad_chunk="skip"``);
- **degradation** -- when a worker pool dies (e.g. a killed worker
  breaks a ``ProcessPoolExecutor``), unfinished chunks are retried on
  the next-weaker fabric: process -> thread -> serial;
- **checkpoint/resume** -- with ``checkpoint=path`` every completed
  chunk's partial accumulator is persisted (atomically) through
  :class:`ScanCheckpoint`; an interrupted scan relaunched with
  ``resume=True`` reloads the finished partials and scans only the
  remaining chunks.  Since the final merge always runs over *all*
  per-chunk partials in plan order, a resumed result is bit-for-bit
  the fault-free result.

Deterministic fault injection for all of the above lives in
:mod:`repro.testing.faults`; the semantics are documented in
``docs/fault_tolerance.md``.

Every scan fills a :class:`~repro.obs.metrics.ScanMetrics` record
(rows/sec, blocks, merges, wall-clock, fault/retry/quarantine
counters) so the gap to the paper's Fig. 8 linear scale-up is
measurable, not aspirational.

Three raw-speed mechanisms keep the parallel overhead below the win:

- **pool reuse** -- worker pools are cached process-wide and reused
  across scans and retry rounds, so the ~100ms+ cost of spawning a
  ``ProcessPoolExecutor`` is paid once, not per scan;
- **shared-memory handoff** -- on the process fabric each worker
  writes its partial's state arrays into a per-chunk slot of one
  ``multiprocessing.shared_memory`` segment and returns only a tiny
  tuple, instead of pickling the accumulator back through the result
  pipe;
- **adaptive chunk sizing** -- when ``target_chunks`` is not forced,
  large workloads are over-chunked (up to 4x the pool width, with at
  least ``min_chunk_bytes`` of payload per chunk) so a slow worker
  never strands the pool, while small workloads keep exactly one chunk
  per worker.

Either way the reduce traffic is O(workers * M^2) regardless of ``N``
-- the out-of-core property survives parallelism.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.covariance import StreamingCovariance
from repro.io.matrix_reader import (
    ArrayReader,
    CSVChunkReader,
    MatrixReader,
    RowStoreChunkReader,
    csv_layout,
    open_matrix,
)
from repro.io.partitioned import PartitionedReader
from repro.io.rowstore import RowStore
from repro.io.schema import TableSchema
from repro.obs.metrics import ScanMetrics, Stopwatch
from repro.obs.tracing import Tracer, adopt_spans, span, tracing_enabled

__all__ = [
    "ScanChunk",
    "ScanResult",
    "ScanFaultError",
    "RetryPolicy",
    "ScanCheckpoint",
    "plan_chunks",
    "scan_chunk",
    "scan_sources",
    "shutdown_pools",
    "EXECUTORS",
    "BAD_CHUNK_POLICIES",
    "MIN_CHUNK_BYTES",
]

#: Recognized executor names; ``"auto"`` resolves per the fallback
#: rules documented on :func:`scan_sources`.
EXECUTORS = ("auto", "serial", "thread", "process")

#: What to do with a chunk that exhausted its retry budget.
BAD_CHUNK_POLICIES = ("raise", "skip")

#: Fabric to fall back to when a worker pool dies mid-round.
_DOWNGRADE = {"process": "thread", "thread": "serial"}

#: Adaptive chunk sizing floor: when the planner over-chunks a large
#: workload for load balancing, each chunk keeps at least this much
#: payload so per-chunk dispatch overhead stays amortized.
MIN_CHUNK_BYTES = 4 << 20


# -- worker-pool cache ------------------------------------------------------
#
# Spawning a ProcessPoolExecutor costs fork + interpreter warm-up +
# handshake per worker; paying that on every scan (and every retry
# round) is what produced the historical sub-1.0x process "speedup".
# Pools are cached process-wide, keyed by (fabric, width), checked out
# for the duration of one execution round, and returned when healthy.
# Broken pools and pools that may still be running a timed-out attempt
# are discarded instead.

_POOL_LOCK = threading.Lock()
_POOL_CACHE: Dict[Tuple[str, int], object] = {}


def _borrow_pool(kind: str, workers: int):
    """Check out a cached executor, creating one on first use.

    A cached pool can have died *after* it was returned (a worker
    killed once its futures already resolved); hand those to the
    shredder instead of the caller.
    """
    with _POOL_LOCK:
        pool = _POOL_CACHE.pop((kind, workers), None)
    if pool is not None:
        if not getattr(pool, "_broken", False):
            return pool
        pool.shutdown(wait=False, cancel_futures=True)
    pool_cls = ProcessPoolExecutor if kind == "process" else ThreadPoolExecutor
    return pool_cls(max_workers=workers)


def _return_pool(kind: str, workers: int, pool) -> None:
    """Return a healthy pool to the cache; surplus pools shut down."""
    with _POOL_LOCK:
        if (kind, workers) not in _POOL_CACHE:
            _POOL_CACHE[(kind, workers)] = pool
            return
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every cached executor (registered atexit)."""
    with _POOL_LOCK:
        pools = list(_POOL_CACHE.values())
        _POOL_CACHE.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


# -- shared-memory partial handoff ------------------------------------------


def _slot_nbytes(n_cols: int) -> int:
    """Bytes per chunk slot: int64 count + float64 mean + scatter."""
    return 8 + 8 * n_cols + 8 * n_cols * n_cols


def _slot_views(buf, offset: int, n_cols: int):
    """(count, mean, scatter) numpy views into one shared-memory slot."""
    count = np.frombuffer(buf, dtype=np.int64, count=1, offset=offset)
    mean = np.frombuffer(buf, dtype=np.float64, count=n_cols, offset=offset + 8)
    scatter = np.frombuffer(
        buf,
        dtype=np.float64,
        count=n_cols * n_cols,
        offset=offset + 8 + 8 * n_cols,
    ).reshape(n_cols, n_cols)
    return count, mean, scatter


def _publish_partial(accumulator: StreamingCovariance, handoff) -> bool:
    """Worker side: write the partial's state into its slot.

    Returns False when the segment cannot be attached (e.g. the
    coordinator tore it down after a timeout); the caller then falls
    back to returning the pickled accumulator.
    """
    from multiprocessing import shared_memory

    shm_name, offset, n_cols = handoff
    try:
        segment = shared_memory.SharedMemory(name=shm_name)
    except OSError:
        return False
    try:
        # Attaching re-registers the segment with the resource tracker,
        # but forked workers share the coordinator's tracker process and
        # registration is a set add — idempotent.  Do NOT unregister
        # here: that would erase the coordinator's own registration and
        # its later unlink() would trip a KeyError inside the tracker.
        state = accumulator.state()
        count, mean, scatter = _slot_views(segment.buf, offset, n_cols)
        try:
            count[0] = state["count"]
            mean[:] = state["mean"]
            scatter[:] = state["scatter"]
        finally:
            del count, mean, scatter
        return True
    finally:
        segment.close()


def _collect_partial(segment, offset: int, n_cols: int) -> StreamingCovariance:
    """Coordinator side: rebuild a partial from its slot (copies out)."""
    count, mean, scatter = _slot_views(segment.buf, offset, n_cols)
    try:
        state = {
            "count": int(count[0]),
            "mean": mean.copy(),
            "scatter": scatter.copy(),
        }
    finally:
        del count, mean, scatter
    return StreamingCovariance.from_state(state)


class ScanFaultError(RuntimeError):
    """A chunk kept failing and the scan ran under ``on_bad_chunk="raise"``.

    Carries the failed chunk's plan index on :attr:`chunk_index`; the
    original error is chained as ``__cause__``.  When the scan was
    checkpointing, every chunk finished before the abort is already
    persisted -- rerunning with ``resume=True`` continues from there.
    """

    def __init__(self, message: str, chunk_index: int = -1) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline policy for one scan's chunk attempts.

    Attributes
    ----------
    max_retries:
        Extra attempts per chunk after the first failure (0 = fail
        fast, the historical behavior).
    backoff_seconds:
        Base delay before retry round ``r`` (delay = ``backoff_seconds
        * 2**(r-1)``, capped at :attr:`max_backoff_seconds`).  Set to 0
        in tests for instant retries.
    max_backoff_seconds:
        Upper bound on the exponential backoff delay.
    chunk_timeout:
        Per-attempt deadline in seconds for pooled executors; an
        attempt that misses it counts as a fault and is retried or
        quarantined like any other failure.  ``None`` disables the
        deadline.  A serial scan cannot preempt a running chunk, so
        the deadline only binds on thread/process fabrics.
    """

    max_retries: int = 0
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    chunk_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )

    def delay(self, round_index: int) -> float:
        """Backoff before retry round ``round_index`` (1-based)."""
        if round_index <= 0 or self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.backoff_seconds * 2.0 ** (round_index - 1),
            self.max_backoff_seconds,
        )


@dataclass(frozen=True)
class ScanChunk:
    """One independently scannable piece of a source.

    ``kind`` selects the reader the worker builds:

    =============  ======================================================
    kind           meaning of ``source`` / ``start`` / ``stop``
    =============  ======================================================
    ``csv``        path; half-open **byte** range of line starts owned
    ``rowstore``   path; half-open **row** range owned
    ``path``       path scanned whole (gzip/npz/unsplittable formats)
    ``array``      ndarray; half-open row range owned
    ``reader``     a live :class:`MatrixReader`, scanned whole
    =============  ======================================================
    """

    kind: str
    source: object
    start: int = 0
    stop: int = 0
    n_cols: int = 0

    @property
    def picklable(self) -> bool:
        """Whether the chunk can cross a process boundary cheaply.

        File-backed chunks ship as a path plus two integers; array
        chunks would pickle the data itself and live readers cannot be
        pickled at all -- both fall back to threads.
        """
        return self.kind in ("csv", "rowstore", "path")

    def signature(self) -> dict:
        """JSON-serializable identity (used by checkpoint plan matching).

        Only meaningful for :attr:`picklable` chunks, whose ``source``
        is a path string.
        """
        return {
            "kind": self.kind,
            "source": str(self.source),
            "start": int(self.start),
            "stop": int(self.stop),
            "n_cols": int(self.n_cols),
        }


@dataclass
class ScanResult:
    """Outcome of :func:`scan_sources`: merged statistics + telemetry."""

    accumulator: StreamingCovariance
    schema: TableSchema
    metrics: ScanMetrics


class ScanCheckpoint:
    """Crash-safe store of per-chunk partial accumulators for one scan.

    The file is a plain ``.npz`` holding the planned chunk list (as a
    JSON fingerprint including ``block_rows``, so a resume against a
    different plan fails loudly) plus, for every completed chunk,
    the :meth:`~repro.core.covariance.StreamingCovariance.state`
    arrays and the block count.  Writes go through a temp file and an
    atomic ``os.replace``, so a crash mid-write never corrupts the
    previous checkpoint.

    Because the engine's reduce step merges *all* per-chunk partials in
    plan order (never a running prefix), a resumed scan reproduces the
    fault-free result bit for bit.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._plan_json: Optional[str] = None
        self._partials: Dict[int, Tuple[StreamingCovariance, int]] = {}

    # -- plan binding ------------------------------------------------------

    @staticmethod
    def _fingerprint(chunks: Sequence[ScanChunk], block_rows: int) -> str:
        payload = {
            "block_rows": int(block_rows),
            "chunks": [chunk.signature() for chunk in chunks],
        }
        return json.dumps(payload, sort_keys=True)

    def bind_plan(self, chunks: Sequence[ScanChunk], block_rows: int) -> None:
        """Pin this checkpoint to a planned scan."""
        self._plan_json = self._fingerprint(chunks, block_rows)

    def matches(self, chunks: Sequence[ScanChunk], block_rows: int) -> bool:
        """Whether the stored plan is exactly the given plan."""
        return self._plan_json == self._fingerprint(chunks, block_rows)

    # -- contents ----------------------------------------------------------

    @property
    def completed(self) -> Dict[int, Tuple[StreamingCovariance, int]]:
        """``{chunk index: (partial accumulator, n_blocks)}`` so far."""
        return dict(self._partials)

    def record(
        self,
        index: int,
        accumulator: StreamingCovariance,
        n_blocks: int,
        *,
        flush: bool = True,
    ) -> None:
        """Store one finished chunk's partial; persist unless ``flush=False``."""
        self._partials[int(index)] = (accumulator, int(n_blocks))
        if flush:
            self.flush()

    def flush(self) -> None:
        """Atomically write the checkpoint file."""
        if self._plan_json is None:
            raise ValueError("bind_plan() must run before flush()")
        arrays = {
            "plan_json": np.asarray([self._plan_json]),
            "done": np.asarray(sorted(self._partials), dtype=np.int64),
        }
        for index, (accumulator, n_blocks) in self._partials.items():
            state = accumulator.state()
            arrays[f"count_{index}"] = np.asarray(state["count"], dtype=np.int64)
            arrays[f"mean_{index}"] = state["mean"]
            arrays[f"scatter_{index}"] = state["scatter"]
            arrays[f"blocks_{index}"] = np.asarray(n_blocks, dtype=np.int64)
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        with open(tmp_path, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_path, self.path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScanCheckpoint":
        """Read a checkpoint written by :meth:`flush`."""
        checkpoint = cls(path)
        with np.load(checkpoint.path, allow_pickle=False) as archive:
            checkpoint._plan_json = str(archive["plan_json"][0])
            for index in archive["done"].tolist():
                if f"mode_{index}" in archive:
                    # Partials of a retired raw-moment mode: from_state
                    # refuses them by name rather than rescanning.
                    state = {"mode": str(archive[f"mode_{index}"][0])}
                else:
                    state = {
                        "count": int(archive[f"count_{index}"]),
                        "mean": archive[f"mean_{index}"],
                        "scatter": archive[f"scatter_{index}"],
                    }
                accumulator = StreamingCovariance.from_state(state)
                checkpoint._partials[index] = (
                    accumulator,
                    int(archive[f"blocks_{index}"]),
                )
        return checkpoint


def _even_ranges(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, total)`` into <= ``parts`` contiguous non-empty ranges."""
    parts = max(1, min(parts, total)) if total > 0 else 1
    bounds = np.linspace(0, total, parts + 1).astype(int)
    return [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ] or [(0, 0)]


def _proportional_shares(weights: Sequence[int], total_parts: int) -> List[int]:
    """Distribute ``total_parts`` across shards, >= 1 each, ~proportional."""
    n = len(weights)
    shares = [1] * n
    remaining = max(0, total_parts - n)
    weight_sum = sum(weights) or 1
    for index in sorted(range(n), key=lambda i: -weights[i]):
        extra = round(remaining * weights[index] / weight_sum)
        shares[index] += extra
    return shares


def _plan_path(path: Path, target: int) -> Tuple[List[ScanChunk], TableSchema]:
    """Plan chunks for one on-disk source."""
    if path.is_dir():
        reader = PartitionedReader(path)
        counts = reader.shard_row_counts()
        shares = _proportional_shares(counts, target)
        chunks: List[ScanChunk] = []
        for shard, n_rows, share in zip(reader.shard_paths(), counts, shares):
            for start, stop in _even_ranges(n_rows, share):
                chunks.append(
                    ScanChunk(
                        "rowstore", str(shard), start, stop, reader.n_cols
                    )
                )
        return chunks, reader.schema

    suffixes = [s.lower() for s in path.suffixes]
    if ".csv" in suffixes:
        if path.suffix.lower() == ".gz":
            # Not byte-seekable: scan whole via the streaming CSVReader.
            reader = open_matrix(path)
            schema = reader.schema
            reader.close()
            return [ScanChunk("path", str(path), 0, 0, schema.width)], schema
        schema, data_offset, size = csv_layout(path)
        span = max(0, size - data_offset)
        chunks = []
        for start, stop in _even_ranges(span, target):
            chunks.append(
                ScanChunk(
                    "csv",
                    str(path),
                    data_offset + start,
                    data_offset + stop,
                    schema.width,
                )
            )
        return chunks, schema

    if path.suffix.lower() == ".npz":
        reader = open_matrix(path)
        schema = reader.schema
        reader.close()
        return [ScanChunk("path", str(path), 0, 0, schema.width)], schema

    # Binary row store: fixed-width rows, split by row range.
    store = RowStore.open(path)
    try:
        schema, n_rows = store.schema, store.n_rows
    finally:
        store.close()
    chunks = [
        ScanChunk("rowstore", str(path), start, stop, schema.width)
        for start, stop in _even_ranges(n_rows, target)
    ]
    return chunks, schema


def plan_chunks(
    source, *, target_chunks: int = 1, schema: Optional[TableSchema] = None
) -> Tuple[List[ScanChunk], TableSchema]:
    """Plan ~``target_chunks`` scan chunks over one source.

    Returns the chunk list plus the source's schema (known at plan time
    for every supported source, so width mismatches surface before any
    scanning starts).
    """
    target = max(1, int(target_chunks))
    if isinstance(source, (str, Path)):
        return _plan_path(Path(source), target)
    if isinstance(source, PartitionedReader):
        return _plan_path(source.directory, target)
    if isinstance(source, MatrixReader):
        # A live reader is an opaque scan: one chunk, current process.
        return (
            [ScanChunk("reader", source, 0, 0, source.n_cols)],
            source.schema,
        )
    matrix = np.asarray(source, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix source must be 2-d, got ndim={matrix.ndim}")
    if schema is None:
        schema = TableSchema.generic(matrix.shape[1])
    chunks = [
        ScanChunk("array", matrix, start, stop, matrix.shape[1])
        for start, stop in _even_ranges(matrix.shape[0], target)
    ]
    return chunks, schema


def scan_chunk(
    chunk: ScanChunk, block_rows: int = 4096
) -> Tuple[StreamingCovariance, int]:
    """Map step: scan one chunk into ``(partial accumulator, n_blocks)``.

    Runs in worker processes -- everything it needs travels inside the
    (picklable) chunk.  The partial's state is O(M^2) no matter how
    many rows the chunk covers.
    """
    owns_reader = True
    if chunk.kind == "csv":
        reader: MatrixReader = CSVChunkReader(chunk.source, chunk.start, chunk.stop)
    elif chunk.kind == "rowstore":
        reader = RowStoreChunkReader(chunk.source, chunk.start, chunk.stop)
    elif chunk.kind == "path":
        reader = open_matrix(chunk.source)
    elif chunk.kind == "array":
        reader = ArrayReader(chunk.source[chunk.start : chunk.stop])
    elif chunk.kind == "reader":
        reader = chunk.source
        owns_reader = False
    else:
        raise ValueError(f"unknown chunk kind {chunk.kind!r}")
    try:
        accumulator = StreamingCovariance(reader.n_cols)
        n_blocks = 0
        for block in reader.iter_blocks(block_rows):
            accumulator.update(block)
            n_blocks += 1
        return accumulator, n_blocks
    finally:
        if owns_reader:
            reader.close()


def _scan_chunk_task(args) -> Tuple[Optional[StreamingCovariance], int, Optional[list]]:
    """Worker entry point: apply injected faults, then scan the chunk.

    Returns ``(partial, n_blocks, spans)`` where ``spans`` is a list
    of plain span dicts when tracing was requested (``None``
    otherwise).  Spans are recorded on a *private* tracer -- not the
    worker process's global one -- exported, and piggybacked on the
    result tuple so the coordinator can re-parent them under its scan
    span regardless of which fabric (process/thread/serial) ran the
    chunk.  ``time.perf_counter`` is ``CLOCK_MONOTONIC`` system-wide
    on Linux, so the shipped timestamps are directly comparable to
    the coordinator's.

    With a shared-memory ``handoff`` descriptor the partial's state is
    written into its per-chunk slot instead and the first element of
    the tuple comes back ``None`` -- the coordinator rebuilds the
    partial from the slot, skipping result-pipe pickling.
    """
    chunk, block_rows, fault_injector, chunk_index, trace, handoff = args
    if fault_injector is not None:
        fault_injector.on_chunk_start(chunk_index)
    spans = None
    if not trace:
        accumulator, n_blocks = scan_chunk(chunk, block_rows)
    else:
        tracer = Tracer(enabled=True)
        with tracer.span(
            "scan.chunk", chunk_index=chunk_index, kind=chunk.kind
        ) as chunk_span:
            accumulator, n_blocks = scan_chunk(chunk, block_rows)
            chunk_span.set_attr("rows", accumulator.n_rows)
            chunk_span.set_attr("blocks", n_blocks)
        spans = tracer.export()
    if handoff is not None and _publish_partial(accumulator, handoff):
        return None, n_blocks, spans
    return accumulator, n_blocks, spans


def _resolve_executor(
    requested: str, chunks: Sequence[ScanChunk], desired_workers: int
) -> Tuple[str, int]:
    """Apply the fallback rules; returns ``(executor, n_workers)``."""
    if requested not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {requested!r}"
        )
    all_picklable = all(chunk.picklable for chunk in chunks)
    effective = requested
    if effective == "auto":
        effective = "process" if all_picklable else "thread"
    if effective == "process" and not all_picklable:
        # In-memory sources would be pickled wholesale; threads share.
        effective = "thread"
    workers = min(desired_workers, len(chunks))
    if workers <= 1 or len(chunks) <= 1:
        return "serial", 1
    return effective, workers


def _describe_source(chunk: ScanChunk) -> str:
    if isinstance(chunk.source, (str, Path)):
        return str(chunk.source)
    return f"<{type(chunk.source).__name__}>"


def _estimate_payload_bytes(sources: Sequence) -> Optional[int]:
    """Total scannable bytes across sources, or ``None`` when unknown.

    Used only to *size chunks adaptively*; an estimate that cannot be
    made cheaply (live readers) disables adaptation rather than
    guessing.
    """
    total = 0
    for source in sources:
        if isinstance(source, (str, Path)):
            path = Path(source)
            try:
                if path.is_dir():
                    total += sum(
                        child.stat().st_size
                        for child in path.iterdir()
                        if child.is_file()
                    )
                else:
                    total += path.stat().st_size
            except OSError:
                return None
        elif isinstance(source, np.ndarray):
            total += source.nbytes
        elif isinstance(source, MatrixReader):
            return None
        else:
            try:
                total += np.asarray(source).nbytes
            except Exception:
                return None
    return total


def _quarantine_record(chunk: ScanChunk, error: BaseException) -> dict:
    """Account for a skipped chunk: identity plus estimated data lost."""
    rows_lost = 0
    bytes_lost = 0
    if chunk.kind in ("rowstore", "array"):
        rows_lost = max(0, int(chunk.stop) - int(chunk.start))
    elif chunk.kind == "csv":
        bytes_lost = max(0, int(chunk.stop) - int(chunk.start))
    elif chunk.kind == "path":
        try:
            bytes_lost = os.path.getsize(chunk.source)
        except (OSError, TypeError):
            bytes_lost = 0
    return {
        "kind": chunk.kind,
        "source": _describe_source(chunk),
        "start": int(chunk.start),
        "stop": int(chunk.stop),
        "rows_lost": rows_lost,
        "bytes_lost": bytes_lost,
        "error": repr(error),
    }


def _execute_chunks(
    chunks: Sequence[ScanChunk],
    pending: Sequence[int],
    executor: str,
    workers: int,
    block_rows: int,
    policy: RetryPolicy,
    on_bad_chunk: str,
    metrics: ScanMetrics,
    fault_injector,
    checkpoint: Optional[ScanCheckpoint],
    trace: bool = False,
    shm_handoff: bool = True,
) -> Tuple[Dict[int, Tuple[StreamingCovariance, int]], str, Dict[int, list]]:
    """Run the pending chunk indices with retry/quarantine/degradation.

    Returns the successful partials keyed by plan index, the fabric
    the scan ended on (after any downgrades), and -- when ``trace`` is
    set -- the per-chunk span payloads the workers shipped back.
    Chunks that exhaust the retry budget are quarantined or raise per
    ``on_bad_chunk``; every success is recorded on ``checkpoint``
    (when given) the moment it lands, so an interruption at any point
    preserves all finished work.
    """
    results: Dict[int, Tuple[StreamingCovariance, int]] = {}
    worker_spans: Dict[int, list] = {}
    attempts = {index: 0 for index in pending}
    queue = list(pending)
    current = executor
    round_index = 0

    def _succeed(
        index: int, outcome: Tuple[StreamingCovariance, int, Optional[list]]
    ) -> None:
        accumulator, n_blocks, spans = outcome
        results[index] = (accumulator, n_blocks)
        if spans:
            worker_spans[index] = spans
        if checkpoint is not None:
            checkpoint.record(index, accumulator, n_blocks)

    while queue:
        if round_index > 0:
            delay = policy.delay(round_index)
            if delay > 0:
                time.sleep(delay)
        failures: List[Tuple[int, BaseException, bool]] = []

        if current == "serial":
            for index in queue:
                try:
                    _succeed(
                        index,
                        _scan_chunk_task(
                            (
                                chunks[index],
                                block_rows,
                                fault_injector,
                                index,
                                trace,
                                None,
                            )
                        ),
                    )
                except Exception as exc:
                    failures.append((index, exc, False))
        else:
            broken = False
            leaked = False
            with_pool_error: Optional[BaseException] = None
            pool = _borrow_pool(current, workers)
            segment = None
            slot_offsets: Dict[int, int] = {}
            n_cols = chunks[queue[0]].n_cols
            if current == "process" and shm_handoff:
                slot = _slot_nbytes(n_cols)
                try:
                    from multiprocessing import shared_memory

                    segment = shared_memory.SharedMemory(
                        create=True, size=slot * len(queue)
                    )
                    slot_offsets = {
                        index: position * slot
                        for position, index in enumerate(queue)
                    }
                except (ImportError, OSError):
                    segment = None  # no shm on this platform: pickle instead
            try:
                futures = {}
                try:
                    for index in queue:
                        futures[index] = pool.submit(
                            _scan_chunk_task,
                            (
                                chunks[index],
                                block_rows,
                                fault_injector,
                                index,
                                trace,
                                None
                                if segment is None
                                else (segment.name, slot_offsets[index], n_cols),
                            ),
                        )
                except BrokenExecutor as exc:
                    # The pool died under submission; everything this
                    # round is a failure and the fabric downgrades.
                    broken = True
                    with_pool_error = exc
                for index in queue:
                    if index not in futures:
                        failures.append((index, with_pool_error, False))
                        continue
                    timeout = 0.0 if broken else policy.chunk_timeout
                    try:
                        accumulator, n_blocks, spans = futures[index].result(
                            timeout=timeout
                        )
                        if accumulator is None:
                            accumulator = _collect_partial(
                                segment, slot_offsets[index], n_cols
                            )
                            metrics.n_shm_handoffs += 1
                        elif current == "process":
                            metrics.n_pickled_handoffs += 1
                        _succeed(index, (accumulator, n_blocks, spans))
                    except FuturesTimeoutError:
                        futures[index].cancel()
                        if broken:
                            failures.append((index, with_pool_error, False))
                        else:
                            leaked = True
                            failures.append(
                                (
                                    index,
                                    TimeoutError(
                                        f"chunk {index} missed the "
                                        f"{policy.chunk_timeout:g}s deadline"
                                    ),
                                    True,
                                )
                            )
                    except BrokenExecutor as exc:
                        broken = True
                        with_pool_error = exc
                        failures.append((index, exc, False))
                    except Exception as exc:
                        failures.append((index, exc, False))
            finally:
                if segment is not None:
                    segment.close()
                    try:
                        segment.unlink()
                    except FileNotFoundError:
                        pass
                # A broken pool cannot be rejoined; a timed-out chunk
                # may still be running its (now abandoned) attempt --
                # retire such pools instead of caching them.
                if broken or leaked:
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    _return_pool(current, workers, pool)
            if broken:
                current = _DOWNGRADE.get(current, "serial")
                metrics.n_executor_downgrades += 1

        queue = []
        for index, error, is_timeout in failures:
            attempts[index] += 1
            metrics.n_faults += 1
            if is_timeout:
                metrics.n_timeouts += 1
            if attempts[index] <= policy.max_retries:
                metrics.n_retries += 1
                queue.append(index)
            elif on_bad_chunk == "skip":
                record = _quarantine_record(chunks[index], error)
                metrics.n_quarantined += 1
                metrics.rows_quarantined += record["rows_lost"]
                metrics.bytes_quarantined += record["bytes_lost"]
                metrics.quarantined.append(record)
            else:
                raise ScanFaultError(
                    f"chunk {index} ({chunks[index].kind} "
                    f"{_describe_source(chunks[index])} "
                    f"[{chunks[index].start}, {chunks[index].stop})) failed "
                    f"after {attempts[index]} attempt(s): {error}",
                    chunk_index=index,
                ) from error
        round_index += 1

    return results, current, worker_spans


def scan_sources(
    sources: Sequence,
    *,
    executor: str = "auto",
    max_workers: Optional[int] = None,
    block_rows: int = 4096,
    target_chunks: Optional[int] = None,
    schema: Optional[TableSchema] = None,
    max_retries: int = 0,
    backoff_seconds: float = 0.05,
    chunk_timeout: Optional[float] = None,
    on_bad_chunk: str = "raise",
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    fault_injector=None,
    min_chunk_bytes: int = MIN_CHUNK_BYTES,
    shm_handoff: bool = True,
) -> ScanResult:
    """Scan one or many sources into a single merged accumulator.

    Parameters
    ----------
    sources:
        One entry per shard: file paths (CSV, ``.csv.gz``, ``.npz``,
        row store, partition directory), arrays, or readers.  All must
        share the column layout.
    executor:
        ``"process"`` (default resolution of ``"auto"`` for file-backed
        sources), ``"thread"``, ``"serial"``, or ``"auto"``.  Requests
        are honored when possible and downgraded gracefully: processes
        fall back to threads when any chunk is in-memory, anything
        collapses to a serial loop when ``max_workers <= 1`` or only
        one chunk was planned, and a pool that *dies* mid-scan drops to
        the next-weaker fabric for the retried chunks.
    max_workers:
        Pool width.  ``None`` means "serial" for ``executor="auto"``
        (preserving the historical default) and ``os.cpu_count()`` for
        an explicitly parallel executor.
    block_rows:
        Rows per block inside each chunk scan.
    target_chunks:
        Total chunks to plan; defaults to ``max(len(sources), workers)``
        so a single big file still saturates the pool.
    schema:
        Optional explicit schema; defaults to the first source's.
    max_retries, backoff_seconds, chunk_timeout:
        The :class:`RetryPolicy` knobs: extra attempts per failed
        chunk, exponential-backoff base delay between retry rounds,
        and the per-attempt deadline on pooled fabrics.
    on_bad_chunk:
        ``"raise"`` (default) aborts the scan with
        :class:`ScanFaultError` once a chunk exhausts its retries;
        ``"skip"`` quarantines the chunk -- the scan completes on the
        surviving data and the loss is itemized on the metrics.
    checkpoint:
        Path of a :class:`ScanCheckpoint` file to keep updated with
        every finished chunk's partial accumulator.  Requires
        file-backed sources (in-memory chunks cannot be revalidated
        across runs).
    resume:
        Load ``checkpoint`` (which must exist and match the planned
        scan exactly) and skip its finished chunks.  The merged result
        is bit-for-bit what a fault-free run produces.
    fault_injector:
        Test hook (see :mod:`repro.testing.faults`): an object whose
        ``on_chunk_start(chunk_index)`` runs in the worker before each
        attempt and may raise, sleep, or kill the worker.
    min_chunk_bytes:
        Adaptive chunk sizing floor.  When ``target_chunks`` is not
        given, large workloads are over-chunked -- up to 4x the pool
        width -- for load balancing, but never below this many payload
        bytes per chunk; ``0`` disables over-chunking.
    shm_handoff:
        On the process fabric, hand partials back through one
        ``multiprocessing.shared_memory`` segment instead of pickling
        them through the result pipe (falls back automatically where
        shared memory is unavailable).

    Returns
    -------
    ScanResult
        Merged accumulator (exact single-scan statistics), schema, and
        the filled :class:`~repro.obs.metrics.ScanMetrics`.
    """
    if not sources:
        raise ValueError("need at least one source")
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    if on_bad_chunk not in BAD_CHUNK_POLICIES:
        raise ValueError(
            f"on_bad_chunk must be one of {BAD_CHUNK_POLICIES}, got {on_bad_chunk!r}"
        )
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    policy = RetryPolicy(
        max_retries=max_retries,
        backoff_seconds=backoff_seconds,
        chunk_timeout=chunk_timeout,
    )

    if executor == "serial":
        desired_workers = 1
    elif max_workers is not None:
        desired_workers = max(1, int(max_workers))
    elif executor == "auto":
        desired_workers = 1
    else:
        desired_workers = os.cpu_count() or 1

    metrics = ScanMetrics()
    trace = tracing_enabled()
    with span(
        "engine.scan", n_sources=len(sources), executor=executor
    ) as scan_span, Stopwatch() as total_watch:
        with span("engine.plan"):
            target = target_chunks
            if target is None:
                # One chunk per worker saturates the pool; large
                # workloads are over-chunked (capped at 4x the pool,
                # floored at min_chunk_bytes per chunk) so one slow
                # worker cannot strand the round.
                target = max(len(sources), desired_workers)
                if desired_workers > 1 and min_chunk_bytes > 0:
                    payload = _estimate_payload_bytes(sources)
                    if payload is not None:
                        balanced = -(-payload // min_chunk_bytes)
                        target = max(
                            target, min(balanced, 4 * desired_workers)
                        )
            shares = _proportional_shares([1] * len(sources), target)
            chunks: List[ScanChunk] = []
            resolved_schema = schema
            widths = {}
            for source, share in zip(sources, shares):
                source_chunks, source_schema = plan_chunks(
                    source, target_chunks=share, schema=schema
                )
                chunks.extend(source_chunks)
                widths[source_schema.width] = True
                if resolved_schema is None:
                    resolved_schema = source_schema
            if len(widths) > 1:
                raise ValueError(
                    f"shards disagree on column count: {sorted(widths)}"
                )

            store: Optional[ScanCheckpoint] = None
            completed: Dict[int, Tuple[StreamingCovariance, int]] = {}
            if checkpoint is not None:
                unsupported = [c.kind for c in chunks if not c.picklable]
                if unsupported:
                    raise ValueError(
                        "checkpointing requires file-backed sources; got "
                        f"chunk kind(s) {sorted(set(unsupported))}"
                    )
                checkpoint_path = Path(checkpoint)
                if resume and checkpoint_path.exists():
                    store = ScanCheckpoint.load(checkpoint_path)
                    if not store.matches(chunks, block_rows):
                        raise ValueError(
                            f"checkpoint {checkpoint_path} was written for a "
                            "different scan plan (sources, chunking, or "
                            "block_rows changed); delete it or rerun without "
                            "resume"
                        )
                    completed = store.completed
                else:
                    store = ScanCheckpoint(checkpoint_path)
                    store.bind_plan(chunks, block_rows)
            metrics.n_chunks_resumed = len(completed)

            pending = [
                index for index in range(len(chunks)) if index not in completed
            ]
            effective, workers = _resolve_executor(
                executor,
                [chunks[index] for index in pending] or chunks,
                desired_workers,
            )

        with Stopwatch() as scan_watch:
            scanned, final_executor, worker_spans = _execute_chunks(
                chunks,
                pending,
                effective,
                workers,
                block_rows,
                policy,
                on_bad_chunk,
                metrics,
                fault_injector,
                store,
                trace,
                shm_handoff,
            )
            # Re-home the spans the workers shipped back: their root
            # scan.chunk spans become children of this coordinator's
            # engine.scan span, in plan order.
            for index in sorted(worker_spans):
                adopt_spans(worker_spans[index], parent=scan_span)
            results = dict(completed)
            results.update(scanned)

            # Reduce in plan order over *all* partials -- resumed,
            # retried, and freshly scanned alike -- so the merge
            # sequence (and hence the bits) never depends on which
            # chunks faulted along the way.
            with span("engine.merge", n_partials=len(results)):
                merged = StreamingCovariance(chunks[0].n_cols)
                for index in range(len(chunks)):
                    if index not in results:
                        continue  # quarantined
                    partial, n_blocks = results[index]
                    merged.merge(partial)
                    metrics.n_merges += 1
                    metrics.n_blocks += n_blocks
        metrics.scan_seconds = scan_watch.seconds
        scan_span.set_attr("executor_used", final_executor)
        scan_span.set_attr("n_chunks", len(chunks))
        scan_span.set_attr("n_rows", merged.n_rows)

    metrics.executor = final_executor
    metrics.n_workers = workers
    metrics.n_sources = len(sources)
    metrics.n_chunks = len(chunks)
    metrics.n_rows = merged.n_rows
    metrics.total_seconds = total_watch.seconds
    assert resolved_schema is not None
    return ScanResult(merged, resolved_schema, metrics)
