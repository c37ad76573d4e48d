"""Sharded / parallel Ratio Rule mining.

The paper cites parallel association-rule mining (Agrawal & Shafer,
its reference [3]) as the multi-pass competitor; the single-pass
covariance formulation parallelizes far more naturally, because the
:class:`~repro.core.covariance.StreamingCovariance` accumulator is
**mergeable**: scan each shard independently, merge the partial
statistics, solve one eigensystem.  The merged result is *exactly* the
single-scan result (up to round-off) -- no approximation, no extra
passes.

This module wires that up at two levels:

- :func:`merge_partials` / :func:`accumulate_shard` -- the map/reduce
  primitives, usable from any execution fabric (multiprocessing, Spark,
  a bash loop over files);
- :func:`fit_sharded` -- a convenience driver over the out-of-core scan
  engine (:mod:`repro.core.engine`): shards are planned into chunks,
  scanned on a process pool (true parallelism -- CSV parsing and block
  iteration are pure-Python and GIL-bound), threads, or a serial loop,
  and the merged statistics are solved into a fitted
  :class:`~repro.core.model.RatioRuleModel`.  Scan telemetry lands on
  ``model.metrics_``.

Shard readers are opened lazily, inside the worker that scans them, so
a 1000-shard fit never holds 1000 open file handles.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.core.covariance import StreamingCovariance
from repro.core.engine import MIN_CHUNK_BYTES, scan_sources
from repro.core.model import RatioRuleModel
from repro.io.matrix_reader import MatrixReader, open_matrix
from repro.io.schema import TableSchema
from repro.obs.metrics import Stopwatch

__all__ = ["accumulate_shard", "merge_partials", "fit_sharded"]


def accumulate_shard(source, *, block_rows: int = 4096) -> StreamingCovariance:
    """Map step: scan one shard into a partial covariance accumulator.

    ``source`` is anything :func:`~repro.io.matrix_reader.open_matrix`
    accepts (array, reader, or file path).  A reader opened here from a
    path is closed before returning; readers passed in stay open (the
    caller owns them).
    """
    owns_reader = not isinstance(source, MatrixReader)
    reader = open_matrix(source)
    try:
        accumulator = StreamingCovariance(reader.n_cols)
        for block in reader.iter_blocks(block_rows):
            accumulator.update(block)
        return accumulator
    finally:
        if owns_reader:
            reader.close()


def merge_partials(partials: Iterable[StreamingCovariance]) -> StreamingCovariance:
    """Reduce step: merge partial accumulators into one.

    Raises
    ------
    ValueError
        If no partials are supplied or widths disagree.
    """
    partials = list(partials)
    if not partials:
        raise ValueError("need at least one partial accumulator")
    merged = StreamingCovariance(partials[0].n_cols)
    for partial in partials:
        merged.merge(partial)
    return merged


def fit_sharded(
    sources: Sequence,
    *,
    schema: Optional[TableSchema] = None,
    cutoff=None,
    backend: str = "numpy",
    block_rows: int = 4096,
    max_workers: Optional[int] = None,
    executor: str = "auto",
    target_chunks: Optional[int] = None,
    max_retries: int = 0,
    backoff_seconds: float = 0.05,
    chunk_timeout: Optional[float] = None,
    on_bad_chunk: str = "raise",
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    fault_injector=None,
    min_chunk_bytes: Optional[int] = None,
    shm_handoff: bool = True,
) -> RatioRuleModel:
    """Mine Ratio Rules from several shards as if they were one matrix.

    Parameters
    ----------
    sources:
        One entry per shard: arrays, readers, or file paths (CSV, row
        store, ``.npz``, partition directory).  All must share the
        column layout.
    schema:
        Optional explicit schema; defaults to the first shard's.
    cutoff, backend:
        Forwarded to :class:`~repro.core.model.RatioRuleModel`.
    block_rows:
        Scan block size per chunk.
    max_workers:
        Pool width for the map step; ``None`` or ``1`` scans serially
        unless ``executor`` explicitly requests a parallel fabric.
        Results are identical either way -- partials are merged in plan
        order regardless of completion order.
    executor:
        ``"auto"`` (serial unless ``max_workers > 1``; then processes
        for file-backed shards, threads otherwise), ``"serial"``,
        ``"thread"``, or ``"process"``.  See
        :func:`repro.core.engine.scan_sources` for the fallback rules.
    target_chunks:
        Total scan chunks to plan; defaults to one per shard (or one
        per worker when that is larger), letting the engine split big
        files into byte/row ranges.
    max_retries, backoff_seconds, chunk_timeout, on_bad_chunk:
        Fault-tolerance policy for the scan, forwarded to
        :func:`repro.core.engine.scan_sources`: per-chunk retries with
        exponential backoff, a per-attempt deadline, and whether an
        irrecoverable chunk aborts (``"raise"``) or is quarantined
        (``"skip"``) with the loss recorded on ``model.metrics_``.
    checkpoint, resume:
        Persist each finished chunk's partial accumulator to
        ``checkpoint``; with ``resume=True`` an interrupted fit
        restarts from that file, rescanning only unfinished chunks.
        The resumed model is bit-for-bit the uninterrupted model.
    fault_injector:
        Deterministic test hook (:mod:`repro.testing.faults`).
    min_chunk_bytes, shm_handoff:
        Hot-path tuning knobs forwarded to
        :func:`repro.core.engine.scan_sources`: the adaptive
        chunk-sizing floor, and whether process workers hand partials
        back through shared memory.

    Returns
    -------
    RatioRuleModel
        Fitted exactly as a single scan over the concatenated shards,
        with scan/solve telemetry on ``model.metrics_``.
    """
    if not sources:
        raise ValueError("need at least one shard")
    with Stopwatch() as total_watch:
        result = scan_sources(
            sources,
            executor=executor,
            max_workers=max_workers,
            block_rows=block_rows,
            target_chunks=target_chunks,
            schema=schema,
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            chunk_timeout=chunk_timeout,
            on_bad_chunk=on_bad_chunk,
            checkpoint=checkpoint,
            resume=resume,
            fault_injector=fault_injector,
            min_chunk_bytes=(
                MIN_CHUNK_BYTES if min_chunk_bytes is None else min_chunk_bytes
            ),
            shm_handoff=shm_handoff,
        )
        model = RatioRuleModel(cutoff=cutoff, backend=backend)
        model.fit_from_accumulator(
            result.accumulator, result.schema, metrics=result.metrics
        )
    result.metrics.total_seconds = total_watch.seconds
    return model
