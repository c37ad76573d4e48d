"""Batch sources for the continuous-ingestion pipeline.

A :class:`BatchSource` is anything the pipeline can poll for "the next
few rows": an in-process queue fed by application threads, a CSV file
another process keeps appending to, or a synthetic
:class:`~repro.datasets.streams.TransactionStream`.  The contract is
deliberately tiny and non-blocking:

``poll(max_rows)``
    Return up to ``max_rows`` rows as a float64 array.  A ``(0, M)``
    array means "nothing right now, try again later" (idle stream);
    ``None`` means the source is permanently exhausted.

All sources share the same backpressure-aware batching discipline: an
internal row buffer coalesces many small arrivals into one pipeline
batch and splits oversized arrivals across polls, so the pipeline's
per-batch costs (drift checks, metrics) are amortized no matter how
the producer happens to chop the stream.  :class:`QueueSource` adds
producer-side backpressure on top: its queue is bounded, so a producer
that outruns the pipeline blocks in ``put()`` instead of growing
memory without limit.
"""

from __future__ import annotations

import abc
import os
import queue
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.datasets.streams import TransactionStream
from repro.io.matrix_reader import _parse_numeric_csv
from repro.io.schema import TableSchema

__all__ = [
    "BAD_ROW_POLICIES",
    "BatchSource",
    "CSVTailSource",
    "QueueSource",
    "TransactionStreamSource",
]

#: What :class:`CSVTailSource` does with a corrupt row: ``"raise"``
#: propagates a ``ValueError`` with file/byte context (the historical
#: behavior, minus the context); ``"skip"`` drops the row and counts it.
BAD_ROW_POLICIES = ("raise", "skip")

class BatchSource(abc.ABC):
    """Pollable row source; see the module docstring for the contract."""

    def __init__(self, schema: TableSchema) -> None:
        self._schema = schema
        self._buffer: List[np.ndarray] = []
        self._buffered_rows = 0

    @property
    def schema(self) -> TableSchema:
        """Column metadata for the rows this source emits."""
        return self._schema

    @property
    def n_cols(self) -> int:
        """Row width ``M``."""
        return self._schema.width

    # -- the poll contract -------------------------------------------------

    @abc.abstractmethod
    def _refill(self) -> bool:
        """Pull newly arrived rows into the buffer.

        Returns False when the source can never produce rows again
        (the buffer may still hold a tail to drain).
        """

    def poll(self, max_rows: int) -> Optional[np.ndarray]:
        """Up to ``max_rows`` new rows; empty = idle, ``None`` = done."""
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        alive = self._refill()
        if self._buffered_rows == 0:
            if alive:
                return np.empty((0, self.n_cols), dtype=np.float64)
            return None
        return self._take(max_rows)

    def close(self) -> None:
        """Release any held resources (idempotent; default no-op)."""

    # -- shared buffering --------------------------------------------------

    def _push(self, rows: np.ndarray) -> None:
        """Append validated rows to the internal buffer."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != self.n_cols:
            raise ValueError(
                f"expected rows of width {self.n_cols}, got shape {rows.shape}"
            )
        if rows.shape[0] == 0:
            return
        self._buffer.append(rows)
        self._buffered_rows += rows.shape[0]

    def _take(self, max_rows: int) -> np.ndarray:
        """Pop up to ``max_rows`` buffered rows, splitting the tail piece."""
        take = min(max_rows, self._buffered_rows)
        parts: List[np.ndarray] = []
        remaining = take
        while remaining > 0:
            head = self._buffer[0]
            if head.shape[0] <= remaining:
                parts.append(head)
                self._buffer.pop(0)
                remaining -= head.shape[0]
            else:
                parts.append(head[:remaining])
                self._buffer[0] = head[remaining:]
                remaining = 0
        self._buffered_rows -= take
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)


class QueueSource(BatchSource):
    """In-process queue source with bounded-memory backpressure.

    Producer threads call :meth:`put` with row blocks of any size;
    the pipeline polls batches out.  The queue holds at most
    ``capacity`` blocks, so a producer that outruns the pipeline
    blocks in ``put()`` (or times out) rather than buffering
    unboundedly -- backpressure propagates to whoever generates the
    data.

    Parameters
    ----------
    schema_or_width:
        A :class:`~repro.io.schema.TableSchema` or a plain column
        count (generic names are synthesized).
    capacity:
        Maximum queued blocks before ``put()`` blocks.
    """

    def __init__(
        self,
        schema_or_width: Union[TableSchema, int],
        *,
        capacity: int = 64,
    ) -> None:
        if isinstance(schema_or_width, TableSchema):
            schema = schema_or_width
        else:
            schema = TableSchema.generic(int(schema_or_width))
        super().__init__(schema)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._queue: "queue.Queue[Optional[np.ndarray]]" = queue.Queue(
            maxsize=capacity
        )
        self._closed = False
        self._drained = False

    def put(
        self, rows: np.ndarray, *, timeout: Optional[float] = None
    ) -> None:
        """Enqueue a block of rows; blocks when the queue is full.

        Raises
        ------
        ValueError
            When the rows are the wrong width or the source is closed.
        queue.Full
            When ``timeout`` expires before space frees up.
        """
        if self._closed:
            raise ValueError("cannot put() into a closed QueueSource")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != self.n_cols:
            raise ValueError(
                f"expected rows of width {self.n_cols}, got shape {rows.shape}"
            )
        if rows.shape[0] == 0:
            return
        self._queue.put(rows, timeout=timeout)

    def close(self) -> None:
        """Mark the stream finished; buffered rows still drain."""
        if not self._closed:
            self._closed = True
            self._queue.put(None)

    def _refill(self) -> bool:
        while True:
            try:
                block = self._queue.get_nowait()
            except queue.Empty:
                break
            if block is None:
                self._drained = True
                break
            self._push(block)
        return not self._drained


class CSVTailSource(BatchSource):
    """Poll a CSV file for rows appended since the last poll.

    The file's header row fixes the schema.  Each poll reads whatever
    bytes were appended since the previous poll and parses only the
    *complete* lines (a half-written trailing line is left for the
    next poll, so a concurrently appending writer is safe).

    The source survives log rotation: when a poll hits end-of-file it
    compares ``os.stat`` of the path against the open handle -- a
    changed inode/device means the file was replaced (rotation), a
    size below the read offset means it was rewritten in place
    (truncation).  Either way the source reopens the path, re-reads
    the header (which must match the original schema), and resyncs --
    the same poll then delivers the replacement file's first rows.
    The events are counted on :attr:`n_rotations` /
    :attr:`n_truncations` and surface in ``PipelineMetrics``.

    Parameters
    ----------
    path:
        The CSV file; must exist and contain at least a header row.
    follow:
        ``True`` (default) keeps the source alive at end-of-file
        (``poll`` returns empty batches while waiting for more data);
        ``False`` exhausts the source at the first poll that finds no
        new data -- batch-mode consumption of a static file.
    on_bad_row:
        ``"raise"`` (default) propagates a ``ValueError`` naming the
        file, byte offset, and offending text when a row is ragged or
        non-numeric; ``"skip"`` drops such rows and counts them on
        :attr:`n_bad_rows_skipped`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        follow: bool = True,
        on_bad_row: str = "raise",
    ) -> None:
        if on_bad_row not in BAD_ROW_POLICIES:
            raise ValueError(
                f"on_bad_row must be one of {BAD_ROW_POLICIES}, "
                f"got {on_bad_row!r}"
            )
        self._path = Path(path)
        self._follow = bool(follow)
        self._on_bad_row = on_bad_row
        self.n_rotations = 0
        self.n_truncations = 0
        self.n_bad_rows_skipped = 0
        self._handle = open(self._path, "rb")
        header = self._handle.readline()
        if not header.endswith(b"\n"):
            self._handle.close()
            raise ValueError(
                f"{self._path}: missing or incomplete CSV header row"
            )
        names = [cell.strip() for cell in header.decode("utf-8").split(",")]
        if not all(names):
            self._handle.close()
            raise ValueError(f"{self._path}: blank column name in header")
        super().__init__(TableSchema.from_names(names))
        self._partial = b""
        # Byte offset (in the *current* file) of the start of
        # ``_partial`` -- the anchor for per-row error context.
        self._consumed = self._handle.tell()
        self._exhausted = False

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def _parse(self, complete: bytes) -> np.ndarray:
        """Parse whole lines into an ``(n, n_cols)`` array.

        One ``np.loadtxt`` call gives the same bits as ``float()`` per
        cell.  A gulp it cannot take whole, or that holds a byte it
        would read differently (see
        :func:`~repro.io.matrix_reader._parse_numeric_csv`), is parsed
        by :meth:`_parse_complete`, so errors, byte offsets and skip
        counts are exactly the per-line parser's.
        """
        return _parse_numeric_csv(complete, self.n_cols, self._parse_complete)

    def _parse_complete(self, complete: bytes) -> np.ndarray:
        """Parse whole lines one by one under the bad-row policy.

        ``complete`` starts at byte ``self._consumed`` of the current
        file, which is how errors (and skips) name the exact spot.
        """
        rows: List[List[float]] = []
        index = 0
        while index < len(complete):
            line_start = self._consumed + index
            cut = complete.find(b"\n", index)
            if cut < 0:
                cut = len(complete)
            raw = complete[index:cut]
            index = cut + 1
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                if len(cells) != self.n_cols:
                    raise ValueError(
                        f"row has {len(cells)} cells, "
                        f"expected {self.n_cols}"
                    )
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                if self._on_bad_row == "skip":
                    self.n_bad_rows_skipped += 1
                    continue
                raise ValueError(
                    f"{self._path} @ byte {line_start}: {exc}: {line!r}"
                ) from None
        return np.asarray(rows, dtype=np.float64).reshape(-1, self.n_cols)

    def _reopen_if_replaced(self) -> bool:
        """At end-of-file, detect rotation/truncation and resync.

        Returns True when the handle now points at the replacement
        file (the caller should poll it immediately); False when the
        file is unchanged or the replacement is not ready yet (the
        old handle is kept and the next poll retries).
        """
        try:
            disk = os.stat(self._path)
        except FileNotFoundError:
            # Mid-swap window: the writer unlinked the old file but
            # has not moved the new one in yet.  Keep waiting.
            return False
        here = os.fstat(self._handle.fileno())
        rotated = (disk.st_ino, disk.st_dev) != (here.st_ino, here.st_dev)
        truncated = not rotated and disk.st_size < self._handle.tell()
        if not (rotated or truncated):
            return False
        replacement = open(self._path, "rb")
        header = replacement.readline()
        if not header.endswith(b"\n"):
            # Replacement header still being written: keep the old
            # handle this poll; the next poll re-detects the swap.
            replacement.close()
            return False
        names = [cell.strip() for cell in header.decode("utf-8").split(",")]
        if names != self.schema.names:
            replacement.close()
            raise ValueError(
                f"{self._path}: replacement file header {names!r} does "
                f"not match the original schema {self.schema.names!r}"
            )
        if rotated:
            # The rotated-away file is final: a trailing line without
            # a newline is now a complete row, not a partial write.
            # Parse it before any state moves, so a bad row raises
            # again on the next poll instead of being dropped.
            try:
                leftover = (
                    self._parse(self._partial) if self._partial.strip() else None
                )
            except BaseException:
                replacement.close()
                raise
            self.n_rotations += 1
            self._partial = b""
            if leftover is not None:
                self._push(leftover)
        else:
            self.n_truncations += 1
            # Truncated in place: the bytes the partial came from no
            # longer exist, so it cannot be trusted.
            self._partial = b""
        self._handle.close()
        self._handle = replacement
        self._consumed = replacement.tell()
        return True

    def _refill(self) -> bool:
        if self._exhausted:
            return False
        if self._buffered_rows > 0:
            # Drain what we have before reading more: keeps memory
            # bounded by one gulp no matter how the pipeline batches.
            return True
        # Two passes so the poll that *detects* a rotation still
        # delivers the replacement file's first rows.
        for _attempt in range(2):
            # Bounded gulp: a cold start on a huge file streams in
            # 8 MiB slices across polls instead of loading it whole.
            chunk = self._handle.read(8 << 20)
            if not chunk and self._reopen_if_replaced():
                continue
            data = self._partial + chunk
            cut = data.rfind(b"\n")
            if cut < 0:
                self._partial = data
                complete = b""
            else:
                complete = data[: cut + 1]
                self._partial = data[cut + 1 :]
            rows = self._parse(complete)
            self._consumed += len(complete)
            self._push(rows)
            break
        if self._buffered_rows == 0 and not self._follow:
            # Batch mode: a poll that found nothing new ends the stream.
            self._exhausted = True
            self.close()
            return False
        return True


class TransactionStreamSource(BatchSource):
    """Adapter over a :class:`~repro.datasets.streams.TransactionStream`.

    Exposes the declarative drifting-phases generator through the poll
    contract, so drift-detection tests and demos can feed the pipeline
    a workload whose regime changes are known in advance.  The source
    is exhausted when the stream's schedule ends.
    """

    def __init__(self, stream: TransactionStream) -> None:
        super().__init__(stream.schema())
        self._blocks = stream.blocks()
        self._done = False

    def _refill(self) -> bool:
        if self._done:
            return False
        if self._buffered_rows == 0:
            try:
                _phase, block = next(self._blocks)
            except StopIteration:
                self._done = True
                return False
            self._push(block)
        return True
