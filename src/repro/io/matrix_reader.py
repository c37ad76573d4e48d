"""Uniform streaming access to data matrices.

The single-pass covariance builder (:mod:`repro.core.covariance`) does
not care where rows come from; it consumes any
:class:`MatrixReader` -- an object that can be scanned front to back in
row blocks.  Three sources are provided:

- :class:`ArrayReader` for in-memory numpy arrays (zero-copy views);
- :class:`RowStoreReader` for the binary on-disk format;
- :class:`CSVReader` for delimited text files.

Two *chunk* readers support the out-of-core parallel scan engine
(:mod:`repro.core.engine`), which shards a single file into
independently scannable ranges:

- :class:`RowStoreChunkReader` scans a half-open row range of a row
  store (rows are fixed-width, so the reader seeks straight to the
  first byte);
- :class:`CSVChunkReader` scans the lines whose first byte falls in a
  half-open byte range, aligning itself to the next line boundary, so
  adjacent chunks partition the file exactly.

Every reader counts its scans in :attr:`MatrixReader.passes_completed`,
which lets the test suite *assert* the paper's single-pass claim
instead of taking it on faith.  Readers are context managers; those
opened from a file path by convenience wrappers should be closed (or
used via ``with``) so a thousand-shard fit never holds a thousand open
handles -- the bundled readers open their file per scan and release it
when the scan ends, making ``close()`` cheap to call unconditionally.
"""

from __future__ import annotations

import abc
import csv
import gzip
import io
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.io.csv_format import CSVFormatError, open_text
from repro.io.rowstore import RowStore
from repro.io.schema import TableSchema

__all__ = [
    "MatrixReader",
    "ArrayReader",
    "RowStoreReader",
    "CSVReader",
    "RowStoreChunkReader",
    "CSVChunkReader",
    "csv_layout",
    "open_matrix",
]

DEFAULT_BLOCK_ROWS = 4096

#: Bytes per read on the gulp-parsing CSV fast path.  Large enough to
#: amortize the per-call numpy tokenizer setup, small enough that a
#: scan's working set stays cache/RAM friendly.
GULP_BYTES = 8 << 20


def _line_gulps(handle, stop: Optional[int]) -> Iterator[bytes]:
    """Yield ``handle``'s remaining bytes as complete-line gulps.

    Each yielded slice ends on a line boundary (a torn trailing line is
    carried into the next gulp), so every gulp can be parsed
    independently.  With ``stop`` set, reading halts at the first line
    boundary at or past ``stop``; the line *crossing* ``stop`` is
    finished via ``readline`` because the chunk that owns a line's
    first byte owns the whole line.  Concatenating the yielded gulps
    reproduces the consumed byte range exactly.
    """
    carry = b""
    position = handle.tell()
    while stop is None or position < stop:
        limit = GULP_BYTES if stop is None else min(GULP_BYTES, stop - position)
        gulp = handle.read(limit)
        if not gulp:
            break
        position += len(gulp)
        data = carry + gulp
        cut = data.rfind(b"\n")
        if cut < 0:
            carry = data
            continue
        carry = data[cut + 1 :]
        yield data[: cut + 1]
    if stop is not None and carry:
        carry += handle.readline()
    if carry:
        yield carry


#: Bytes that send a gulp to the per-line parser although they are
#: ASCII: numpy strips ``\x1c``-``\x1f`` as whitespace where ``float()``
#: does not, and unquotes ``"1"``.
_SLOW_PARSE_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_numeric_csv(data: bytes, width: int, slow_parse) -> np.ndarray:
    """Parse a gulp of numeric CSV lines into an ``(n, width)`` array.

    numpy's C tokenizer converts decimal text to the same float64 bits
    as Python's ``float()`` and runs about an order of magnitude faster
    than a ``csv.reader`` loop.  Anything it cannot digest -- ragged
    rows, stray text, exotic quoting -- is re-parsed by ``slow_parse``
    (the caller's per-line parser), so malformed input produces
    exactly the error message and semantics it always did.

    Some gulps numpy would take are sent to ``slow_parse`` unread,
    because numpy would accept cells the per-line parsers do not: a
    non-ASCII byte (numpy decodes latin-1 and strips ``\\xa0`` and
    ``\\x85`` as whitespace, where UTF-8 decoding fails), one of
    :data:`_SLOW_PARSE_BYTES`, or a ``\\r`` outside a ``\\r\\n`` (the
    per-line parsers do not end a row there, a universal-newline
    tokenizer may).  The fit reader, its ``.gz`` path and the tail
    source therefore accept the same cells.
    """
    if not data.strip(b"\r\n"):
        # Only line ends: blank lines to every per-line parser.  Other
        # whitespace is not blank to ``csv.reader``, so it goes on.
        return np.empty((0, width), dtype=np.float64)
    if (
        not data.isascii()
        or any(odd in data for odd in _SLOW_PARSE_BYTES)
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return slow_parse(data)
    try:
        parsed = np.loadtxt(
            io.BytesIO(data),
            delimiter=",",
            comments=None,
            quotechar='"',
            dtype=np.float64,
            ndmin=2,
        )
    except Exception:
        return slow_parse(data)
    if parsed.shape[0] == 0 or parsed.shape[1] != width:
        return slow_parse(data)
    return parsed


class _BlockBuffer:
    """Re-slice an irregular stream of row arrays into exact blocks.

    Gulp parsing produces whatever number of rows an ~8 MiB slice of
    file happens to contain, while scan consumers are promised blocks
    of exactly ``block_rows`` rows (except the last).  Whole arrays are
    buffered and sliced on emit, so re-blocking a gulp that spans many
    blocks costs views, not copies.
    """

    def __init__(self, block_rows: int) -> None:
        self._block_rows = block_rows
        self._parts: List[np.ndarray] = []
        self._rows = 0

    def push(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """Absorb ``rows``; yield every full block now available."""
        if rows.shape[0]:
            self._parts.append(rows)
            self._rows += rows.shape[0]
        while self._rows >= self._block_rows:
            yield self._pop(self._block_rows)

    def drain(self) -> Optional[np.ndarray]:
        """The final short block, or ``None`` when nothing is left."""
        if self._rows == 0:
            return None
        return self._pop(self._rows)

    def _pop(self, take: int) -> np.ndarray:
        pieces: List[np.ndarray] = []
        remaining = take
        while remaining:
            head = self._parts[0]
            if head.shape[0] <= remaining:
                pieces.append(head)
                self._parts.pop(0)
                remaining -= head.shape[0]
            else:
                pieces.append(head[:remaining])
                self._parts[0] = head[remaining:]
                remaining = 0
        self._rows -= take
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, axis=0)


class MatrixReader(abc.ABC):
    """A matrix that can be scanned sequentially in row blocks."""

    def __init__(self) -> None:
        self._passes_completed = 0

    @property
    @abc.abstractmethod
    def n_cols(self) -> int:
        """Number of columns ``M``."""

    @property
    @abc.abstractmethod
    def schema(self) -> TableSchema:
        """Column metadata."""

    @abc.abstractmethod
    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        """Yield row blocks front to back (one full scan)."""

    def iter_blocks(self, block_rows: int = DEFAULT_BLOCK_ROWS) -> Iterator[np.ndarray]:
        """Scan the matrix once, yielding ``<= block_rows``-row blocks.

        Increments :attr:`passes_completed` when the scan finishes.
        """
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        for block in self._iter_blocks(block_rows):
            yield block
        self._passes_completed += 1

    @property
    def passes_completed(self) -> int:
        """Number of complete scans performed so far."""
        return self._passes_completed

    def close(self) -> None:
        """Release any resources held between scans.

        The bundled readers hold no handles between scans (each scan
        opens and closes its own), so the base implementation is a
        no-op; subclasses that cache handles override it.  Provided so
        scan drivers can close every reader they opened without caring
        which kind it is.
        """

    def __enter__(self) -> "MatrixReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def read_matrix(self) -> np.ndarray:
        """Materialize the whole matrix (counts as one pass)."""
        blocks = list(self.iter_blocks())
        if not blocks:
            return np.empty((0, self.n_cols))
        return np.vstack(blocks)


class ArrayReader(MatrixReader):
    """Streaming facade over an in-memory ``N x M`` array."""

    def __init__(
        self, matrix: np.ndarray, schema: Optional[TableSchema] = None
    ) -> None:
        super().__init__()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
        if matrix.shape[1] < 1:
            raise ValueError("matrix must have at least one column")
        self._matrix = matrix
        self._schema = (
            schema if schema is not None else TableSchema.generic(matrix.shape[1])
        )
        if self._schema.width != matrix.shape[1]:
            raise ValueError(
                f"schema width {self._schema.width} != matrix width {matrix.shape[1]}"
            )

    @property
    def n_cols(self) -> int:
        return self._matrix.shape[1]

    @property
    def n_rows(self) -> int:
        """Number of rows (known up front for in-memory data)."""
        return self._matrix.shape[0]

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        for start in range(0, self._matrix.shape[0], block_rows):
            yield self._matrix[start : start + block_rows]


def _rowstore_blocks(
    path: Path, block_rows: int, row_start: int, row_stop: Optional[int]
) -> Iterator[np.ndarray]:
    """Yield a row-store's ``[row_start, row_stop)`` rows in blocks.

    Memory-maps the data section and yields zero-copy views: no bytes
    are staged through read buffers and no parsing happens at all --
    the accumulator's BLAS call pulls pages straight from the page
    cache.  Filesystems that cannot mmap fall back to the buffered
    ``iter_blocks`` read path.
    """
    store = RowStore.open(path)
    matrix: Optional[np.ndarray] = None
    try:
        try:
            matrix = store.memmap_matrix()
        except OSError:
            matrix = None
        if matrix is None:
            for block in store.iter_blocks(
                block_rows, row_start=row_start, row_stop=row_stop
            ):
                yield block
            return
    finally:
        if matrix is None:
            store.close()
    store.close()  # the mapping holds its own file reference
    stop = matrix.shape[0] if row_stop is None else row_stop
    for start in range(row_start, stop, block_rows):
        yield matrix[start : min(start + block_rows, stop)]


class RowStoreReader(MatrixReader):
    """Streaming reader over a binary row-store file."""

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self._path = Path(path)
        store = RowStore.open(self._path)
        try:
            self._schema = store.schema
            self._n_cols = store.n_cols
            self._n_rows = store.n_rows
        finally:
            store.close()

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def n_rows(self) -> int:
        """Row count recorded in the file header."""
        return self._n_rows

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        yield from _rowstore_blocks(self._path, block_rows, 0, None)


class CSVReader(MatrixReader):
    """Streaming reader over a header-row CSV file.

    Rows are parsed lazily, so arbitrarily long files are scanned in
    O(block_rows * M) memory.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self._path = Path(path)
        with open_text(self._path) as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CSVFormatError(f"{self._path}: empty file") from None
        if not header or any(not name.strip() for name in header):
            raise CSVFormatError(f"{self._path}: blank column name in header row")
        self._schema = TableSchema.from_names(name.strip() for name in header)

    @property
    def n_cols(self) -> int:
        return self._schema.width

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        if self._path.suffix.lower() == ".gz":
            # Gzipped files are not worth gulp-buffering twice; the
            # decompressor already streams, so keep the line parser.
            yield from self._iter_text_blocks(block_rows)
            return
        width = self._schema.width
        blocks = _BlockBuffer(block_rows)
        with open(self._path, "rb") as handle:
            handle.readline()  # header (validated in __init__)
            first_line = 2
            for data in _line_gulps(handle, None):
                rows = _parse_numeric_csv(
                    data,
                    width,
                    lambda d, start=first_line: self._parse_lines(d, start),
                )
                first_line += data.count(b"\n") + (
                    0 if data.endswith(b"\n") else 1
                )
                yield from blocks.push(rows)
        tail = blocks.drain()
        if tail is not None:
            yield tail

    def _parse_lines(self, data: bytes, first_line: int) -> np.ndarray:
        """Per-line fallback parser; preserves historical error text."""
        width = self._schema.width
        buffer = []
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        for line_number, record in enumerate(reader, start=first_line):
            if not record:
                continue
            if len(record) != width:
                raise CSVFormatError(
                    f"{self._path}:{line_number}: expected {width} cells, "
                    f"got {len(record)}"
                )
            try:
                buffer.append([float(cell) for cell in record])
            except ValueError as exc:
                raise CSVFormatError(f"{self._path}:{line_number}: {exc}") from exc
        if not buffer:
            return np.empty((0, width), dtype=np.float64)
        return np.asarray(buffer, dtype=np.float64)

    def _iter_text_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        width = self._schema.width
        buffer = []
        # Lines end at "\n" only, as in the gulp path's per-line parser,
        # so a lone "\r" is the same error with or without gzip.
        with gzip.open(self._path, "rt", newline="\n") as handle:
            reader = csv.reader(handle)
            next(reader)  # header
            for line_number, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != width:
                    raise CSVFormatError(
                        f"{self._path}:{line_number}: expected {width} cells, "
                        f"got {len(record)}"
                    )
                try:
                    buffer.append([float(cell) for cell in record])
                except ValueError as exc:
                    raise CSVFormatError(f"{self._path}:{line_number}: {exc}") from exc
                if len(buffer) == block_rows:
                    yield np.asarray(buffer, dtype=np.float64)
                    buffer = []
        if buffer:
            yield np.asarray(buffer, dtype=np.float64)


def csv_layout(path: Union[str, Path]):
    """Probe an uncompressed header-row CSV: ``(schema, data_offset, size)``.

    ``data_offset`` is the byte offset of the first data row (just past
    the header line), ``size`` the file length -- the two endpoints the
    chunk planner splits between.  Gzipped CSVs are not byte-seekable
    and are rejected here; scan them as a single chunk instead.
    """
    path = Path(path)
    if path.suffix.lower() == ".gz":
        raise ValueError(f"{path}: gzipped CSV is not byte-range seekable")
    size = path.stat().st_size
    with open(path, "rb") as handle:
        header_line = handle.readline()
        data_offset = handle.tell()
    if not header_line.strip():
        raise CSVFormatError(f"{path}: empty file")
    header = next(csv.reader([header_line.decode("utf-8").rstrip("\r\n")]))
    if not header or any(not name.strip() for name in header):
        raise CSVFormatError(f"{path}: blank column name in header row")
    schema = TableSchema.from_names(name.strip() for name in header)
    return schema, data_offset, size


class CSVChunkReader(MatrixReader):
    """Scan the CSV rows whose line start falls in ``[start, stop)``.

    Adjacent chunks partition the file exactly: a line beginning at
    byte ``b`` belongs to the chunk with ``start <= b < stop``, and a
    line that *crosses* ``stop`` is read to completion by the chunk
    that owns its first byte.  A reader whose ``start`` lands mid-line
    skips forward to the next line boundary (that partial line belongs
    to the neighbour on the left).
    """

    def __init__(
        self,
        path: Union[str, Path],
        start: int,
        stop: int,
        schema: Optional[TableSchema] = None,
    ) -> None:
        super().__init__()
        self._path = Path(path)
        if schema is None:
            schema, data_offset, size = csv_layout(self._path)
        else:
            _, data_offset, size = csv_layout(self._path)
        self._schema = schema
        self._data_offset = data_offset
        # Never let a chunk start inside the header line.
        self._start = max(int(start), data_offset)
        self._stop = min(int(stop), size)

    @property
    def n_cols(self) -> int:
        return self._schema.width

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def byte_range(self):
        """The half-open ``(start, stop)`` byte range owned."""
        return self._start, self._stop

    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        width = self._schema.width
        blocks = _BlockBuffer(block_rows)
        with open(self._path, "rb") as handle:
            position = self._start
            handle.seek(position)
            if position > self._data_offset:
                # Align to the next line start unless already on one.
                handle.seek(position - 1)
                if handle.read(1) != b"\n":
                    handle.readline()
            base = handle.tell()
            for data in _line_gulps(handle, self._stop):
                rows = _parse_numeric_csv(
                    data,
                    width,
                    lambda d, start=base: self._parse_lines(d, start),
                )
                base += len(data)
                yield from blocks.push(rows)
        tail = blocks.drain()
        if tail is not None:
            yield tail

    def _parse_lines(self, data: bytes, base: int) -> np.ndarray:
        """Per-line fallback parser; preserves historical error text."""
        width = self._schema.width
        buffer = []
        offset = base
        index = 0
        while index < len(data):
            newline = data.find(b"\n", index)
            end = len(data) if newline < 0 else newline + 1
            raw = data[index:end]
            line_start = offset
            offset += len(raw)
            index = end
            record = next(csv.reader([raw.decode("utf-8")]), [])
            if not record:
                continue
            if len(record) != width:
                raise CSVFormatError(
                    f"{self._path} @ byte {line_start}: expected {width} "
                    f"cells, got {len(record)}"
                )
            try:
                buffer.append([float(cell) for cell in record])
            except ValueError as exc:
                raise CSVFormatError(
                    f"{self._path} @ byte {line_start}: {exc}"
                ) from exc
        if not buffer:
            return np.empty((0, width), dtype=np.float64)
        return np.asarray(buffer, dtype=np.float64)


class RowStoreChunkReader(MatrixReader):
    """Scan the half-open row range ``[row_start, row_stop)`` of a store.

    Rows are fixed-width on disk, so the scan seeks straight to the
    first byte of ``row_start`` -- no leading rows are read or parsed.
    """

    def __init__(
        self,
        path: Union[str, Path],
        row_start: int = 0,
        row_stop: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._path = Path(path)
        store = RowStore.open(self._path)
        try:
            self._schema = store.schema
            self._n_cols = store.n_cols
            total = store.n_rows
        finally:
            store.close()
        if row_stop is None:
            row_stop = total
        if not 0 <= row_start <= total:
            raise ValueError(f"row_start {row_start} outside [0, {total}]")
        if not row_start <= row_stop <= total:
            raise ValueError(f"row_stop {row_stop} outside [{row_start}, {total}]")
        self._row_start = int(row_start)
        self._row_stop = int(row_stop)

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def n_rows(self) -> int:
        """Rows in the owned range."""
        return self._row_stop - self._row_start

    @property
    def row_range(self):
        """The half-open ``(row_start, row_stop)`` range owned."""
        return self._row_start, self._row_stop

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def _iter_blocks(self, block_rows: int) -> Iterator[np.ndarray]:
        yield from _rowstore_blocks(
            self._path, block_rows, self._row_start, self._row_stop
        )


def open_matrix(source, schema: Optional[TableSchema] = None) -> MatrixReader:
    """Build the right :class:`MatrixReader` for ``source``.

    Parameters
    ----------
    source:
        An in-memory array (or anything array-like), an existing
        :class:`MatrixReader` (returned unchanged), or a path to a
        ``.csv`` or row-store file (dispatched on suffix: ``.csv`` ->
        :class:`CSVReader`, anything else -> :class:`RowStoreReader`).
    schema:
        Only honored for array sources; file formats carry their own.
    """
    if isinstance(source, MatrixReader):
        return source
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            from repro.io.partitioned import PartitionedReader

            return PartitionedReader(path)
        suffixes = [s.lower() for s in path.suffixes]
        if ".csv" in suffixes:
            return CSVReader(path)
        if path.suffix.lower() == ".npz":
            from repro.io.npz_format import load_npz_matrix

            matrix, npz_schema = load_npz_matrix(path)
            return ArrayReader(matrix, npz_schema)
        return RowStoreReader(path)
    return ArrayReader(np.asarray(source), schema)
