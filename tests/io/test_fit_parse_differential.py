"""Differential test: the fit reader's gulp parse, its ``.gz`` path and
its per-line parser accept the same cells.

``CSVReader`` and ``CSVChunkReader`` parse each gulp of complete lines
with one ``np.loadtxt`` call and re-parse a gulp it cannot take whole,
or one holding a byte numpy reads differently, with their per-line
``csv.reader`` parser.  A gzipped file never takes the gulp path.  The
reference below is the gulp reader with loadtxt switched off, so every
gulp goes to the per-line parser.  The same bytes, written plain and
gzipped and cut into gulps of random size, must give the same bits or
the same error (type and text, with the file name masked).
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.io import matrix_reader
from repro.io.matrix_reader import CSVChunkReader, CSVReader

from tests.pipeline.test_tail_parse_differential import N_COLS, streams

HEADER = b"a,b,c\n"
assert HEADER.count(b",") + 1 == N_COLS


def _per_line_only(data, width, slow_parse):
    """``_parse_numeric_csv`` with the loadtxt path switched off."""
    return slow_parse(data)


def _error(exc: Exception, path) -> tuple:
    if isinstance(exc, UnicodeDecodeError):
        # The offset is into whichever buffer was being decoded, which
        # differs between a gulp and a text-mode read; the byte and the
        # reason do not.
        bad = exc.object[exc.start : exc.end]
        return ("error", "UnicodeDecodeError", exc.reason, bad)
    text = str(exc).replace(str(path), "<path>")
    return ("error", type(exc).__name__, text)


def _scan(make_reader, path) -> tuple:
    try:
        reader = make_reader(path)
        blocks = list(reader.iter_blocks(7))
    except Exception as exc:  # the error itself is the outcome
        return _error(exc, path)
    rows = np.concatenate(blocks) if blocks else np.empty((0, N_COLS))
    return ("rows", rows.shape, rows.tobytes())


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=streams(), gulp_bytes=st.integers(1, 96))
@example(text=b"1,2,3\r4,5,6\n", gulp_bytes=96)  # a lone CR ends no row
@example(text=b"1,2,3\n  ", gulp_bytes=96)  # a last line of blanks
@example(text=b"1,2,3\x1c\n", gulp_bytes=96)
def test_plain_gz_and_per_line_fits_agree(tmp_path_factory, text, gulp_bytes):
    root = tmp_path_factory.mktemp("fit")
    plain = root / "data.csv"
    packed = root / "data.csv.gz"
    plain.write_bytes(HEADER + text)
    packed.write_bytes(gzip.compress(HEADER + text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_reader, "GULP_BYTES", gulp_bytes)
        fast = _scan(CSVReader, plain)
        unpacked = _scan(CSVReader, packed)
        patch.setattr(matrix_reader, "_parse_numeric_csv", _per_line_only)
        per_line = _scan(CSVReader, plain)
    assert fast == per_line
    assert unpacked == per_line


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=streams(),
    gulp_bytes=st.integers(1, 96),
    cut=st.floats(0.0, 1.0),
)
@example(text=b"1,2,3\r4,5,6\n", gulp_bytes=96, cut=0.0)
@example(text=b"  \n1,2,3\x1c\n", gulp_bytes=96, cut=0.0)
def test_chunk_reader_agrees_with_its_per_line_parser_and_gz(
    tmp_path_factory, text, gulp_bytes, cut
):
    """The scan engine reads a plain CSV through ``CSVChunkReader``
    (errors name a byte offset, not a line) and a ``.csv.gz`` through
    ``CSVReader``: same bits, and an error on one is an error on the
    other."""
    root = tmp_path_factory.mktemp("chunk")
    path = root / "data.csv"
    packed = root / "data.csv.gz"
    path.write_bytes(HEADER + text)
    packed.write_bytes(gzip.compress(HEADER + text))
    size = path.stat().st_size
    middle = len(HEADER) + int(cut * len(text))

    class TwoChunks:
        """Both chunks of a two-way split, scanned in order."""

        def __init__(self, p):
            self.readers = [
                CSVChunkReader(p, 0, middle),
                CSVChunkReader(p, middle, size),
            ]

        def iter_blocks(self, block_rows):
            for reader in self.readers:
                yield from reader.iter_blocks(block_rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_reader, "GULP_BYTES", gulp_bytes)
        fast = _scan(TwoChunks, path)
        unpacked = _scan(CSVReader, packed)
        patch.setattr(matrix_reader, "_parse_numeric_csv", _per_line_only)
        per_line = _scan(TwoChunks, path)
    assert fast == per_line
    if fast[0] == "rows" or unpacked[0] == "rows":
        assert fast == unpacked
    elif text.isascii():
        # Which of two errors comes first depends on how much text
        # each reader decodes at once, so only all-ASCII text pins it.
        assert fast[1] == unpacked[1]


def test_found_separator_and_nbsp_cells_fail_alike(tmp_path):
    """A 5,002-row file ending in ``3\\x1c,4`` and ``5\\xa0,6``: the gulp
    parse read them as [3, 4] and [5, 6] while the ``.gz`` path raised;
    now every path raises on the same byte."""
    rows = b"".join(b"%d,%d,%d\n" % (i, i + 1, i + 2) for i in range(5_000))
    outcomes = {}
    for name, tail in (("fs", b"3\x1c,4,0\n"), ("nbsp", b"5\xa0,6,0\n")):
        plain = tmp_path / f"{name}.csv"
        packed = tmp_path / f"{name}.csv.gz"
        plain.write_bytes(HEADER + rows + tail)
        packed.write_bytes(gzip.compress(HEADER + rows + tail))
        outcomes[name] = (_scan(CSVReader, plain), _scan(CSVReader, packed))
    plain_fs, packed_fs = outcomes["fs"]
    assert plain_fs[:2] == ("error", "CSVFormatError")
    assert plain_fs == packed_fs
    plain_nbsp, packed_nbsp = outcomes["nbsp"]
    assert plain_nbsp == ("error", "UnicodeDecodeError", "invalid start byte", b"\xa0")
    assert plain_nbsp == packed_nbsp


def test_clean_numeric_gulp_takes_the_loadtxt_path(tmp_path, monkeypatch):
    """The guard costs a scan, not a fallback: plain numeric text never
    reaches the per-line parser."""
    path = tmp_path / "data.csv"
    matrix = np.random.default_rng(5).normal(size=(300, N_COLS)) * 1e3
    lines = (b",".join(repr(float(v)).encode() for v in row) for row in matrix)
    path.write_bytes(HEADER + b"".join(line + b"\n" for line in lines))

    def no_per_line(self, data, first_line):
        raise AssertionError("fell back to the per-line parser")

    monkeypatch.setattr(CSVReader, "_parse_lines", no_per_line)
    blocks = list(CSVReader(path).iter_blocks(64))
    assert np.concatenate(blocks).tobytes() == matrix.tobytes()
