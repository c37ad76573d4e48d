"""Differential test: the ``np.loadtxt`` tail parse against the per-line loop.

``CSVTailSource`` parses each gulp of complete lines with one
``np.loadtxt`` call and re-parses a gulp it cannot take whole with the
per-line loop.  The reference below keeps that loop as the only parser.
Both sources tail the same file through the same appends, polls and
rotation, and must agree on every polled bit, every error (type and
text, byte offset included) and every skip count, under both bad-row
policies.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline import CSVTailSource

pytestmark = pytest.mark.pipeline

N_COLS = 3
HEADER = b"a,b,c\n"


class LoopTailSource(CSVTailSource):
    """``CSVTailSource`` with the per-line loop as its only parser."""

    def _parse(self, complete: bytes) -> np.ndarray:
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
                        f"row has {len(cells)} cells, expected {self.n_cols}"
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


def _number(value: float, style: int) -> bytes:
    value = float(value)
    text = (repr(value), f"{value:.4f}", f"{value:e}", f"{value:.17g}")[style]
    return text.encode("ascii")


#: Cells both ``float()`` and numpy read, beyond formatted floats.
SPECIAL_CELLS = b"nan -nan NaN inf -Infinity 1e400 -1e-400 +.5 5. 0 -0 007".split()
#: Cells ``float()`` and numpy disagree on, or both reject.
ODD_CELLS = [
    b"",
    b"1_0",
    "\u0661".encode(),
    b'"1"',
    b"0x10",
    b"1e",
    b"--1",
    b"abc",
    b"1 2",
    b"nan(1)",
    b"1\xa0",
    b"\xa01",
    b"1\x85",
    b"1\x1c",
    b"\x1f2",
    b"1\x00",
    b"\xff",
    b"#3",
    b"1;2",
    b"1\r2",
    b"1.0j",
]
BLANK_LINES = [b"", b"  ", b"\r", b"\t", b"\x0b", b"\x1c"]
PADS = [b"", b"", b"", b" ", b"\t", b"\x0b", b"\x0c", b"  "]
ENDINGS = [b"\n", b"\n", b"\n", b"\r\n"]

good_cells = st.one_of(
    st.builds(_number, st.floats(width=64), st.integers(0, 3)),
    st.sampled_from(SPECIAL_CELLS),
)


@st.composite
def lines(draw) -> bytes:
    """A blank line, or cells joined by commas: mostly good, sometimes
    odd, padded with whitespace, sometimes ragged."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(BLANK_LINES))
    width = N_COLS if kind > 2 else draw(st.integers(1, N_COLS + 2))
    cells = []
    for _ in range(width):
        odd = draw(st.integers(0, 15)) == 0
        cell = draw(st.sampled_from(ODD_CELLS) if odd else good_cells)
        pads = st.sampled_from(PADS)
        cells.append(draw(pads) + cell + draw(pads))
    return b",".join(cells)


@st.composite
def streams(draw) -> bytes:
    body = draw(st.lists(lines(), max_size=25))
    text = b"".join(line + draw(st.sampled_from(ENDINGS)) for line in body)
    if draw(st.booleans()):
        text += draw(lines())  # a half-written last line
    return text


def _outcome(source, max_rows):
    """Poll until idle: each poll's rows or error, and the skip count.

    Error text names the file; it is compared with the name masked.
    """
    seen = []
    for _ in range(50):
        try:
            rows = source.poll(max_rows)
        except ValueError as exc:
            text = str(exc).replace(str(source._path), "<path>")
            seen.append(("error", type(exc).__name__, text, source.n_bad_rows_skipped))
            continue
        seen.append(("rows", rows.shape, rows.tobytes(), source.n_bad_rows_skipped))
        if rows.shape[0] == 0:
            break
    return seen


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=streams(),
    cuts=st.lists(st.integers(0, 10_000), max_size=4),
    max_rows=st.integers(1, 40),
    policy=st.sampled_from(["raise", "skip"]),
    rotate=st.booleans(),
    replacement=streams(),
)
def test_loadtxt_parse_matches_the_per_line_loop(
    tmp_path_factory, text, cuts, max_rows, policy, rotate, replacement
):
    root = tmp_path_factory.mktemp("tail")
    fast_path, loop_path = root / "fast.csv", root / "loop.csv"
    for path in (fast_path, loop_path):
        path.write_bytes(HEADER)
    fast = CSVTailSource(fast_path, on_bad_row=policy)
    loop = LoopTailSource(loop_path, on_bad_row=policy)
    # Gulp splits: the stream arrives in pieces, polled after each.
    bounds = sorted({min(cut, len(text)) for cut in cuts} | {len(text)})
    start = 0
    try:
        for stop in bounds:
            for path in (fast_path, loop_path):
                with open(path, "ab") as handle:
                    handle.write(text[start:stop])
            start = stop
            assert _outcome(fast, max_rows) == _outcome(loop, max_rows)
        if rotate:
            # Rotation parses the old file's unterminated tail too.
            for path in (fast_path, loop_path):
                fresh = path.with_suffix(".new")
                fresh.write_bytes(HEADER + replacement)
                os.replace(fresh, path)
            assert _outcome(fast, max_rows) == _outcome(loop, max_rows)
            assert fast.n_rotations == loop.n_rotations
    finally:
        fast.close()
        loop.close()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_clean_numeric_gulp_takes_the_loadtxt_path(tmp_path, monkeypatch, newline):
    """A plain numeric gulp, LF or CRLF, never reaches the per-line parser."""
    path = tmp_path / "feed.csv"
    rows = np.random.default_rng(7).normal(size=(50, N_COLS)) * 1e3
    path.write_bytes(
        HEADER
        + b"".join(b",".join(_number(v, 0) for v in row) + newline for row in rows)
    )
    source = CSVTailSource(path)

    def no_loop(complete):
        raise AssertionError("fell back to the per-line parser")

    monkeypatch.setattr(source, "_parse_complete", no_loop)
    got = source.poll(100)
    source.close()
    assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "line",
    [
        b"1\xa0,2,3",
        b"1,2\x1c,3",
        b"1\x85,2,3",
        b'"1",2,3',
        b"1,2\r3,4,5",
        b"1,2,3\r4,5,6",
    ],
)
def test_bytes_numpy_would_accept_stay_bad_rows(tmp_path, monkeypatch, line):
    """numpy strips ``\\xa0``, ``\\x85`` and ``\\x1c`` as whitespace,
    unquotes ``"1"`` and may end a row at a lone ``\\r``; the per-line
    parser rejects these rows, and such a gulp never reaches loadtxt."""
    path = tmp_path / "feed.csv"
    path.write_bytes(HEADER + line + b"\n")
    source = CSVTailSource(path, on_bad_row="skip")

    def no_loadtxt(*args):
        raise AssertionError("took the loadtxt path")

    monkeypatch.setattr("repro.pipeline.sources._parse_numeric_csv", no_loadtxt)
    try:
        if line.isascii():
            assert source.poll(10).shape == (0, N_COLS)
            assert source.n_bad_rows_skipped == 1
        else:
            with pytest.raises(UnicodeDecodeError):
                source.poll(10)
    finally:
        source.close()
