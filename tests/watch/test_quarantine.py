"""Append-only quarantine: sequencing, durability, bit-exactness."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.watch import RowQuarantine

pytestmark = pytest.mark.watch


def _quarantine(tmp_path, name="q.jsonl"):
    return RowQuarantine(tmp_path / name, clock=lambda: 99.0)


class TestAppend:
    def test_records_carry_provenance(self, tmp_path):
        quarantine = _quarantine(tmp_path)
        record = quarantine.append(
            np.array([1.5, -2.25]),
            residual=3.5,
            z_score=12.0,
            reason="z=12.00 > quarantine_sigmas=8",
            model_version=4,
        )
        assert record["seq"] == 0
        assert record["unix_time"] == 99.0
        assert record["model_version"] == 4
        assert record["residual"] == 3.5
        assert record["z_score"] == 12.0
        assert record["values"] == [1.5, -2.25]
        assert quarantine.n_quarantined == 1
        assert quarantine.total_bytes > 0

    def test_sequence_increments_and_read_all_orders(self, tmp_path):
        quarantine = _quarantine(tmp_path)
        for i in range(5):
            quarantine.append(
                np.array([float(i)]),
                residual=0.0,
                z_score=0.0,
                reason="r",
                model_version=1,
            )
        records = quarantine.read_all()
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]
        assert [r["values"][0] for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_reopen_continues_the_sequence(self, tmp_path):
        first = _quarantine(tmp_path)
        first.append(
            np.array([1.0]), residual=0.0, z_score=0.0, reason="r",
            model_version=1,
        )
        reopened = _quarantine(tmp_path)
        assert reopened.n_quarantined == 1
        record = reopened.append(
            np.array([2.0]), residual=0.0, z_score=0.0, reason="r",
            model_version=1,
        )
        assert record["seq"] == 1
        assert len(reopened.read_all()) == 2

    def test_file_is_plain_jsonl(self, tmp_path):
        quarantine = _quarantine(tmp_path)
        quarantine.append(
            np.array([1.0]), residual=0.0, z_score=0.0, reason="r",
            model_version=1,
        )
        lines = (tmp_path / "q.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["seq"] == 0

    def test_missing_file_reads_empty(self, tmp_path):
        quarantine = _quarantine(tmp_path, name="never-written.jsonl")
        assert quarantine.read_all() == []
        assert quarantine.n_quarantined == 0
        assert quarantine.total_bytes == 0


class TestDamagedFile:
    """Reads stream the file line by line and keep the counting rules:
    blank lines are skipped and a torn last line still counts."""

    @staticmethod
    def _records(n):
        return [
            json.dumps({"seq": i, "values_hex": [float(i).hex()]}, sort_keys=True)
            for i in range(n)
        ]

    def test_blank_lines_and_unterminated_last_record(self, tmp_path):
        lines = self._records(3)
        # A blank line, a whitespace-only line, and a last record whose
        # newline never made it to disk.
        text = f"{lines[0]}\n\n{lines[1]}\n   \n{lines[2]}"
        (tmp_path / "q.jsonl").write_text(text)
        quarantine = _quarantine(tmp_path)
        assert quarantine.n_quarantined == 3
        assert quarantine.read_all() == [json.loads(line) for line in lines]
        assert [r["seq"] for r in quarantine.read_all()] == [0, 1, 2]

    def test_torn_last_record_counts_but_does_not_parse(self, tmp_path):
        lines = self._records(2)
        torn = lines[1][: len(lines[1]) // 2]
        (tmp_path / "q.jsonl").write_text(f"{lines[0]}\n\n{torn}")
        quarantine = _quarantine(tmp_path)
        assert quarantine.n_quarantined == 2
        with pytest.raises(json.JSONDecodeError):
            quarantine.read_all()

    def test_append_after_a_torn_line_lands_on_its_own_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        _quarantine(tmp_path).append(
            np.array([1.0]), residual=0.0, z_score=0.0, reason="r",
            model_version=1,
        )
        # A crash mid-append: half a record and no newline.
        torn = self._records(2)[1]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn[: len(torn) // 2])
        reopened = _quarantine(tmp_path)
        assert reopened.n_quarantined == 2
        values = np.array([0.1, -0.0, 5e-324, -1.7976931348623157e308])
        record = reopened.append(
            values, residual=1.0, z_score=9.0, reason="r", model_version=1
        )
        assert record["seq"] == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        # The torn fragment keeps its own line; the new record is whole.
        assert len(lines) == 3
        assert lines[1] == torn[: len(torn) // 2]
        last = json.loads(lines[2])
        assert last == record
        assert RowQuarantine.decode_values(last).tobytes() == values.tobytes()


class TestBitExactness:
    @given(
        st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                width=64,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_hex_round_trip_is_bit_exact(self, values):
        """Property: any finite float64 row survives JSON bit-for-bit."""
        row = np.array(values, dtype=np.float64)
        record = json.loads(
            json.dumps(
                {"values_hex": [float(v).hex() for v in row]}, sort_keys=True
            )
        )
        decoded = RowQuarantine.decode_values(record)
        assert decoded.dtype == np.float64
        for original, recovered in zip(row, decoded):
            # Bit-pattern equality, not just numeric closeness: -0.0
            # and subnormals must survive too.
            assert math.copysign(1.0, original) == math.copysign(
                1.0, recovered
            )
            assert np.float64(original).tobytes() == np.float64(
                recovered
            ).tobytes()

    def test_adversarial_values_through_the_file(self, tmp_path):
        row = np.array(
            [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1e-200],
            dtype=np.float64,
        )
        quarantine = _quarantine(tmp_path)
        quarantine.append(
            row, residual=0.0, z_score=0.0, reason="r", model_version=1
        )
        record = RowQuarantine(tmp_path / "q.jsonl").read_all()[0]
        decoded = RowQuarantine.decode_values(record)
        assert decoded.tobytes() == row.tobytes()


class LoopQuarantine(RowQuarantine):
    """The quarantine as it was: one open, write and flush per row."""

    def append(self, row, *, residual, z_score, reason, model_version):
        values = np.asarray(row, dtype=np.float64).ravel()
        record = {
            "seq": self._seq,
            "unix_time": float(self._clock()),
            "reason": reason,
            "model_version": int(model_version),
            "residual": float(residual),
            "z_score": float(z_score),
            "values": [float(v) for v in values],
            "values_hex": [float(v).hex() for v in values],
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._mid_line:
            line = "\n" + line
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        self._mid_line = False
        self._seq += 1
        return record


class Ticker:
    """A clock that reads 0.5, 1.5, 2.5, ...: every call shows."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.calls - 0.5


#: What a file may hold before the first batch: nothing, whole records,
#: or whole records and a torn last line.
PREFIXES = [
    None,
    "",
    '{"seq": 0}\n',
    '{"seq": 0}\n{"seq": 1, "val',
]

CELLS = st.floats(width=64) | st.sampled_from([-0.0, 5e-324, math.inf])


@st.composite
def quarantine_batches(draw):
    """Rows of one width, cut into batches that may be empty."""
    width = draw(st.integers(1, 4))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n_rows = draw(st.integers(0, 3))
        rows = [draw(st.lists(CELLS, min_size=width, max_size=width))
                for _ in range(n_rows)]
        batches.append(np.array(rows, dtype=np.float64).reshape(n_rows, width))
    return batches


class TestExtend:
    """``extend`` writes the bytes of one ``append`` per row, with one write."""

    @staticmethod
    def _run(path, prefix, batches, *, batched, reopen_after=None):
        if prefix is not None:
            path.write_text(prefix, encoding="utf-8")
        clock = Ticker()
        quarantine = (RowQuarantine if batched else LoopQuarantine)(path, clock=clock)
        records = []
        for index, rows in enumerate(batches):
            n_rows = rows.shape[0]
            kwargs = dict(
                residuals=[float(i) + 0.25 for i in range(n_rows)],
                z_scores=[float("nan")] * n_rows,
                reasons=[f"r{index}-{i}" for i in range(n_rows)],
                model_version=index + 1,
            )
            if batched:
                records += quarantine.extend(rows, **kwargs)
            else:
                for i, row in enumerate(rows):
                    records.append(
                        quarantine.append(
                            row,
                            residual=kwargs["residuals"][i],
                            z_score=kwargs["z_scores"][i],
                            reason=kwargs["reasons"][i],
                            model_version=kwargs["model_version"],
                        )
                    )
            if index == reopen_after:
                quarantine = type(quarantine)(path, clock=clock)
        file_bytes = path.read_bytes() if path.exists() else None
        return file_bytes, repr(records), clock.calls, quarantine.n_quarantined

    @settings(max_examples=60, deadline=None)
    @given(
        batches=quarantine_batches(),
        prefix=st.sampled_from(PREFIXES),
        reopen_after=st.none() | st.integers(0, 3),
    )
    def test_bytes_match_one_append_per_row(
        self, tmp_path_factory, batches, prefix, reopen_after
    ):
        runs = [
            self._run(
                tmp_path_factory.mktemp("q") / "q.jsonl",
                prefix,
                batches,
                batched=batched,
                reopen_after=reopen_after,
            )
            for batched in (True, False)
        ]
        assert runs[0] == runs[1]

    def test_torn_line_gets_one_newline(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"seq": 0}\n{"seq": 1, "val', encoding="utf-8")
        quarantine = _quarantine(tmp_path)
        records = quarantine.extend(
            np.array([[1.0], [2.0]]),
            residuals=[0.0, 0.0],
            z_scores=[9.0, 9.0],
            reasons=["a", "b"],
            model_version=1,
        )
        assert [r["seq"] for r in records] == [2, 3]
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[1] == '{"seq": 1, "val'
        assert [json.loads(line)["reason"] for line in lines[2:4]] == ["a", "b"]
        assert lines[4:] == [""]

    def test_empty_batch_writes_nothing(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"seq": 0, "v', encoding="utf-8")
        quarantine = _quarantine(tmp_path)
        assert quarantine.extend(
            np.empty((0, 3)), residuals=[], z_scores=[], reasons=[],
            model_version=1,
        ) == []
        assert path.read_text(encoding="utf-8") == '{"seq": 0, "v'
        assert quarantine.n_quarantined == 1
        assert not (tmp_path / "fresh.jsonl").exists()
        _quarantine(tmp_path, "fresh.jsonl").extend(
            np.empty((0, 3)), residuals=[], z_scores=[], reasons=[],
            model_version=1,
        )
        assert not (tmp_path / "fresh.jsonl").exists()

    def test_lengths_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="one residual, z-score and reason"):
            _quarantine(tmp_path).extend(
                np.zeros((2, 3)), residuals=[0.0], z_scores=[0.0, 0.0],
                reasons=["a", "b"], model_version=1,
            )
