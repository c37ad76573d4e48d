"""Batch-source contract tests: polling, batching, backpressure."""

from __future__ import annotations

import queue
import threading

import numpy as np
import pytest

from repro.io.schema import TableSchema
from repro.pipeline import CSVTailSource, QueueSource, TransactionStreamSource

pytestmark = pytest.mark.pipeline


class TestQueueSource:
    def test_coalesces_small_puts_into_one_batch(self):
        source = QueueSource(2)
        for start in range(0, 9, 3):
            source.put(np.arange(start * 2, (start + 3) * 2).reshape(3, 2))
        batch = source.poll(100)
        assert batch.shape == (9, 2)
        np.testing.assert_array_equal(batch, np.arange(18).reshape(9, 2))

    def test_splits_oversized_puts_across_polls(self):
        source = QueueSource(2)
        source.put(np.arange(20.0).reshape(10, 2))
        first = source.poll(4)
        second = source.poll(100)
        assert first.shape == (4, 2)
        assert second.shape == (6, 2)
        np.testing.assert_array_equal(
            np.vstack([first, second]), np.arange(20.0).reshape(10, 2)
        )

    def test_idle_then_exhausted(self):
        source = QueueSource(3)
        idle = source.poll(10)
        assert idle.shape == (0, 3)
        source.put(np.ones((2, 3)))
        source.close()
        assert source.poll(10).shape == (2, 3)
        assert source.poll(10) is None

    def test_put_after_close_rejected(self):
        source = QueueSource(2)
        source.close()
        with pytest.raises(ValueError, match="closed"):
            source.put(np.ones((1, 2)))

    def test_width_mismatch_rejected(self):
        source = QueueSource(3)
        with pytest.raises(ValueError, match="width 3"):
            source.put(np.ones((2, 4)))

    def test_single_row_accepted_as_1d(self):
        source = QueueSource(2)
        source.put(np.array([1.0, 2.0]))
        assert source.poll(10).shape == (1, 2)

    def test_bounded_queue_exerts_backpressure(self):
        source = QueueSource(2, capacity=2)
        source.put(np.ones((1, 2)))
        source.put(np.ones((1, 2)))
        # Queue is full: a producer now blocks (times out) until the
        # pipeline drains -- memory cannot grow without bound.
        with pytest.raises(queue.Full):
            source.put(np.ones((1, 2)), timeout=0.05)
        assert source.poll(10).shape == (2, 2)
        source.put(np.ones((1, 2)), timeout=0.05)  # space again

    def test_blocked_producer_resumes_when_drained(self):
        source = QueueSource(2, capacity=1)
        source.put(np.zeros((1, 2)))
        done = threading.Event()

        def producer():
            source.put(np.ones((1, 2)), timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not done.wait(0.05)  # stuck against the bound
        assert source.poll(10).shape[0] >= 1  # drain frees the slot
        assert done.wait(5.0)
        thread.join()

    def test_schema_accepted(self):
        schema = TableSchema.from_names(["bread", "butter"])
        source = QueueSource(schema)
        assert source.schema.names == ["bread", "butter"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            QueueSource(2, capacity=0)


class TestCSVTailSource:
    def _write(self, path, lines):
        with open(path, "a") as handle:
            handle.write("".join(lines))

    def test_batch_mode_consumes_and_exhausts(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n", "3,4\n"])
        source = CSVTailSource(path, follow=False)
        assert source.schema.names == ["a", "b"]
        batch = source.poll(10)
        np.testing.assert_array_equal(batch, [[1.0, 2.0], [3.0, 4.0]])
        assert source.poll(10) is None

    def test_follow_mode_picks_up_appended_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n"])
        source = CSVTailSource(path, follow=True)
        assert source.poll(10).shape == (1, 2)
        assert source.poll(10).shape == (0, 2)  # idle, not exhausted
        self._write(path, ["5,6\n", "7,8\n"])
        np.testing.assert_array_equal(
            source.poll(10), [[5.0, 6.0], [7.0, 8.0]]
        )
        source.close()

    def test_partial_trailing_line_left_for_next_poll(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n", "3,"])  # torn mid-write
        source = CSVTailSource(path, follow=True)
        np.testing.assert_array_equal(source.poll(10), [[1.0, 2.0]])
        self._write(path, ["4\n"])  # writer finishes the line
        np.testing.assert_array_equal(source.poll(10), [[3.0, 4.0]])
        source.close()

    def test_max_rows_respected(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n"] + [f"{i},{i}\n" for i in range(10)])
        source = CSVTailSource(path, follow=False)
        assert source.poll(3).shape == (3, 2)
        assert source.poll(100).shape == (7, 2)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            CSVTailSource(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        self._write(path, ["a,b\n", "1,2,3\n"])
        source = CSVTailSource(path, follow=False)
        with pytest.raises(ValueError, match="3 cells"):
            source.poll(10)
        source.close()


class TestCSVTailSourceRotation:
    """Log-rotation / truncation resync (regression: the source used to
    keep reading the rotated-away inode and idle forever)."""

    def _write(self, path, lines, mode="a"):
        with open(path, mode) as handle:
            handle.write("".join(lines))

    def test_rotation_resyncs_to_the_new_file(self, tmp_path):
        import os

        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n"])
        source = CSVTailSource(path, follow=True)
        assert source.poll(10).shape == (1, 2)
        # Rotate: write the replacement beside the file, then swap it
        # in atomically -- exactly what logrotate's copytruncate-less
        # mode does.
        rotated = tmp_path / "data.csv.new"
        self._write(rotated, ["a,b\n", "5,6\n", "7,8\n"], mode="w")
        os.replace(rotated, path)
        np.testing.assert_array_equal(
            source.poll(10), [[5.0, 6.0], [7.0, 8.0]]
        )
        assert source.n_rotations == 1
        assert source.n_truncations == 0
        # The handle now tracks the new inode: appends keep arriving.
        self._write(path, ["9,10\n"])
        np.testing.assert_array_equal(source.poll(10), [[9.0, 10.0]])
        source.close()

    def test_rotation_flushes_the_old_files_unterminated_tail(self, tmp_path):
        import os

        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n", "3,4"])  # no trailing newline
        source = CSVTailSource(path, follow=True)
        np.testing.assert_array_equal(source.poll(10), [[1.0, 2.0]])
        rotated = tmp_path / "data.csv.new"
        self._write(rotated, ["a,b\n", "5,6\n"], mode="w")
        os.replace(rotated, path)
        # The rotated-away file is final, so its last (newline-less)
        # line is a complete row and must not be lost.
        np.testing.assert_array_equal(
            source.poll(10), [[3.0, 4.0], [5.0, 6.0]]
        )
        assert source.n_rotations == 1
        source.close()

    def test_truncation_resyncs_from_the_top(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n"] + [f"{i},{i}\n" for i in range(50)])
        source = CSVTailSource(path, follow=True)
        assert source.poll(100).shape == (50, 2)
        # Rewrite in place, shorter than the read offset (same inode).
        self._write(path, ["a,b\n", "1,2\n"], mode="w")
        np.testing.assert_array_equal(source.poll(10), [[1.0, 2.0]])
        assert source.n_truncations == 1
        assert source.n_rotations == 0
        source.close()

    def test_missing_file_mid_swap_is_idle_not_fatal(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n"])
        source = CSVTailSource(path, follow=True)
        assert source.poll(10).shape == (1, 2)
        path.unlink()  # the writer removed it but has not replaced it yet
        assert source.poll(10).shape == (0, 2)  # idle, no crash
        self._write(path, ["a,b\n", "5,6\n"], mode="w")
        np.testing.assert_array_equal(source.poll(10), [[5.0, 6.0]])
        assert source.n_rotations == 1
        source.close()

    def test_bad_leftover_raises_on_every_poll_without_leaking(self, tmp_path):
        import os

        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n", "3,x"])  # a bad, unterminated tail
        source = CSVTailSource(path, follow=True, on_bad_row="raise")
        np.testing.assert_array_equal(source.poll(10), [[1.0, 2.0]])
        rotated = tmp_path / "data.csv.new"
        self._write(rotated, ["a,b\n", "5,6\n"], mode="w")
        os.replace(rotated, path)
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(2):
            with pytest.raises(ValueError, match="3,x"):
                source.poll(10)
            assert source.n_rotations == 0
            assert len(os.listdir("/proc/self/fd")) == fds
        source.close()

    def test_replacement_with_different_header_rejected(self, tmp_path):
        import os

        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n"])
        source = CSVTailSource(path, follow=True)
        assert source.poll(10).shape == (1, 2)
        rotated = tmp_path / "data.csv.new"
        self._write(rotated, ["x,y,z\n", "1,2,3\n"], mode="w")
        os.replace(rotated, path)
        with pytest.raises(ValueError, match="does not match"):
            source.poll(10)
        source.close()


class TestCSVTailSourceBadRows:
    """on_bad_row policy (regression: a corrupt row used to raise a
    bare ValueError with no context, killing the pipeline)."""

    def _write(self, path, lines):
        with open(path, "a") as handle:
            handle.write("".join(lines))

    def test_raise_includes_file_and_byte_offset(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n", "1,2\n", "oops,2\n"])
        source = CSVTailSource(path, follow=False)
        with pytest.raises(ValueError) as excinfo:
            source.poll(10)
        message = str(excinfo.value)
        assert str(path) in message
        # The bad row starts right after "a,b\n1,2\n" = byte 8.
        assert "@ byte 8" in message
        assert "oops" in message
        source.close()

    def test_skip_drops_bad_rows_and_counts_them(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(
            path,
            ["a,b\n", "1,2\n", "oops,2\n", "3,4\n", "5,6,7\n", "8,9\n"],
        )
        source = CSVTailSource(path, follow=False, on_bad_row="skip")
        batch = source.poll(10)
        np.testing.assert_array_equal(
            batch, [[1.0, 2.0], [3.0, 4.0], [8.0, 9.0]]
        )
        assert source.n_bad_rows_skipped == 2
        source.close()

    def test_policy_validated(self, tmp_path):
        path = tmp_path / "data.csv"
        self._write(path, ["a,b\n"])
        with pytest.raises(ValueError, match="on_bad_row"):
            CSVTailSource(path, on_bad_row="ignore")

    def test_pipeline_surfaces_skip_counts_in_metrics(self, tmp_path):
        from repro.pipeline import IngestionPipeline

        path = tmp_path / "data.csv"
        self._write(
            path, ["a,b\n"] + [f"{i},{i}\n" for i in range(8)] + ["bad,row\n"]
        )
        source = CSVTailSource(path, follow=False, on_bad_row="skip")
        pipeline = IngestionPipeline(source, batch_rows=4)
        pipeline.run()
        assert pipeline.metrics.n_rows_skipped == 1
        assert pipeline.metrics.rows_ingested == 8


class TestTransactionStreamSource:
    def test_drains_whole_schedule_then_exhausts(self, stable_stream):
        source = TransactionStreamSource(stable_stream)
        total = 0
        while True:
            batch = source.poll(1000)
            if batch is None:
                break
            total += batch.shape[0]
        assert total == stable_stream.total_blocks * stable_stream.block_rows

    def test_rows_match_materialized_stream(self, stable_stream):
        source = TransactionStreamSource(stable_stream)
        collected = []
        while True:
            batch = source.poll(333)  # misaligned with block_rows on purpose
            if batch is None:
                break
            collected.append(batch)
        np.testing.assert_array_equal(
            np.vstack(collected), stable_stream.materialize()
        )

    def test_poll_validates_max_rows(self, stable_stream):
        source = TransactionStreamSource(stable_stream)
        with pytest.raises(ValueError, match="max_rows"):
            source.poll(0)
