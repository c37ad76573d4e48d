"""Checkpoint/resume tests for the fault-tolerant scan engine.

The acceptance bar: a scan that dies partway through must, on resume,
finish from the checkpoint *without rescanning the chunks it already
completed*, and the final accumulator must be bit-for-bit identical to
an uninterrupted run.  Rescans are detected with the fault injector's
cross-process attempt counters, which persist in the shared state dir
across both runs.
"""

import json

import numpy as np
import pytest

from repro.core.covariance import StreamingCovariance
from repro.core.engine import (
    ScanCheckpoint,
    ScanChunk,
    ScanFaultError,
    plan_chunks,
    scan_sources,
)
from repro.core.parallel import fit_sharded
from repro.io.csv_format import save_csv_matrix
from repro.testing import FaultInjector


@pytest.fixture
def matrix(rng):
    return rng.normal(loc=3.0, scale=2.0, size=(400, 5))


@pytest.fixture
def csv_shards(tmp_path, matrix):
    paths = []
    for index, part in enumerate(np.array_split(matrix, 4)):
        path = tmp_path / f"shard{index}.csv"
        save_csv_matrix(path, part)
        paths.append(path)
    return paths


@pytest.fixture
def state_dir(tmp_path):
    path = tmp_path / "fault-state"
    path.mkdir()
    return path


class TestScanCheckpointStore:
    def test_flush_requires_bound_plan(self, tmp_path):
        store = ScanCheckpoint(tmp_path / "scan.ckpt")
        with pytest.raises(ValueError, match="bind_plan"):
            store.flush()

    def test_round_trip_is_bit_exact(self, tmp_path, csv_shards, rng):
        chunks, _ = plan_chunks(csv_shards[0], target_chunks=2)
        store = ScanCheckpoint(tmp_path / "scan.ckpt")
        store.bind_plan(chunks, block_rows=64)

        partials = {}
        for index in range(2):
            accumulator = StreamingCovariance(5)
            accumulator.update(rng.normal(size=(37, 5)))
            store.record(index, accumulator, n_blocks=index + 1)
            partials[index] = accumulator

        loaded = ScanCheckpoint.load(tmp_path / "scan.ckpt")
        assert loaded.matches(chunks, block_rows=64)
        assert not loaded.matches(chunks, block_rows=128)
        assert sorted(loaded.completed) == [0, 1]
        for index, original in partials.items():
            restored, n_blocks = loaded.completed[index]
            assert n_blocks == index + 1
            assert restored.n_rows == original.n_rows
            assert np.array_equal(restored.column_means, original.column_means)
            assert np.array_equal(
                restored.covariance(ddof=0), original.covariance(ddof=0)
            )

    def test_flush_leaves_no_temp_file(self, tmp_path, csv_shards):
        target = tmp_path / "scan.ckpt"
        store = ScanCheckpoint(target)
        chunks, _ = plan_chunks(csv_shards[0], target_chunks=1)
        store.bind_plan(chunks, block_rows=64)
        accumulator = StreamingCovariance(5)
        accumulator.update(np.ones((3, 5)))
        store.record(0, accumulator, n_blocks=1)
        assert target.exists()
        assert not target.with_name(target.name + ".tmp").exists()

    def test_plan_fingerprint_tracks_chunking(self, tmp_path, csv_shards):
        two, _ = plan_chunks(csv_shards[0], target_chunks=2)
        three, _ = plan_chunks(csv_shards[0], target_chunks=3)
        store = ScanCheckpoint(tmp_path / "scan.ckpt")
        store.bind_plan(two, block_rows=64)
        assert store.matches(two, block_rows=64)
        assert not store.matches(three, block_rows=64)


class TestScanSourcesValidation:
    def test_resume_requires_checkpoint_path(self, csv_shards):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            scan_sources(csv_shards, resume=True)

    def test_checkpoint_rejects_in_memory_sources(self, tmp_path, matrix):
        with pytest.raises(ValueError, match="file-backed"):
            scan_sources([matrix], checkpoint=tmp_path / "scan.ckpt")

    def test_resume_rejects_mismatched_plan(self, tmp_path, csv_shards):
        path = tmp_path / "scan.ckpt"
        scan_sources(csv_shards, target_chunks=4, checkpoint=path)
        with pytest.raises(ValueError, match="different scan plan"):
            scan_sources(
                csv_shards, target_chunks=8, checkpoint=path, resume=True
            )
        with pytest.raises(ValueError, match="different scan plan"):
            scan_sources(
                csv_shards,
                target_chunks=4,
                block_rows=7,
                checkpoint=path,
                resume=True,
            )


class TestCheckpointCompatibility:
    """Checkpoints written before the raw accumulation modes were
    retired: ``float64`` ones still resume, raw-mode ones fail loudly."""

    # ScanCheckpoint._fingerprint for this plan, frozen from the
    # release that still had the raw modes: a checkpoint it wrote
    # resumes only while the fingerprint stays byte-identical.
    GOLDEN_FINGERPRINT = (
        '{"block_rows": 4096, "chunks": [{"kind": "csv", "n_cols": 4, '
        '"source": "shards/part-0.csv", "start": 12, "stop": 40960}, '
        '{"kind": "rowstore", "n_cols": 4, "source": "shards/part-1.rr", '
        '"start": 0, "stop": 1000}]}'
    )

    def test_float64_fingerprint_matches_the_frozen_golden(self, tmp_path):
        chunks = [
            ScanChunk("csv", "shards/part-0.csv", 12, 40960, 4),
            ScanChunk("rowstore", "shards/part-1.rr", 0, 1000, 4),
        ]
        assert ScanCheckpoint._fingerprint(chunks, 4096) == self.GOLDEN_FINGERPRINT
        store = ScanCheckpoint(tmp_path / "scan.ckpt")
        store.bind_plan(chunks, 4096)
        store.flush()
        assert ScanCheckpoint.load(tmp_path / "scan.ckpt").matches(chunks, 4096)

    @staticmethod
    def _rewrite_as_raw_mode(path, mode):
        """Turn a float64 checkpoint into the raw-mode layout older
        releases wrote: the mode in the plan and per chunk, and column
        sums plus raw co-moments instead of mean and scatter."""
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        plan = json.loads(str(arrays["plan_json"][0]))
        plan["accumulate_dtype"] = mode
        arrays["plan_json"] = np.asarray([json.dumps(plan, sort_keys=True)])
        for index in arrays["done"].tolist():
            count = int(arrays[f"count_{index}"])
            mean = arrays.pop(f"mean_{index}")
            scatter = arrays.pop(f"scatter_{index}")
            arrays[f"mode_{index}"] = np.asarray([mode])
            arrays[f"colsum_{index}"] = mean * count
            arrays[f"raw_{index}"] = scatter + count * np.outer(mean, mean)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)

    @pytest.mark.parametrize("mode", ["raw64", "float32"])
    def test_raw_mode_checkpoint_refuses_to_resume_by_name(
        self, tmp_path, csv_shards, mode
    ):
        path = tmp_path / "scan.ckpt"
        scan_sources(csv_shards, executor="serial", checkpoint=path)
        self._rewrite_as_raw_mode(path, mode)
        with pytest.raises(ValueError, match=f"'{mode}' is no longer supported"):
            scan_sources(
                csv_shards, executor="serial", checkpoint=path, resume=True
            )

    def test_raw_mode_checkpoint_without_chunks_is_a_plan_mismatch(
        self, tmp_path, csv_shards
    ):
        chunks = [
            chunk
            for shard in csv_shards
            for chunk in plan_chunks(shard, target_chunks=1)[0]
        ]
        path = tmp_path / "scan.ckpt"
        store = ScanCheckpoint(path)
        store.bind_plan(chunks, 4096)
        store.flush()
        # As written, the empty checkpoint is this scan's plan...
        assert ScanCheckpoint.load(path).matches(chunks, 4096)
        self._rewrite_as_raw_mode(path, "raw64")
        # ...but the raw mode's fingerprint is not.
        with pytest.raises(ValueError, match="different scan plan"):
            scan_sources(
                csv_shards, executor="serial", checkpoint=path, resume=True
            )


class TestCheckpointDuringScan:
    def test_clean_run_records_every_chunk(self, tmp_path, csv_shards):
        path = tmp_path / "scan.ckpt"
        result = scan_sources(csv_shards, target_chunks=4, checkpoint=path)
        loaded = ScanCheckpoint.load(path)
        assert sorted(loaded.completed) == [0, 1, 2, 3]
        total = sum(acc.n_rows for acc, _ in loaded.completed.values())
        assert total == result.accumulator.n_rows == 400

    def test_resume_without_existing_file_runs_fresh(self, tmp_path, csv_shards):
        path = tmp_path / "scan.ckpt"
        result = scan_sources(
            csv_shards, target_chunks=4, checkpoint=path, resume=True
        )
        assert result.metrics.n_chunks_resumed == 0
        assert result.accumulator.n_rows == 400


@pytest.mark.faults
class TestInterruptedThenResumed:
    def test_resume_skips_finished_chunks_and_matches_bits(
        self, tmp_path, csv_shards, state_dir
    ):
        reference = scan_sources(csv_shards, target_chunks=4)
        path = tmp_path / "scan.ckpt"

        # First run: chunk 2 faults with no retry budget -> the scan
        # aborts, but chunks 0, 1 and 3 are already checkpointed.
        injector = FaultInjector(state_dir, fail={2: 1})
        with pytest.raises(ScanFaultError) as excinfo:
            scan_sources(
                csv_shards,
                target_chunks=4,
                checkpoint=path,
                fault_injector=injector,
            )
        assert excinfo.value.chunk_index == 2
        attempts_before = {index: injector.attempts(index) for index in range(4)}
        assert attempts_before == {0: 1, 1: 1, 2: 1, 3: 1}
        assert sorted(ScanCheckpoint.load(path).completed) == [0, 1, 3]

        # Second run resumes: only chunk 2 is rescanned.  The injector
        # shares the first run's state dir, so its one fault is already
        # spent and the per-chunk attempt counters carry over.
        result = scan_sources(
            csv_shards,
            target_chunks=4,
            checkpoint=path,
            resume=True,
            fault_injector=FaultInjector(state_dir, fail={2: 1}),
        )
        attempts_after = {index: injector.attempts(index) for index in range(4)}
        assert attempts_after == {0: 1, 1: 1, 2: 2, 3: 1}

        assert result.metrics.n_chunks_resumed == 3
        assert result.accumulator.n_rows == 400
        assert np.array_equal(
            result.accumulator.column_means, reference.accumulator.column_means
        )
        assert np.array_equal(
            result.accumulator.covariance(ddof=0),
            reference.accumulator.covariance(ddof=0),
        )

    def test_fit_sharded_resumes_to_identical_model(
        self, tmp_path, csv_shards, state_dir
    ):
        reference = fit_sharded(csv_shards, target_chunks=4)
        path = tmp_path / "fit.ckpt"

        with pytest.raises(ScanFaultError):
            fit_sharded(
                csv_shards,
                target_chunks=4,
                checkpoint=path,
                fault_injector=FaultInjector(state_dir, fail={1: 1}),
            )

        model = fit_sharded(
            csv_shards,
            target_chunks=4,
            checkpoint=path,
            resume=True,
            fault_injector=FaultInjector(state_dir, fail={1: 1}),
        )
        assert model.metrics_.n_chunks_resumed == 3
        assert model.n_rows_ == reference.n_rows_
        assert np.array_equal(model.means_, reference.means_)
        assert np.array_equal(model.eigenvalues_, reference.eigenvalues_)
        assert np.array_equal(
            model.rules_.matrix, reference.rules_.matrix
        )

    def test_pooled_resume_matches_serial_reference(
        self, tmp_path, csv_shards, state_dir
    ):
        reference = scan_sources(csv_shards, target_chunks=4)
        path = tmp_path / "scan.ckpt"

        with pytest.raises(ScanFaultError):
            scan_sources(
                csv_shards,
                target_chunks=4,
                executor="thread",
                max_workers=2,
                checkpoint=path,
                fault_injector=FaultInjector(state_dir, fail={0: 1}),
            )

        result = scan_sources(
            csv_shards,
            target_chunks=4,
            executor="thread",
            max_workers=2,
            checkpoint=path,
            resume=True,
            fault_injector=FaultInjector(state_dir, fail={0: 1}),
        )
        assert result.metrics.n_chunks_resumed >= 1
        assert np.array_equal(
            result.accumulator.covariance(ddof=0),
            reference.accumulator.covariance(ddof=0),
        )
