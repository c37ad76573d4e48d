"""Differential tests for the one accumulation path and the shm handoff.

The hot-path rework (memory-mapped row stores, gulp CSV parsing,
shared-memory partial handoff) is only shippable because the stable
``float64`` accumulation is *bit-identical* to the historical path --
same block centering, same merge tree, same reduction order.
Hypothesis drives random matrices through the in-memory accumulation
and the file scan paths and asserts exact equality.  Snapshots of the
retired raw-moment modes are refused by name; ``test_covariance.py``
and ``test_checkpoint.py`` check that.

Process-pool cases (the shared-memory handoff itself) live in fixed
tests -- pool spawn per hypothesis example is too slow.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covariance import StreamingCovariance
from repro.core.engine import scan_sources
from repro.io.csv_format import save_csv_matrix
from repro.io.rowstore import RowStore


def _make_matrix(seed, n_rows, n_cols):
    generator = np.random.default_rng(seed)
    return generator.normal(loc=1.0, scale=3.0, size=(n_rows, n_cols))


def _reference(matrix, block_rows):
    """The historical path: block-centered float64 accumulation."""
    accumulator = StreamingCovariance(matrix.shape[1])
    for start in range(0, matrix.shape[0], block_rows):
        accumulator.update(matrix[start : start + block_rows])
    return accumulator


cases = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "n_rows": st.integers(min_value=2, max_value=150),
        "n_cols": st.integers(min_value=2, max_value=6),
        "block_rows": st.integers(min_value=1, max_value=64),
    }
)


class TestModeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(case=cases)
    def test_float64_mode_is_the_legacy_path_bitwise(self, case):
        matrix = _make_matrix(case["seed"], case["n_rows"], case["n_cols"])
        legacy = _reference(matrix, case["block_rows"])
        explicit = StreamingCovariance(matrix.shape[1])
        for start in range(0, matrix.shape[0], case["block_rows"]):
            explicit.update(matrix[start : start + case["block_rows"]])
            # Snapshots written while the raw modes existed carry a
            # ``"mode": "float64"`` tag; reloading one mid-stream must
            # not move a bit.
            explicit = StreamingCovariance.from_state(
                {"mode": "float64", **explicit.state()}
            )
        assert np.array_equal(
            legacy.scatter_matrix(), explicit.scatter_matrix()
        )
        assert np.array_equal(legacy.column_means, explicit.column_means)


class TestEngineModeDifferential:
    """The engine end of the proof: scans through the new readers
    (gulp CSV parse, memory-mapped row stores) in the default mode
    reproduce the in-memory reference bit for bit."""

    def _shards(self, tmp_path, matrix, n_shards, kind):
        paths = []
        for index, part in enumerate(np.array_split(matrix, n_shards)):
            if kind == "csv":
                path = tmp_path / f"shard{index}.csv"
                save_csv_matrix(path, part)
            else:
                path = tmp_path / f"shard{index}.rr"
                RowStore.write_matrix(path, part)
            paths.append(path)
        return paths

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_shards=st.integers(min_value=1, max_value=3),
        kind=st.sampled_from(["csv", "rowstore"]),
    )
    def test_serial_file_scan_is_bitwise_the_memory_reference(
        self, tmp_path_factory, seed, n_shards, kind
    ):
        tmp_path = tmp_path_factory.mktemp("modes")
        matrix = _make_matrix(seed, 97, 4)
        paths = self._shards(tmp_path, matrix, n_shards, kind)
        result = scan_sources(paths, executor="serial", block_rows=16)
        reference = scan_sources(
            [part for part in np.array_split(matrix, n_shards) if part.size],
            executor="serial",
            block_rows=16,
        )
        assert result.accumulator.n_rows == matrix.shape[0]
        assert np.array_equal(
            result.accumulator.scatter_matrix(),
            reference.accumulator.scatter_matrix(),
        )
        assert np.array_equal(
            result.accumulator.column_means,
            reference.accumulator.column_means,
        )


class TestSharedMemoryHandoff:
    """Tier-1-safe smoke tests for the process-pool shm return path."""

    def test_process_scan_uses_shm_and_matches_serial_bitwise(self, tmp_path):
        matrix = _make_matrix(11, 200, 4)
        path = tmp_path / "data.csv"
        save_csv_matrix(path, matrix)
        serial = scan_sources([path], executor="serial", target_chunks=4)
        pooled = scan_sources(
            [path],
            executor="process",
            max_workers=2,
            target_chunks=4,
        )
        assert pooled.metrics.n_shm_handoffs == 4
        assert pooled.metrics.n_pickled_handoffs == 0
        assert np.array_equal(
            serial.accumulator.scatter_matrix(),
            pooled.accumulator.scatter_matrix(),
        )
        assert np.array_equal(
            serial.accumulator.column_means,
            pooled.accumulator.column_means,
        )

    def test_disabling_shm_falls_back_to_pickle_same_bits(self, tmp_path):
        matrix = _make_matrix(13, 150, 3)
        path = tmp_path / "data.csv"
        save_csv_matrix(path, matrix)
        with_shm = scan_sources(
            [path], executor="process", max_workers=2, target_chunks=3
        )
        without = scan_sources(
            [path],
            executor="process",
            max_workers=2,
            target_chunks=3,
            shm_handoff=False,
        )
        assert without.metrics.n_shm_handoffs == 0
        assert without.metrics.n_pickled_handoffs == 3
        assert np.array_equal(
            with_shm.accumulator.scatter_matrix(),
            without.accumulator.scatter_matrix(),
        )


class TestAdaptiveChunkSizing:
    def test_large_payload_is_over_chunked_for_balance(self, tmp_path):
        matrix = _make_matrix(19, 4000, 4)
        path = tmp_path / "big.csv"
        save_csv_matrix(path, matrix)
        result = scan_sources(
            [path],
            executor="thread",
            max_workers=2,
            min_chunk_bytes=1024,  # tiny floor: force the 4x cap
        )
        assert result.metrics.n_chunks == 8  # 4 * workers
        assert result.accumulator.n_rows == matrix.shape[0]

    def test_small_payload_keeps_one_chunk_per_worker(self, tmp_path):
        matrix = _make_matrix(23, 64, 3)
        path = tmp_path / "small.csv"
        save_csv_matrix(path, matrix)
        result = scan_sources([path], executor="thread", max_workers=2)
        # Payload is far below min_chunk_bytes: no over-chunking.
        assert result.metrics.n_chunks == 2

    def test_explicit_target_chunks_wins(self, tmp_path):
        matrix = _make_matrix(29, 4000, 4)
        path = tmp_path / "big.csv"
        save_csv_matrix(path, matrix)
        result = scan_sources(
            [path],
            executor="thread",
            max_workers=2,
            target_chunks=3,
            min_chunk_bytes=1,
        )
        assert result.metrics.n_chunks == 3
