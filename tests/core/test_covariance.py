"""Tests for the single-pass covariance accumulators."""

import numpy as np
import pytest

from repro.core.covariance import (
    StreamingCovariance,
    TextbookCovarianceAccumulator,
    covariance_single_pass,
)
from repro.io.matrix_reader import ArrayReader


def reference_scatter(matrix: np.ndarray) -> np.ndarray:
    """Direct two-pass C = Xc^t Xc for comparison."""
    centered = matrix - matrix.mean(axis=0)
    return centered.T @ centered


class TestStreamingCovariance:
    def test_matches_reference(self, rng):
        matrix = rng.standard_normal((200, 6)) * 3.0 + 1.0
        acc = StreamingCovariance(6)
        acc.update(matrix)
        np.testing.assert_allclose(
            acc.scatter_matrix(), reference_scatter(matrix), atol=1e-9
        )
        np.testing.assert_allclose(acc.column_means, matrix.mean(axis=0))
        assert acc.n_rows == 200

    def test_blockwise_equals_single_update(self, rng):
        matrix = rng.standard_normal((101, 4))
        whole = StreamingCovariance(4)
        whole.update(matrix)
        chunked = StreamingCovariance(4)
        for start in range(0, 101, 13):
            chunked.update(matrix[start : start + 13])
        np.testing.assert_allclose(
            chunked.scatter_matrix(), whole.scatter_matrix(), atol=1e-9
        )
        np.testing.assert_allclose(chunked.column_means, whole.column_means)

    def test_row_by_row(self, rng):
        matrix = rng.standard_normal((20, 3))
        acc = StreamingCovariance(3)
        for row in matrix:
            acc.update(row)  # 1-d rows accepted
        np.testing.assert_allclose(
            acc.scatter_matrix(), reference_scatter(matrix), atol=1e-9
        )

    def test_merge_equals_single_scan(self, rng):
        matrix = rng.standard_normal((150, 5)) + 10.0
        left = StreamingCovariance(5)
        left.update(matrix[:70])
        right = StreamingCovariance(5)
        right.update(matrix[70:])
        left.merge(right)
        np.testing.assert_allclose(
            left.scatter_matrix(), reference_scatter(matrix), atol=1e-8
        )
        assert left.n_rows == 150

    def test_merge_into_empty(self, rng):
        matrix = rng.standard_normal((30, 3))
        full = StreamingCovariance(3)
        full.update(matrix)
        empty = StreamingCovariance(3)
        empty.merge(full)
        np.testing.assert_allclose(
            empty.scatter_matrix(), reference_scatter(matrix), atol=1e-9
        )

    def test_merge_empty_is_noop(self, rng):
        matrix = rng.standard_normal((30, 3))
        acc = StreamingCovariance(3)
        acc.update(matrix)
        before = acc.scatter_matrix()
        acc.merge(StreamingCovariance(3))
        np.testing.assert_array_equal(acc.scatter_matrix(), before)

    def test_merge_width_mismatch(self):
        with pytest.raises(ValueError, match="widths"):
            StreamingCovariance(3).merge(StreamingCovariance(4))

    def test_covariance_normalization(self, rng):
        matrix = rng.standard_normal((50, 3))
        acc = StreamingCovariance(3)
        acc.update(matrix)
        np.testing.assert_allclose(
            acc.covariance(ddof=1), np.cov(matrix, rowvar=False), atol=1e-10
        )

    def test_covariance_needs_rows(self):
        acc = StreamingCovariance(2)
        acc.update(np.ones((1, 2)))
        with pytest.raises(ValueError, match="ddof"):
            acc.covariance(ddof=1)

    def test_scatter_requires_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            StreamingCovariance(2).scatter_matrix()

    def test_update_width_mismatch(self):
        acc = StreamingCovariance(3)
        with pytest.raises(ValueError, match="width"):
            acc.update(np.ones((2, 4)))

    def test_scatter_is_symmetric_psd(self, rng):
        matrix = rng.standard_normal((60, 5)) * 7
        acc = StreamingCovariance(5)
        for start in range(0, 60, 7):
            acc.update(matrix[start : start + 7])
        scatter = acc.scatter_matrix()
        np.testing.assert_array_equal(scatter, scatter.T)
        assert np.all(np.linalg.eigvalsh(scatter) >= -1e-8)

    def test_state_round_trip_is_bit_exact(self, rng):
        matrix = rng.standard_normal((100, 4)) * 3
        acc = StreamingCovariance(4)
        acc.update(matrix[:60])
        clone = StreamingCovariance.from_state(acc.state())
        # Interchangeable: same bits now, and same bits after folding
        # identical further data into both.
        np.testing.assert_array_equal(
            clone.scatter_matrix(), acc.scatter_matrix()
        )
        acc.update(matrix[60:])
        clone.update(matrix[60:])
        np.testing.assert_array_equal(
            clone.scatter_matrix(), acc.scatter_matrix()
        )
        np.testing.assert_array_equal(clone.column_means, acc.column_means)
        assert clone.n_rows == acc.n_rows == 100

    def test_state_mutation_does_not_leak(self, rng):
        acc = StreamingCovariance(2)
        acc.update(rng.standard_normal((10, 2)))
        state = acc.state()
        state["mean"][:] = 99.0  # mutating the snapshot...
        assert acc.column_means.max() < 99.0  # ...never touches the source

    def test_from_state_validates(self):
        with pytest.raises(ValueError, match="inconsistent"):
            StreamingCovariance.from_state(
                {"count": 3, "mean": np.zeros(2), "scatter": np.zeros((3, 3))}
            )
        with pytest.raises(ValueError, match="count"):
            StreamingCovariance.from_state(
                {"count": -1, "mean": np.zeros(2), "scatter": np.zeros((2, 2))}
            )

    def test_state_without_mode_key_loads_bit_for_bit(self, rng):
        matrix = rng.standard_normal((80, 3)) * 5 + 2
        acc = StreamingCovariance(3)
        acc.update(matrix[:50])
        # The snapshot layout every checkpoint before and after the raw
        # modes used: no ``mode`` key, just count, mean and scatter.
        legacy = {
            "count": 50,
            "mean": acc.column_means,
            "scatter": acc.state()["scatter"],
        }
        clone = StreamingCovariance.from_state(legacy)
        assert clone.n_rows == 50
        np.testing.assert_array_equal(clone.state()["scatter"], legacy["scatter"])
        np.testing.assert_array_equal(clone.column_means, legacy["mean"])
        acc.update(matrix[50:])
        clone.update(matrix[50:])
        np.testing.assert_array_equal(clone.scatter_matrix(), acc.scatter_matrix())
        np.testing.assert_array_equal(clone.column_means, acc.column_means)

    @pytest.mark.parametrize("mode", ["raw64", "float32"])
    def test_retired_mode_state_is_refused_by_name(self, mode):
        state = {
            "mode": mode,
            "count": 3,
            "colsum": np.ones(2),
            "raw": np.eye(2),
        }
        with pytest.raises(ValueError, match=f"'{mode}' is no longer supported"):
            StreamingCovariance.from_state(state)

    def test_stable_under_huge_offset(self, rng):
        """The motivating case: mean >> spread."""
        base = rng.standard_normal((500, 3))
        shifted = base + 1e9
        acc = StreamingCovariance(3)
        for start in range(0, 500, 50):
            acc.update(shifted[start : start + 50])
        # The scatter of the shifted data equals the scatter of the base
        # data.  Tolerances account for the quantization of the *input*
        # itself: adding 1e9 to O(1) values rounds them to ~1e-7 absolute
        # before any accumulation happens.
        expected = reference_scatter(base)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(
            acc.scatter_matrix(), expected, rtol=1e-4, atol=1e-4 * scale
        )


class TestTextbookAccumulator:
    def test_matches_reference_on_benign_data(self, rng):
        matrix = rng.standard_normal((100, 4))
        acc = TextbookCovarianceAccumulator(4)
        acc.update(matrix)
        np.testing.assert_allclose(
            acc.scatter_matrix(), reference_scatter(matrix), atol=1e-8
        )

    def test_catastrophic_cancellation_demonstrated(self, rng):
        """The documented failure mode: huge means destroy the textbook sum.

        This is why StreamingCovariance is the library default.
        """
        base = rng.standard_normal((500, 3))
        shifted = base + 1e9
        textbook = TextbookCovarianceAccumulator(3)
        textbook.update(shifted)
        stable = StreamingCovariance(3)
        stable.update(shifted)
        expected = reference_scatter(base)

        textbook_error = np.abs(textbook.scatter_matrix() - expected).max()
        stable_error = np.abs(stable.scatter_matrix() - expected).max()
        # The textbook accumulator loses essentially all precision here;
        # the stable one does not.
        assert textbook_error > 1e3 * max(stable_error, 1e-12)

    def test_column_means(self, rng):
        matrix = rng.standard_normal((40, 3)) + 5
        acc = TextbookCovarianceAccumulator(3)
        acc.update(matrix[:20])
        acc.update(matrix[20:])
        np.testing.assert_allclose(acc.column_means, matrix.mean(axis=0), atol=1e-12)

    def test_requires_rows(self):
        acc = TextbookCovarianceAccumulator(2)
        with pytest.raises(ValueError, match="no rows"):
            acc.scatter_matrix()
        with pytest.raises(ValueError, match="no rows"):
            _ = acc.column_means


class TestCovarianceSinglePass:
    def test_from_array(self, rng):
        matrix = rng.standard_normal((80, 5))
        scatter, means, n_rows = covariance_single_pass(matrix)
        np.testing.assert_allclose(scatter, reference_scatter(matrix), atol=1e-9)
        np.testing.assert_allclose(means, matrix.mean(axis=0))
        assert n_rows == 80

    def test_single_pass_property(self, rng):
        """The paper's headline: exactly one scan of the data."""
        matrix = rng.standard_normal((64, 4))
        reader = ArrayReader(matrix)
        covariance_single_pass(reader, block_rows=8)
        assert reader.passes_completed == 1

    def test_textbook_accumulator_option(self, rng):
        matrix = rng.standard_normal((30, 3))
        scatter, _means, _n = covariance_single_pass(matrix, accumulator="textbook")
        np.testing.assert_allclose(scatter, reference_scatter(matrix), atol=1e-8)

    def test_unknown_accumulator(self, rng):
        with pytest.raises(ValueError, match="accumulator"):
            covariance_single_pass(rng.standard_normal((3, 2)), accumulator="quantum")

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            covariance_single_pass(np.empty((0, 3)))

    def test_from_rowstore_file(self, rng, tmp_path):
        from repro.io.rowstore import RowStore

        matrix = rng.standard_normal((55, 3))
        path = tmp_path / "data.rr"
        RowStore.write_matrix(path, matrix)
        scatter, means, n_rows = covariance_single_pass(path)
        np.testing.assert_allclose(scatter, reference_scatter(matrix), atol=1e-9)
        assert n_rows == 55
