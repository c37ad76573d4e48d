"""Tests for Ratio-Rule-based outlier detection."""

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.core.outliers import (
    calibrate_residuals,
    detect_cell_outliers,
    detect_row_outliers,
    reconstruction_residuals,
    score_rows,
)


@pytest.fixture
def clean_matrix(rng):
    """Strongly rank-1 data: every row follows ratio (1, 2, 3)."""
    factor = rng.normal(10.0, 3.0, size=200)
    matrix = np.outer(factor, [1.0, 2.0, 3.0])
    matrix += rng.normal(0.0, 0.05, size=matrix.shape)
    return matrix


class TestCellOutliers:
    def test_corrupted_cell_flagged(self, clean_matrix):
        corrupted = clean_matrix.copy()
        corrupted[17, 1] = 500.0  # wildly off the ratio line
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_cell_outliers(model, corrupted, n_sigmas=3.0)
        assert outliers, "corruption not detected"
        top = outliers[0]
        assert (top.row, top.column) == (17, 1)
        assert abs(top.z_score) > 3.0
        assert top.actual == pytest.approx(500.0)
        # The reconstruction should land near the ratio-consistent value.
        expected = clean_matrix[17, 1]
        assert abs(top.predicted - expected) < 2.0

    def test_clean_data_few_flags(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_cell_outliers(model, clean_matrix, n_sigmas=4.0)
        # Gaussian noise: 4-sigma flags should be rare (< 1% of cells).
        assert len(outliers) < 0.01 * clean_matrix.size

    def test_sorted_by_severity(self, clean_matrix):
        corrupted = clean_matrix.copy()
        corrupted[3, 0] = 300.0
        corrupted[8, 2] = 120.0
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_cell_outliers(model, corrupted, n_sigmas=3.0)
        z_scores = [abs(o.z_score) for o in outliers]
        assert z_scores == sorted(z_scores, reverse=True)

    def test_invalid_sigma(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        with pytest.raises(ValueError, match="n_sigmas"):
            detect_cell_outliers(model, clean_matrix, n_sigmas=0.0)

    def test_rejects_1d(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        with pytest.raises(ValueError, match="2-d"):
            detect_cell_outliers(model, clean_matrix[0])


class TestRowOutliers:
    def test_off_plane_row_flagged(self, clean_matrix):
        corrupted = clean_matrix.copy()
        corrupted[42] = [30.0, 5.0, 90.0]  # violates the 1:2:3 ratio badly
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_row_outliers(model, corrupted, n_sigmas=3.0)
        assert outliers
        assert outliers[0].row == 42

    def test_on_plane_rows_not_flagged(self, clean_matrix):
        """A row far along RR1 but ON the plane is not a row outlier."""
        extended = np.vstack([clean_matrix, [100.0, 200.0, 300.0]])
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_row_outliers(model, extended, n_sigmas=3.0)
        assert all(o.row != len(extended) - 1 for o in outliers)

    def test_sorted_by_residual(self, clean_matrix):
        corrupted = clean_matrix.copy()
        corrupted[1] = [50.0, 0.0, 200.0]
        corrupted[2] = [20.0, 10.0, 80.0]
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        outliers = detect_row_outliers(model, corrupted, n_sigmas=2.0)
        residuals = [o.residual for o in outliers]
        assert residuals == sorted(residuals, reverse=True)

    def test_invalid_sigma(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        with pytest.raises(ValueError, match="n_sigmas"):
            detect_row_outliers(model, clean_matrix, n_sigmas=-1.0)


class TestResiduals:
    def test_residuals_shape_and_nonnegative(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        residuals = reconstruction_residuals(model, clean_matrix)
        assert residuals.shape == (200,)
        assert np.all(residuals >= 0)

    def test_full_rank_model_zero_residuals(self, clean_matrix):
        model = RatioRuleModel(cutoff=3).fit(clean_matrix)
        residuals = reconstruction_residuals(model, clean_matrix)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-8)


class TestDegenerateInputs:
    """Edge shapes must degrade gracefully, never crash (Sec. 4.4 is
    pitched at dirty warehouse data, which includes these)."""

    def test_zero_variance_column_is_skipped_not_crashed(self, rng):
        factor = rng.normal(10.0, 3.0, size=100)
        matrix = np.column_stack(
            [factor, 2.0 * factor + rng.normal(0, 0.05, 100), np.full(100, 7.0)]
        )
        model = RatioRuleModel(cutoff=2).fit(matrix)
        outliers = detect_cell_outliers(model, matrix)
        # The constant column reconstructs exactly; it must not be a
        # division-by-zero, and it must produce no flags of its own.
        assert all(o.column != 2 for o in outliers)
        detect_row_outliers(model, matrix)  # must not raise

    def test_full_rank_model_k_equals_m(self, clean_matrix):
        model = RatioRuleModel(cutoff=3).fit(clean_matrix)
        assert model.k == 3
        # Rank-M reconstruction is (numerically) exact, so row
        # residuals carry no signal worth flagging.
        outliers = detect_row_outliers(model, clean_matrix, n_sigmas=1e6)
        assert outliers == []
        detect_cell_outliers(model, clean_matrix)  # must not raise

    def test_single_row_matrix_yields_no_outliers(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        single = clean_matrix[:1]
        # One observation has no distribution: stddev is 0 in every
        # column, so both detectors must abstain rather than divide.
        assert detect_cell_outliers(model, single) == []
        assert detect_row_outliers(model, single) == []
        residuals = reconstruction_residuals(model, single)
        assert residuals.shape == (1,)

    def test_identical_rows_yield_no_row_outliers(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        constant = np.tile(clean_matrix[0], (20, 1))
        assert detect_row_outliers(model, constant) == []


class TestDeterminism:
    def test_detectors_are_deterministic(self, clean_matrix):
        corrupted = clean_matrix.copy()
        corrupted[17, 1] = 500.0
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        first = detect_cell_outliers(model, corrupted)
        second = detect_cell_outliers(model, corrupted)
        assert first == second  # CellOutlier is a frozen dataclass
        assert detect_row_outliers(model, corrupted) == detect_row_outliers(
            model, corrupted
        )
        np.testing.assert_array_equal(
            reconstruction_residuals(model, corrupted),
            reconstruction_residuals(model, corrupted),
        )


class TestScoreRows:
    def test_non_finite_row_is_an_outlier(self, clean_matrix):
        """A NaN cell gives a NaN z-score, which must not pass as clean."""
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        calibration = calibrate_residuals(model, clean_matrix)
        scores = score_rows(
            model, np.array([[1.0, np.nan, 0.5], [1.0, 200.0, 0.5]]), calibration
        )
        assert np.isnan(scores[0].z_score)
        assert [score.is_outlier for score in scores] == [True, True]

    def test_clean_rows_stay_clean(self, clean_matrix):
        model = RatioRuleModel(cutoff=1).fit(clean_matrix)
        calibration = calibrate_residuals(model, clean_matrix)
        scores = score_rows(model, clean_matrix[:20], calibration, n_sigmas=6.0)
        assert not any(score.is_outlier for score in scores)
