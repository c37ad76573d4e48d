"""Tests for RatioRuleModel end to end."""

import numpy as np
import pytest

from repro.core.model import NotFittedError, RatioRuleModel
from repro.core.online import OnlineRatioRuleModel
from repro.io.rowstore import RowStore
from repro.io.schema import TableSchema
from repro.linalg.eigen import BACKENDS
from repro.pipeline import IngestionPipeline, QueueSource
from repro.watch import RowQuarantine, WatchDaemon


class TestFigure1:
    """The paper's running example (Fig. 1): 5 customers x 2 products."""

    def test_first_rule_direction(self, figure1_matrix):
        model = RatioRuleModel().fit(figure1_matrix)
        assert model.k == 1
        direction = model.rules_[0].loadings
        # The paper reports (0.866, 0.5): bread-heavy, both positive.
        assert direction[0] > direction[1] > 0
        np.testing.assert_allclose(np.linalg.norm(direction), 1.0, atol=1e-12)
        assert direction[0] == pytest.approx(0.866, abs=0.06)
        assert direction[1] == pytest.approx(0.5, abs=0.06)

    def test_forecast_butter_from_bread(self, figure1_matrix):
        model = RatioRuleModel().fit(figure1_matrix)
        filled = model.fill_row(np.array([8.50, np.nan]))
        # Extrapolation along the ratio line: a big bread spend implies
        # a proportionally big butter spend.
        assert filled[1] > 4.0


class TestFitBasics:
    def test_fit_returns_self(self, correlated_matrix):
        model = RatioRuleModel()
        assert model.fit(correlated_matrix) is model

    def test_learned_state_populated(self, correlated_matrix):
        model = RatioRuleModel().fit(correlated_matrix)
        assert model.rules_ is not None
        assert model.means_.shape == (5,)
        assert model.n_rows_ == 300
        assert model.eigenvalues_.shape == (model.k,)
        assert model.total_variance_ > 0

    def test_unfitted_raises(self):
        model = RatioRuleModel()
        with pytest.raises(NotFittedError):
            _ = model.k
        with pytest.raises(NotFittedError):
            model.fill_row(np.array([1.0, np.nan]))
        with pytest.raises(NotFittedError):
            model.transform(np.ones((2, 5)))

    def test_rank2_data_yields_k2(self, correlated_matrix):
        model = RatioRuleModel().fit(correlated_matrix)
        # Rank-2 structure with tiny noise: 85% rule needs at most 2.
        assert model.k <= 2

    def test_fixed_cutoff(self, correlated_matrix):
        model = RatioRuleModel(cutoff=3).fit(correlated_matrix)
        assert model.k == 3

    def test_energy_cutoff_float(self, correlated_matrix):
        strict = RatioRuleModel(cutoff=0.9999).fit(correlated_matrix)
        loose = RatioRuleModel(cutoff=0.5).fit(correlated_matrix)
        assert strict.k >= loose.k

    def test_schema_from_argument(self, correlated_matrix):
        schema = TableSchema.from_names(["a", "b", "c", "d", "e"])
        model = RatioRuleModel().fit(correlated_matrix, schema=schema)
        assert model.schema_.names == ["a", "b", "c", "d", "e"]

    def test_fit_from_rowstore_path(self, correlated_matrix, tmp_path):
        path = tmp_path / "data.rr"
        RowStore.write_matrix(path, correlated_matrix)
        model = RatioRuleModel().fit(path)
        reference = RatioRuleModel().fit(correlated_matrix)
        np.testing.assert_allclose(
            model.rules_matrix, reference.rules_matrix, atol=1e-9
        )

    def test_textbook_accumulator_equivalent_on_benign_data(self, correlated_matrix):
        stable = RatioRuleModel().fit(correlated_matrix)
        textbook = RatioRuleModel(accumulator="textbook").fit(correlated_matrix)
        np.testing.assert_allclose(
            stable.rules_matrix, textbook.rules_matrix, atol=1e-6
        )


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, correlated_matrix, backend):
        reference = RatioRuleModel(cutoff=2).fit(correlated_matrix)
        model = RatioRuleModel(cutoff=2, backend=backend).fit(correlated_matrix)
        np.testing.assert_allclose(
            model.rules_matrix, reference.rules_matrix, atol=1e-5
        )
        np.testing.assert_allclose(
            model.eigenvalues_, reference.eigenvalues_, rtol=1e-5
        )

    @pytest.mark.parametrize(
        "construct",
        [
            lambda tmp: RatioRuleModel(backend="power"),
            lambda tmp: OnlineRatioRuleModel(3, backend="power"),
            lambda tmp: IngestionPipeline(QueueSource(3), backend="power"),
            lambda tmp: WatchDaemon(
                QueueSource(3),
                quarantine=RowQuarantine(tmp / "quarantine.jsonl"),
                backend="power",
            ),
        ],
        ids=["model", "online", "pipeline", "watch"],
    )
    def test_unknown_backend_rejected_at_construction(self, tmp_path, construct):
        """A removed backend fails before any scan, not at the first solve."""
        with pytest.raises(ValueError, match="unknown backend 'power'"):
            construct(tmp_path)

    @pytest.mark.parametrize("backend", ["lanczos"])
    def test_iterative_backends_with_energy_cutoff(self, correlated_matrix, backend):
        """Adaptive k-growth must satisfy the 85% rule."""
        model = RatioRuleModel(backend=backend).fit(correlated_matrix)
        assert model.rules_.total_energy_fraction() >= 0.85 - 1e-9


class TestEstimation:
    def test_fill_row_handles_multiple_holes(self, correlated_model):
        row = np.array([5.0, np.nan, 2.5, np.nan, 7.5])
        filled = correlated_model.fill_row(row)
        assert not np.isnan(filled).any()
        assert filled[0] == 5.0

    def test_fill_matrix(self, correlated_model, correlated_matrix):
        punched = correlated_matrix[:10].copy()
        punched[3, 2] = np.nan
        filled = correlated_model.fill(punched)
        assert not np.isnan(filled).any()
        # Low-noise rank-2 data: reconstruction lands close to the truth.
        assert abs(filled[3, 2] - correlated_matrix[3, 2]) < 1.0

    def test_predict_holes_matches_fill_row(self, correlated_model, correlated_matrix):
        test = correlated_matrix[:6]
        holes = [1, 4]
        batch = correlated_model.predict_holes(test, holes)
        for i in range(test.shape[0]):
            row = test[i].copy()
            row[holes] = np.nan
            filled = correlated_model.fill_row(row)
            np.testing.assert_allclose(batch[i], filled[holes], atol=1e-9)

    @pytest.mark.parametrize("holes", [[0], [2], [1, 4]])
    def test_predict_holes_equals_fill_row_bit_for_bit(
        self, correlated_model, correlated_matrix, holes
    ):
        """A row predicted inside a batch, or alone, gets fill_row's bits."""
        test = correlated_matrix[:40]
        batch = correlated_model.predict_holes(test, holes)
        for i in range(test.shape[0]):
            row = test[i].copy()
            row[holes] = np.nan
            filled = correlated_model.fill_row(row)[holes]
            assert batch[i].tobytes() == filled.tobytes()
            alone = correlated_model.predict_holes(test[i : i + 1], holes)[0]
            assert alone.tobytes() == filled.tobytes()

    def test_predict_holes_column_order_respected(
        self, correlated_model, correlated_matrix
    ):
        test = correlated_matrix[:4]
        forward = correlated_model.predict_holes(test, [1, 3])
        backward = correlated_model.predict_holes(test, [3, 1])
        np.testing.assert_allclose(forward[:, 0], backward[:, 1])
        np.testing.assert_allclose(forward[:, 1], backward[:, 0])

    def test_predict_holes_ignores_target_values(
        self, correlated_model, correlated_matrix
    ):
        """The prediction must not peek at the hidden column."""
        test = correlated_matrix[:5].copy()
        baseline_prediction = correlated_model.predict_holes(test, [2])
        test[:, 2] = 1e6  # corrupt the target column wildly
        corrupted_prediction = correlated_model.predict_holes(test, [2])
        np.testing.assert_allclose(baseline_prediction, corrupted_prediction)


class TestProjection:
    def test_transform_shape(self, correlated_model, correlated_matrix):
        coords = correlated_model.transform(correlated_matrix)
        assert coords.shape == (300, correlated_model.k)

    def test_transform_single_row(self, correlated_model, correlated_matrix):
        coords = correlated_model.transform(correlated_matrix[0])
        assert coords.shape == (1, correlated_model.k)

    def test_inverse_transform_round_trip(self, correlated_model, correlated_matrix):
        """On near-rank-k data, transform -> inverse is near-identity."""
        coords = correlated_model.transform(correlated_matrix)
        restored = correlated_model.inverse_transform(coords)
        error = np.abs(restored - correlated_matrix).max()
        assert error < 0.5  # noise-scale, not data-scale (data spans ~30)

    def test_reconstruct_is_projection(self, correlated_model, correlated_matrix):
        """Reconstructing twice equals reconstructing once (idempotent)."""
        once = correlated_model.reconstruct(correlated_matrix)
        twice = correlated_model.reconstruct(once)
        np.testing.assert_allclose(once, twice, atol=1e-8)


class TestPersistence:
    def test_save_load_round_trip(self, correlated_model, correlated_matrix, tmp_path):
        path = tmp_path / "model.npz"
        correlated_model.save(path)
        restored = RatioRuleModel.load(path)
        np.testing.assert_allclose(
            restored.rules_matrix, correlated_model.rules_matrix
        )
        np.testing.assert_allclose(restored.means_, correlated_model.means_)
        assert restored.n_rows_ == correlated_model.n_rows_
        assert restored.schema_.names == correlated_model.schema_.names
        # The restored model predicts identically.
        row = np.array([5.0, np.nan, 2.5, 15.0, 7.5])
        np.testing.assert_allclose(
            restored.fill_row(row), correlated_model.fill_row(row)
        )

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            RatioRuleModel().save(tmp_path / "nope.npz")


class TestDescribe:
    def test_describe_contains_rules(self, correlated_model):
        text = correlated_model.describe()
        assert "RR1" in text
        assert "Ratio Rules" in text
