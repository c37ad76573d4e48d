"""The closed-form single-hole kernel against the per-column fill loop.

:func:`leave_one_out_errors` gets every hide-one-cell error from one
projector (the PRESS identity); :func:`hole_fill_errors` hides each
column in turn and re-fills it with ``predict_holes``.  The two must
agree to rounding, the kernel must fall back to the loop exactly where
the closed form does not hold, and every caller that moved onto the
kernel (cell outliers, repair, GE1) must give the answers the loop gave.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.column_average import ColumnAverageBaseline
from repro.core.cleaning import repair_corrupted
from repro.core.guessing_error import single_hole_error
from repro.core.model import RatioRuleModel
from repro.core.outliers import (
    CellOutlier,
    detect_cell_outliers,
    hole_fill_errors,
    leave_one_out_errors,
)
from repro.core.rules import RuleSet

#: Relative gap under which two error magnitudes count as a near-tie.
TIE_RTOL = 1e-9


def _latent_matrix(seed: int, n_rows: int, n_cols: int, n_factors: int):
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(n_factors, n_cols))
    scores = rng.normal(size=(n_rows, n_factors))
    noise = rng.normal(0.0, 0.3, size=(n_rows, n_cols))
    return scores @ loadings + noise + rng.normal(0.0, 5.0, size=n_cols)


def _assert_matches_loop(model, matrix) -> None:
    kernel = leave_one_out_errors(model, matrix)
    loop = hole_fill_errors(model, matrix)
    scale = float(np.abs(loop).max())
    np.testing.assert_allclose(kernel, loop, rtol=1e-10, atol=1e-10 * scale)
    magnitudes = np.sort(np.abs(loop), axis=1)
    decided = magnitudes[:, -1] - magnitudes[:, -2] > TIE_RTOL * magnitudes[:, -1]
    np.testing.assert_array_equal(
        np.abs(kernel).argmax(axis=1)[decided], np.abs(loop).argmax(axis=1)[decided]
    )


def _with_rules(model: RatioRuleModel, rules: np.ndarray) -> RatioRuleModel:
    """``model`` with its rule matrix swapped for ``rules``."""
    model.rules_ = RuleSet.from_eigen(
        model.eigenvalues_[: rules.shape[1]],
        rules,
        model.total_variance_,
        model.schema_,
    )
    return model


class TestAgainstTheLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_cols=st.integers(3, 14),
        k=st.integers(1, 6),
        backend=st.sampled_from(["numpy", "jacobi", "lanczos"]),
    )
    @example(seed=0, n_cols=4, k=3, backend="numpy")  # M - 1 == k
    @example(seed=1, n_cols=9, k=8, backend="numpy")  # M - 1 == k, wider
    def test_matches_predict_holes_loop(self, seed, n_cols, k, backend):
        k = min(k, n_cols - 1)
        train = _latent_matrix(seed, 120, n_cols, k)
        model = RatioRuleModel(cutoff=k, backend=backend).fit(train)
        rng = np.random.default_rng(seed + 1)
        test = train[:30] + rng.normal(0.0, 2.0, size=(30, n_cols))
        _assert_matches_loop(model, test)

    def test_exactly_specified_falls_back_to_the_loop(self):
        train = _latent_matrix(3, 100, 4, 3)
        model = RatioRuleModel(cutoff=3).fit(train)
        assert model.k == train.shape[1] - 1
        np.testing.assert_array_equal(
            leave_one_out_errors(model, train), hole_fill_errors(model, train)
        )

    def test_unit_vector_rule_falls_back_to_the_loop(self):
        """A rule equal to ``e_j`` has ``h_jj = 1``: hiding column j
        leaves that rule nothing to stand on, and the fill path's
        pseudo-inverse cuts it.  The closed form would divide by 0."""
        train = _latent_matrix(4, 100, 6, 2)
        model = RatioRuleModel(cutoff=2).fit(train)
        rules = model.rules_matrix
        rules[:, 1] = 0.0
        rules[3, 1] = 1.0
        rules[3, 0] = 0.0
        rules[:, 0] /= np.linalg.norm(rules[:, 0])
        model = _with_rules(model, rules)
        errors = leave_one_out_errors(model, train)
        assert np.isfinite(errors).all()
        np.testing.assert_array_equal(errors, hole_fill_errors(model, train))

    @pytest.mark.parametrize("backend", ["jacobi", "lanczos"])
    def test_other_eigen_backends(self, backend):
        train = _latent_matrix(5, 200, 10, 3)
        model = RatioRuleModel(cutoff=3, backend=backend).fit(train)
        _assert_matches_loop(model, train)

    def test_non_orthonormal_rules(self):
        """P is built from V itself, so scaled and sheared rules work."""
        train = _latent_matrix(6, 150, 8, 2)
        model = RatioRuleModel(cutoff=2).fit(train)
        rules = model.rules_matrix @ np.array([[3.0, 0.5], [0.0, 0.2]])
        _assert_matches_loop(_with_rules(model, rules), train)

    def test_estimator_without_rules_uses_the_loop(self):
        train = _latent_matrix(7, 80, 5, 2)
        baseline = ColumnAverageBaseline().fit(train)
        np.testing.assert_array_equal(
            leave_one_out_errors(baseline, train), hole_fill_errors(baseline, train)
        )

    def test_rejects_1d(self):
        model = RatioRuleModel(cutoff=1).fit(_latent_matrix(8, 50, 4, 1))
        with pytest.raises(ValueError, match="2-d"):
            leave_one_out_errors(model, np.zeros(4))


# -- callers: the answers the per-column loop gave ---------------------------


def _loop_cell_outliers(model, matrix, n_sigmas) -> List[CellOutlier]:
    """``detect_cell_outliers`` as written with one fill per column."""
    outliers = []
    for column in range(matrix.shape[1]):
        predictions = model.predict_holes(matrix, [column])[:, 0]
        errors = matrix[:, column] - predictions
        scale = float(errors.std())
        if scale == 0.0:
            continue
        z_scores = errors / scale
        for row in np.nonzero(np.abs(z_scores) > n_sigmas)[0]:
            outliers.append(
                CellOutlier(
                    int(row),
                    column,
                    float(matrix[row, column]),
                    float(predictions[row]),
                    float(z_scores[row]),
                )
            )
    outliers.sort(key=lambda o: -abs(o.z_score))
    return outliers


def _loop_repair(model, matrix, n_sigmas=3.0, max_rounds=3) -> np.ndarray:
    """``repair_corrupted``'s cleaned matrix, via the loop detector."""
    cleaned = matrix.copy()
    repaired = set()
    for _round in range(max_rounds):
        outliers = [
            o
            for o in _loop_cell_outliers(model, cleaned, n_sigmas)
            if (o.row, o.column) not in repaired
        ]
        if not outliers:
            break
        for o in outliers:
            cleaned[o.row, o.column] = o.predicted
            repaired.add((o.row, o.column))
    return cleaned


def _cells(outliers) -> List[Tuple[int, int, bytes, bytes]]:
    return sorted(
        (
            o.row,
            o.column,
            np.float64(o.actual).tobytes(),
            np.float64(o.predicted).tobytes(),
        )
        for o in outliers
    )


@pytest.fixture(params=["numpy", "lanczos"])
def corrupted_case(request):
    train = _latent_matrix(11, 400, 7, 2)
    model = RatioRuleModel(cutoff=2, backend=request.param).fit(train)
    corrupted = train[:150].copy()
    corrupted[5, 2] += 40.0
    corrupted[17, 0] -= 25.0
    corrupted[42, 6] += 60.0
    corrupted[42, 3] -= 9.0
    corrupted[99, 4] += 15.0
    return model, corrupted


class TestCallersMatchTheLoop:
    @pytest.mark.parametrize("n_sigmas", [2.0, 3.0, 4.0])
    def test_detect_cell_outliers_same_cells_same_bytes(self, corrupted_case, n_sigmas):
        model, corrupted = corrupted_case
        got = detect_cell_outliers(model, corrupted, n_sigmas=n_sigmas)
        want = _loop_cell_outliers(model, corrupted, n_sigmas)
        assert got, "the fixture's corruptions must be flagged"
        assert _cells(got) == _cells(want)
        assert [(o.row, o.column) for o in got] == [(o.row, o.column) for o in want]
        np.testing.assert_allclose(
            [o.z_score for o in got], [o.z_score for o in want], rtol=1e-10
        )

    def test_repair_corrupted_same_bytes(self, corrupted_case):
        model, corrupted = corrupted_case
        report = repair_corrupted(model, corrupted)
        assert report.n_repairs > 0
        assert report.cleaned.tobytes() == _loop_repair(model, corrupted).tobytes()

    def test_ge1_matches_the_loop(self, corrupted_case):
        model, corrupted = corrupted_case
        report = single_hole_error(model, corrupted)
        errors = hole_fill_errors(model, corrupted)
        assert report.value == pytest.approx(
            float(np.sqrt((errors**2).mean())), rel=1e-12
        )
        for column, rms in report.per_column.items():
            assert rms == pytest.approx(
                float(np.sqrt((errors[:, column] ** 2).mean())), rel=1e-12
            )
