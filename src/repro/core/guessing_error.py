"""The "guessing error": the paper's goodness measure for rule sets.

Sec. 4.3 defines the single-hole guessing error ``GE1`` (Eq. 3) -- hide
one cell at a time, reconstruct it from the rest of the row, and take
the root-mean-square error over every cell of the test matrix -- and
its ``h``-hole generalization ``GEh`` (Eq. 4), where ``h`` cells are
hidden simultaneously and ``Hh`` is "some subset" of the ``C(M, h)``
possible hole sets.

The measure applies to *any* estimator that can fill holes, which is
precisely the point of the paper: it lets Ratio Rules be compared
head-to-head against the ``col-avgs`` straw man, regression, or any
future rule paradigm.  Estimators plug in through a tiny protocol:

- ``fill_row(row_with_nans) -> filled_row`` (required), and/or
- ``predict_holes(matrix, hole_indices) -> predictions`` (optional
  batch fast path; one call per hole pattern instead of one per row).

For a :class:`~repro.core.model.RatioRuleModel`, ``GE1`` takes every
single-hole error from one closed-form
:func:`~repro.core.outliers.leave_one_out_errors` call instead of one
fill operator per column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import RatioRuleModel
from repro.core.outliers import leave_one_out_errors

__all__ = [
    "GuessingErrorReport",
    "enumerate_hole_sets",
    "guessing_error",
    "single_hole_error",
    "relative_guessing_error",
]

#: Cap on the number of hole sets evaluated for GEh before sampling.
DEFAULT_MAX_HOLE_SETS = 200


@dataclass(frozen=True)
class GuessingErrorReport:
    """Result of a guessing-error evaluation.

    Attributes
    ----------
    value:
        The root-mean-square guessing error (``GEh`` of Eq. 4; equals
        ``GE1`` of Eq. 3 when ``h == 1``).
    h:
        Number of simultaneous holes.
    n_rows:
        Test rows evaluated.
    hole_sets:
        The hole sets ``Hh`` actually used.
    per_column:
        For ``h == 1`` only: RMS error per hidden column, keyed by
        column index.  Empty for ``h > 1``.
    """

    value: float
    h: int
    n_rows: int
    hole_sets: Tuple[Tuple[int, ...], ...]
    per_column: Dict[int, float] = field(default_factory=dict)

    @property
    def n_hole_sets(self) -> int:
        """Number of hole sets evaluated."""
        return len(self.hole_sets)


def enumerate_hole_sets(
    n_cols: int,
    h: int,
    *,
    max_hole_sets: int = DEFAULT_MAX_HOLE_SETS,
    seed: int = 0,
) -> Tuple[Tuple[int, ...], ...]:
    """The hole-set family ``Hh``: exhaustive when small, sampled when not.

    All ``C(n_cols, h)`` combinations are used when that count is at
    most ``max_hole_sets``; otherwise ``max_hole_sets`` distinct
    combinations are drawn uniformly at random (deterministic in
    ``seed``).
    """
    if not 1 <= h <= n_cols:
        raise ValueError(f"h must be in [1, {n_cols}], got {h}")
    total = math.comb(n_cols, h)
    if total <= max_hole_sets:
        return tuple(itertools.combinations(range(n_cols), h))
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < max_hole_sets:
        candidate = tuple(sorted(rng.choice(n_cols, size=h, replace=False).tolist()))
        seen.add(candidate)
    return tuple(sorted(seen))


def _predict_pattern(estimator, matrix: np.ndarray, holes: Sequence[int]) -> np.ndarray:
    """Predict the hole cells for every row, via the batch fast path if any."""
    predict_holes = getattr(estimator, "predict_holes", None)
    if callable(predict_holes):
        return np.asarray(predict_holes(matrix, list(holes)), dtype=np.float64)
    # Generic fallback: punch holes row by row and fill.
    holes = list(holes)
    predictions = np.empty((matrix.shape[0], len(holes)))
    for i in range(matrix.shape[0]):
        row = matrix[i].copy()
        row[holes] = np.nan
        filled = np.asarray(estimator.fill_row(row), dtype=np.float64)
        predictions[i] = filled[holes]
    return predictions


def guessing_error(
    estimator,
    test_matrix: np.ndarray,
    *,
    h: int = 1,
    hole_sets: Optional[Sequence[Sequence[int]]] = None,
    max_hole_sets: int = DEFAULT_MAX_HOLE_SETS,
    seed: int = 0,
) -> GuessingErrorReport:
    """Compute ``GEh`` (Eq. 4) of ``estimator`` on ``test_matrix``.

    Parameters
    ----------
    estimator:
        Any object with ``fill_row`` (and optionally the batch
        ``predict_holes``) -- a fitted
        :class:`~repro.core.model.RatioRuleModel`, a baseline, etc.
    test_matrix:
        Complete ``N x M`` test matrix (the ground truth).
    h:
        Number of simultaneous holes.
    hole_sets:
        Explicit ``Hh``; defaults to :func:`enumerate_hole_sets`.
    max_hole_sets, seed:
        Forwarded to :func:`enumerate_hole_sets` when sampling.

    Returns
    -------
    GuessingErrorReport
        Including per-column RMS errors when ``h == 1``.
    """
    test_matrix = np.asarray(test_matrix, dtype=np.float64)
    if test_matrix.ndim != 2:
        raise ValueError(f"test_matrix must be 2-d, got ndim={test_matrix.ndim}")
    if test_matrix.shape[0] == 0:
        raise ValueError("test_matrix has no rows")
    if np.isnan(test_matrix).any():
        raise ValueError(
            "test_matrix must be complete (no NaNs) -- it is the ground truth"
        )
    n_rows, n_cols = test_matrix.shape

    if hole_sets is None:
        sets = enumerate_hole_sets(n_cols, h, max_hole_sets=max_hole_sets, seed=seed)
    else:
        sets = tuple(tuple(sorted(int(i) for i in s)) for s in hole_sets)
        for s in sets:
            if len(s) != h:
                raise ValueError(f"hole set {s} does not have h={h} holes")
            if len(set(s)) != h:
                raise ValueError(f"hole set {s} contains duplicates")
            if s and (s[0] < 0 or s[-1] >= n_cols):
                raise ValueError(f"hole set {s} out of range for {n_cols} columns")
        if not sets:
            raise ValueError("hole_sets must be non-empty")

    errors = None
    if h == 1 and isinstance(estimator, RatioRuleModel):
        errors = leave_one_out_errors(estimator, test_matrix)
    squared_sum = 0.0
    per_column_sums: Dict[int, float] = {}
    for holes in sets:
        if errors is not None:
            squared = errors[:, list(holes)] ** 2
        else:
            predictions = _predict_pattern(estimator, test_matrix, holes)
            squared = (predictions - test_matrix[:, list(holes)]) ** 2
        squared_sum += float(squared.sum())
        if h == 1:
            per_column_sums[holes[0]] = float(squared.sum())

    denominator = n_rows * h * len(sets)
    value = math.sqrt(squared_sum / denominator)
    per_column = {
        col: math.sqrt(total / n_rows) for col, total in sorted(per_column_sums.items())
    }
    return GuessingErrorReport(
        value=value, h=h, n_rows=n_rows, hole_sets=sets, per_column=per_column
    )


def single_hole_error(estimator, test_matrix: np.ndarray) -> GuessingErrorReport:
    """``GE1`` (Eq. 3): every cell hidden once, exhaustively."""
    test_matrix = np.asarray(test_matrix, dtype=np.float64)
    n_cols = test_matrix.shape[1] if test_matrix.ndim == 2 else 0
    return guessing_error(
        estimator, test_matrix, h=1, max_hole_sets=max(n_cols, 1)
    )


def relative_guessing_error(
    estimator,
    baseline,
    test_matrix: np.ndarray,
    *,
    h: int = 1,
    max_hole_sets: int = DEFAULT_MAX_HOLE_SETS,
    seed: int = 0,
) -> float:
    """``GEh(estimator) / GEh(baseline)`` as a percentage.

    This is the normalization of the paper's Fig. 7 (where the baseline
    is ``col-avgs`` and its own ratio is by construction 100%).  Both
    estimators are evaluated on the *same* hole sets.
    """
    test_matrix = np.asarray(test_matrix, dtype=np.float64)
    sets = enumerate_hole_sets(
        test_matrix.shape[1], h, max_hole_sets=max_hole_sets, seed=seed
    )
    numerator = guessing_error(estimator, test_matrix, h=h, hole_sets=sets)
    denominator = guessing_error(baseline, test_matrix, h=h, hole_sets=sets)
    if denominator.value == 0.0:
        raise ZeroDivisionError("baseline guessing error is zero; ratio undefined")
    return 100.0 * numerator.value / denominator.value
