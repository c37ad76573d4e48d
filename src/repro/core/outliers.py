"""Outlier detection with Ratio Rules.

Sec. 4.4 of the paper: "discover outliers by hiding a cell value,
reconstructing it, and comparing the reconstructed value to the hidden
value.  A value is an outlier when its predicted value is significantly
different (e.g., two standard deviations away) from the existing hidden
value."

Two granularities are provided:

- **cell outliers** (:func:`detect_cell_outliers`) -- the paper's
  hide/reconstruct/compare procedure, flagging individual cells whose
  reconstruction error is more than ``n_sigmas`` standard deviations of
  that column's reconstruction-error distribution;
- **row outliers** (:func:`detect_row_outliers`) -- rows far from the
  RR-hyperplane as a whole (residual of the rank-``k`` reconstruction),
  which is how Jordan and Rodman pop out of Fig. 11.

Hiding one cell of an ``M``-wide row leaves the over-specified CASE 2
solve (Fig. 3, Eq. 8), a least-squares fit of the ``M - 1`` known
entries onto the rules.  The PRESS (hat-matrix) identity then gives
every single-hole error of a row from its full-row residual, so
:func:`leave_one_out_errors` scores all ``N x M`` hidden cells from one
projector instead of ``M`` fill operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

__all__ = [
    "CellOutlier",
    "ResidualCalibration",
    "RowOutlier",
    "RowScore",
    "calibrate_residuals",
    "detect_cell_outliers",
    "detect_row_outliers",
    "hole_fill_errors",
    "leave_one_out_errors",
    "reconstruction_residuals",
    "score_rows",
]

#: The paper's example threshold: two standard deviations.
DEFAULT_N_SIGMAS = 2.0

#: Smallest ``1 - h_jj`` (scaled by the rules' squared condition
#: number) the closed form is trusted with.  Closer to 1, hiding column
#: ``j`` leaves a known block whose smallest singular value falls near
#: the ``rcond = 1e-7`` cut of :func:`repro.linalg.svd.pseudo_inverse`,
#: and the fill path drops a direction the closed form would keep.
_MIN_LEVERAGE_GAP = 1e-12


@dataclass(frozen=True)
class CellOutlier:
    """One flagged cell.

    Attributes
    ----------
    row, column:
        Position in the matrix.
    actual:
        The observed value.
    predicted:
        The value the rules reconstruct when the cell is hidden.
    z_score:
        Reconstruction error in units of that column's error stddev.
    """

    row: int
    column: int
    actual: float
    predicted: float
    z_score: float


@dataclass(frozen=True)
class RowOutlier:
    """One flagged row.

    Attributes
    ----------
    row:
        Row index in the matrix.
    residual:
        Euclidean distance from the row to its rank-``k`` reconstruction.
    z_score:
        Residual in units of the residual distribution's stddev.
    """

    row: int
    residual: float
    z_score: float


def detect_cell_outliers(
    model,
    matrix: np.ndarray,
    *,
    n_sigmas: float = DEFAULT_N_SIGMAS,
) -> List[CellOutlier]:
    """Flag cells whose hidden-value reconstruction misses badly.

    For every column ``j``, every cell of that column is hidden (one at
    a time), reconstructed from the rest of its row, and the per-column
    error distribution is used to flag cells more than ``n_sigmas``
    standard deviations out.  The errors of all cells come from one
    :func:`leave_one_out_errors` call; each flagged cell's ``predicted``
    value then comes from ``model.predict_holes`` on the flagged rows
    only, so it is the fill path's value bit for bit.

    Parameters
    ----------
    model:
        A fitted estimator exposing ``predict_holes`` (e.g.
        :class:`~repro.core.model.RatioRuleModel`).
    matrix:
        Complete ``N x M`` matrix to audit.
    n_sigmas:
        Flagging threshold (the paper suggests 2).

    Returns
    -------
    list of CellOutlier
        Sorted by decreasing ``|z_score|``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    if n_sigmas <= 0:
        raise ValueError(f"n_sigmas must be > 0, got {n_sigmas}")
    errors = leave_one_out_errors(model, matrix)
    outliers: List[CellOutlier] = []
    for column in range(matrix.shape[1]):
        scale = float(errors[:, column].std())
        if scale == 0.0:
            continue  # perfectly reconstructed column: nothing to flag
        z_scores = errors[:, column] / scale
        flagged = np.nonzero(np.abs(z_scores) > n_sigmas)[0]
        if flagged.size == 0:
            continue
        predictions = model.predict_holes(matrix[flagged], [column])[:, 0]
        for row, predicted in zip(flagged, predictions):
            outliers.append(
                CellOutlier(
                    row=int(row),
                    column=column,
                    actual=float(matrix[row, column]),
                    predicted=float(predicted),
                    z_score=float(z_scores[row]),
                )
            )
    outliers.sort(key=lambda o: -abs(o.z_score))
    return outliers


def detect_row_outliers(
    model,
    matrix: np.ndarray,
    *,
    n_sigmas: float = DEFAULT_N_SIGMAS,
) -> List[RowOutlier]:
    """Flag rows far from the RR-hyperplane.

    The residual of row ``i`` is ``||x_i - reconstruct(x_i)||`` -- the
    energy of the row *outside* the kept rules.  Rows whose residual is
    more than ``n_sigmas`` standard deviations above the mean residual
    are flagged.

    Returns
    -------
    list of RowOutlier
        Sorted by decreasing residual.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    if n_sigmas <= 0:
        raise ValueError(f"n_sigmas must be > 0, got {n_sigmas}")
    reconstructed = model.reconstruct(matrix)
    residuals = np.linalg.norm(matrix - reconstructed, axis=1)
    mean = float(residuals.mean())
    scale = float(residuals.std())
    if scale == 0.0:
        return []
    z_scores = (residuals - mean) / scale
    flagged = np.nonzero(z_scores > n_sigmas)[0]
    outliers = [
        RowOutlier(row=int(i), residual=float(residuals[i]), z_score=float(z_scores[i]))
        for i in flagged
    ]
    outliers.sort(key=lambda o: -o.residual)
    return outliers


def reconstruction_residuals(model, matrix: np.ndarray) -> np.ndarray:
    """Per-row distance to the RR-hyperplane (the raw outlier scores)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.linalg.norm(matrix - model.reconstruct(matrix), axis=1)


def hole_fill_errors(model, matrix: np.ndarray) -> np.ndarray:
    """Signed single-hole errors ``x_ij - x_hat_ij``, one fill per column.

    The reference definition: column ``j`` of every row is hidden and
    re-filled by ``model.predict_holes`` (one fill operator per column).
    Works for any estimator with ``predict_holes``;
    :func:`leave_one_out_errors` is the fast path for Ratio Rule models.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    errors = np.empty(matrix.shape)
    for column in range(matrix.shape[1]):
        predicted = model.predict_holes(matrix, [column])[:, 0]
        errors[:, column] = matrix[:, column] - predicted
    return errors


def leave_one_out_errors(model, matrix: np.ndarray) -> np.ndarray:
    """Signed single-hole errors ``x_ij - x_hat_ij`` of every cell at once.

    Hiding cell ``j`` and solving the over-specified system is a
    least-squares fit that leaves out one equation, so by the PRESS
    identity its error is ``e_j / (1 - h_jj)``, where
    ``e = (I - P)(x - means)`` is the row's full residual,
    ``P = V (V^T V)^-1 V^T`` projects onto the rules and ``h = diag(P)``
    holds their leverages.  ``P`` is built once per call (``V`` need not
    be orthonormal), so all ``N x M`` errors cost two thin products
    instead of ``M`` fill operators.

    The result equals :func:`hole_fill_errors` up to rounding.  That
    per-column loop is used instead when the closed form does not hold:
    for estimators without a rule matrix, when hiding one column leaves
    ``M - 1 <= k`` equations (the exactly- and under-specified cases),
    and when some ``1 - h_jj`` is so close to 0 that the fill path's
    pseudo-inverse would cut a direction (a rule nearly confined to one
    column).  Callers never need to branch.

    The errors are meant for scoring and ranking; a value written back
    into data should come from the fill path itself
    (``fill_row`` / ``predict_holes``).

    Returns
    -------
    numpy.ndarray
        ``N x M`` errors, same layout as ``matrix``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    rules = getattr(model, "rules_matrix", None)
    if rules is None or matrix.shape[1] - 1 <= rules.shape[1]:
        return hole_fill_errors(model, matrix)
    gram = rules.T @ rules
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues[0] <= 0.0:
        return hole_fill_errors(model, matrix)
    # Rows of ``hat`` are (V^T V)^-1 V_j^T, so P = V @ hat and
    # h_jj = V_j . hat_j; a zero rule row gives an exactly zero P column.
    hat = np.linalg.solve(gram, rules.T).T
    gap = 1.0 - np.einsum("jk,jk->j", rules, hat)
    if gap.min() <= _MIN_LEVERAGE_GAP * eigenvalues[-1] / eigenvalues[0]:
        return hole_fill_errors(model, matrix)
    centered = matrix - model.means_
    residuals = centered - (centered @ rules) @ hat.T
    return residuals / gap


@dataclass(frozen=True)
class RowScore:
    """Outlier verdict for one streamed row.

    Unlike :class:`RowOutlier` (which normalizes within the scored
    batch), the ``z_score`` here is relative to a persistent
    :class:`ResidualCalibration`, so a batch of one row can still be
    judged against history.
    """

    row: int
    residual: float
    z_score: float
    is_outlier: bool


class ResidualCalibration:
    """Streaming estimate of the residual distribution (batch merges).

    :func:`detect_row_outliers` normalizes residuals *within* the
    scored batch, which collapses for the streaming case: a batch of
    one row has zero variance, and a batch that is mostly outliers
    inflates its own threshold.  This class accumulates the residual
    mean/variance across every clean row ever observed, so each new
    row is z-scored against the full history.

    The accumulator only becomes ``ready`` after ``min_rows``
    observations with nonzero spread; callers should pass rows through
    unscored until then.
    """

    def __init__(self, min_rows: int = 32) -> None:
        if min_rows < 2:
            raise ValueError(f"min_rows must be >= 2, got {min_rows}")
        self.min_rows = int(min_rows)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def n_observed(self) -> int:
        """Rows folded into the calibration so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean residual of the observed rows."""
        return self._mean

    @property
    def std(self) -> float:
        """Population standard deviation of the observed residuals."""
        if self._count < 2:
            return 0.0
        return float(np.sqrt(self._m2 / self._count))

    @property
    def ready(self) -> bool:
        """Whether enough spread has been seen to score rows."""
        return self._count >= self.min_rows and self.std > 0.0

    def observe(self, residuals: np.ndarray) -> None:
        """Fold a batch of residuals into the running distribution.

        The batch's own count, mean and sum of squared deviations are
        merged into the running ones in one step (Chan, Golub and
        LeVeque's pairwise update, as
        :class:`~repro.core.covariance.StreamingCovariance` merges
        co-moments).  This agrees with folding the values one at
        a time up to rounding, not bit for bit.  An empty batch is a
        no-op; a non-finite residual raises, since one NaN would turn
        the mean and spread into NaN and stop every later row from
        scoring.
        """
        values = np.atleast_1d(np.asarray(residuals, dtype=np.float64))
        if values.ndim != 1:
            raise ValueError(f"residuals must be 1-d, got ndim={values.ndim}")
        if not values.size:
            return
        if not np.isfinite(values).all():
            raise ValueError("residuals must be finite")
        count = values.size
        mean = float(values.mean())
        deviations = values - mean
        m2 = float(deviations @ deviations)
        total = self._count + count
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * (self._count * count / total)
        self._mean += delta * (count / total)
        self._count = total

    def z_scores(self, residuals: np.ndarray) -> np.ndarray:
        """Residuals in units of the calibrated distribution's stddev."""
        if not self.ready:
            raise ValueError(
                f"calibration not ready: {self._count} observed rows "
                f"(need {self.min_rows}) with std {self.std}"
            )
        values = np.atleast_1d(np.asarray(residuals, dtype=np.float64))
        return (values - self._mean) / self.std

    def copy(self) -> "ResidualCalibration":
        """An independent clone (reuse one warm calibration many times)."""
        clone = ResidualCalibration(min_rows=self.min_rows)
        clone._count = self._count
        clone._mean = self._mean
        clone._m2 = self._m2
        return clone

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (for status reporting)."""
        return {
            "min_rows": self.min_rows,
            "n_observed": self._count,
            "mean": self._mean,
            "std": self.std,
            "ready": self.ready,
        }


def score_rows(
    model,
    matrix: np.ndarray,
    calibration: ResidualCalibration,
    *,
    n_sigmas: float = DEFAULT_N_SIGMAS,
) -> List[RowScore]:
    """Score every row of ``matrix`` against a calibrated distribution.

    This is the streaming complement of :func:`detect_row_outliers`:
    residuals are z-scored against ``calibration`` (history), not
    within the batch, and *every* row gets a verdict, not just the
    flagged ones.

    The calibration must be :attr:`ResidualCalibration.ready`; the
    caller decides what to do with rows that arrive before then
    (typically pass them through unscored).
    """
    if n_sigmas <= 0:
        raise ValueError(f"n_sigmas must be > 0, got {n_sigmas}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    residuals = reconstruction_residuals(model, matrix)
    z_scores = calibration.z_scores(residuals)
    # A non-finite z (a NaN or infinite cell) is an outlier, as the watch
    # daemon routes it: ``nan > n_sigmas`` alone would pass it as clean.
    outliers = ~(np.isfinite(z_scores) & (z_scores <= n_sigmas))
    return [
        RowScore(
            row=int(i),
            residual=float(residuals[i]),
            z_score=float(z_scores[i]),
            is_outlier=bool(outliers[i]),
        )
        for i in range(matrix.shape[0])
    ]


def calibrate_residuals(
    model,
    matrix: np.ndarray,
    *,
    min_rows: int = 32,
) -> ResidualCalibration:
    """Build a :class:`ResidualCalibration` from a reference matrix.

    Convenience for warm-starting a daemon from the data the published
    model was fitted on (or any batch trusted to be clean).
    """
    calibration = ResidualCalibration(min_rows=min_rows)
    calibration.observe(reconstruction_residuals(model, matrix))
    return calibration
