"""Comparing Ratio Rule models: has the pattern changed?

A mined rule set is a snapshot of the data's correlation structure.
Production deployments re-mine periodically (or maintain an
:class:`~repro.core.online.OnlineRatioRuleModel`) and need to answer:
*did the rules actually change, or is the new model the same pattern
plus noise?*

The right yardstick for "same pattern" is not entry-wise closeness of
``V`` -- individual eigenvectors rotate freely inside near-degenerate
eigenvalue clusters -- but the **principal angles** between the two
rule subspaces: 0° everywhere means the models span the same space; a
large smallest-principal-angle means a genuinely new direction entered
the rules.

:func:`compare_models` packages that, plus the interpretable
per-quantity deltas (means shift, captured-variance change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.linalg.svd import svd_decompose

__all__ = ["ModelComparison", "principal_angles", "compare_models"]


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces.

    Parameters
    ----------
    basis_a, basis_b:
        ``M x k_a`` and ``M x k_b`` matrices with orthonormal columns
        (rule matrices qualify).  Angles are computed for the smaller
        of the two dimensions.

    Returns
    -------
    numpy.ndarray
        ``min(k_a, k_b)`` angles in ``[0, pi/2]``, ascending.
    """
    basis_a = np.asarray(basis_a, dtype=np.float64)
    basis_b = np.asarray(basis_b, dtype=np.float64)
    if basis_a.ndim != 2 or basis_b.ndim != 2:
        raise ValueError("bases must be 2-d")
    if basis_a.shape[0] != basis_b.shape[0]:
        raise ValueError(
            f"bases live in different spaces: {basis_a.shape[0]} vs {basis_b.shape[0]}"
        )
    # Singular values of A^t B are the cosines of the principal angles.
    cross = basis_a.T @ basis_b
    cosines = svd_decompose(cross).singular_values
    k = min(basis_a.shape[1], basis_b.shape[1])
    padded = np.zeros(k)
    padded[: cosines.shape[0]] = np.clip(cosines, -1.0, 1.0)
    return np.sort(np.arccos(padded))


@dataclass(frozen=True)
class ModelComparison:
    """Structured difference between two fitted models.

    Attributes
    ----------
    angles_degrees:
        Principal angles between the rule subspaces, ascending.
    mean_shift:
        Euclidean distance between the two column-mean vectors.
    mean_shift_relative:
        ``mean_shift`` over the norm of the first model's means (NaN
        when that norm is zero).
    k_a, k_b:
        Rule counts of the two models.
    energy_a, energy_b:
        Fraction of total variance the kept rules cover in each model.
    """

    angles_degrees: Tuple[float, ...]
    mean_shift: float
    mean_shift_relative: float
    k_a: int
    k_b: int
    energy_a: float
    energy_b: float

    @property
    def max_angle_degrees(self) -> float:
        """The largest principal angle -- the headline drift number."""
        return max(self.angles_degrees) if self.angles_degrees else 0.0

    def is_drifted(self, *, angle_threshold_degrees: float = 15.0) -> bool:
        """Heuristic: did the correlation structure materially change?

        True when the rule counts differ or any principal angle exceeds
        the threshold.
        """
        if self.k_a != self.k_b:
            return True
        return self.max_angle_degrees > angle_threshold_degrees

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        angles = ", ".join(f"{a:.1f}" for a in self.angles_degrees)
        lines = [
            f"Rule subspaces: k={self.k_a} vs k={self.k_b}; "
            f"principal angles (deg): [{angles}]",
            f"Column means moved by {self.mean_shift:.4g} "
            f"({self.mean_shift_relative:.1%} of the baseline norm)",
            f"Captured variance: {self.energy_a:.1%} -> {self.energy_b:.1%}",
        ]
        verdict = "DRIFTED" if self.is_drifted() else "stable"
        lines.append(f"Verdict (15 deg threshold): {verdict}")
        return "\n".join(lines)


def compare_models(model_a, model_b) -> ModelComparison:
    """Compare two fitted Ratio Rule models over the same schema.

    Parameters
    ----------
    model_a, model_b:
        Fitted :class:`~repro.core.model.RatioRuleModel` (or anything
        exposing ``rules_``, ``means_``, ``schema_``).

    Raises
    ------
    ValueError
        When the models disagree on columns.
    """
    if model_a.rules_ is None or model_b.rules_ is None:
        raise ValueError("both models must be fitted")
    if model_a.schema_.names != model_b.schema_.names:
        raise ValueError(
            "models cover different attributes: "
            f"{model_a.schema_.names} vs {model_b.schema_.names}"
        )
    angles = np.degrees(
        principal_angles(model_a.rules_.matrix, model_b.rules_.matrix)
    )
    mean_shift = float(np.linalg.norm(model_b.means_ - model_a.means_))
    baseline_norm = float(np.linalg.norm(model_a.means_))
    relative = mean_shift / baseline_norm if baseline_norm > 0 else float("nan")
    return ModelComparison(
        angles_degrees=tuple(float(a) for a in angles),
        mean_shift=mean_shift,
        mean_shift_relative=relative,
        k_a=model_a.rules_.k,
        k_b=model_b.rules_.k,
        energy_a=model_a.rules_.total_energy_fraction(),
        energy_b=model_b.rules_.total_energy_fraction(),
    )
