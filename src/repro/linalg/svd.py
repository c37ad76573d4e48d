"""Singular value decomposition and the Moore-Penrose pseudo-inverse.

The hole-filling algorithm's over-specified case (Sec. 4.4, CASE 2)
solves ``V' x = b'`` with more equations than unknowns by the
pseudo-inverse of ``V'`` (the paper's Eq. 7-9, following Numerical
Recipes [17]).  The SVD comes from LAPACK (``numpy.linalg.svd``) on
the matrix itself.  Working on ``A`` rather than on ``A^t A`` keeps the
condition number unsquared, so ``pseudo_inverse`` agrees with
``numpy.linalg.pinv`` to round-off even at condition numbers near
1e6.  A relative cutoff guards the rank-deficient cases.  The
from-scratch :func:`repro.linalg.jacobi.jacobi_svd` is the reference
the tests check this against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SVDResult", "svd_decompose", "pseudo_inverse", "least_squares_solve"]

#: Relative singular-value cutoff.  A direction whose singular value is
#: below ``DEFAULT_RCOND * s_max`` carries no rule information: filling
#: holes through it would scale noise in the known cells by more than
#: 1e7, so it is dropped (treated as an exact zero).
DEFAULT_RCOND = 1e-7


@dataclass(frozen=True)
class SVDResult:
    """A thin SVD ``A = U diag(s) V^t``.

    Attributes
    ----------
    u:
        ``m x r`` matrix of left singular vectors.
    singular_values:
        The ``r`` singular values in descending order (all > cutoff).
    vt:
        ``r x n`` matrix of right singular vectors (transposed).
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        """Numerical rank detected during the decomposition."""
        return int(self.singular_values.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together."""
        return self.u @ np.diag(self.singular_values) @ self.vt


def svd_decompose(matrix: np.ndarray, *, rcond: float = DEFAULT_RCOND) -> SVDResult:
    """Thin SVD of a dense matrix (LAPACK), truncated at the rank cutoff.

    Parameters
    ----------
    matrix:
        Any real ``m x n`` matrix.
    rcond:
        Singular values below ``rcond * max(singular_values)`` are
        dropped (treated as exact zeros), as are subnormal ones.

    Returns
    -------
    SVDResult
        Thin decomposition containing only the numerically nonzero
        singular triplets.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    if matrix.size == 0:
        raise ValueError(f"matrix must be non-empty, got shape {matrix.shape}")
    u, singular, vt = np.linalg.svd(matrix, full_matrices=False)
    # Below the smallest normal float a reciprocal overflows: treat as zero.
    cutoff = max(rcond * singular[0], np.finfo(np.float64).tiny)
    rank = int(np.count_nonzero(singular > cutoff))
    return SVDResult(u[:, :rank], singular[:rank], vt[:rank])


def pseudo_inverse(matrix: np.ndarray, *, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the SVD (the paper's Eq. 8).

    ``A+ = V diag(1 / s_j) U^t`` over the numerically nonzero singular
    values (all zeros for a rank-0 matrix).
    """
    result = svd_decompose(matrix, rcond=rcond)
    return (result.vt.T / result.singular_values) @ result.u.T


def least_squares_solve(
    matrix: np.ndarray, rhs: np.ndarray, *, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    This is the workhorse of the hole-filling CASE 2 (over-specified)
    and the degenerate fallbacks of CASE 1/3: it returns the exact
    solution when one exists, the least-squares solution when the
    system is inconsistent, and the minimum-norm representative when
    the system is rank-deficient.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    return pseudo_inverse(matrix, rcond=rcond) @ rhs
