"""One-sided (Hestenes) Jacobi SVD: the from-scratch reference solver.

The paper computes Ratio Rules with "an off-the-shelf eigensystem
package" and cites Numerical Recipes [17]; the library does the same
with LAPACK.  This module is the independent check on that package.
One-sided Jacobi rotates pairs of columns of ``A`` until every pair is
orthogonal to working precision.  The column norms are then the
singular values, the normalized columns the left singular vectors, and
the accumulated rotations the right singular vectors.  It never forms
``A^t A``, so it does not square the condition number, which makes it
a fair referee for :func:`repro.linalg.svd.pseudo_inverse`.

On a symmetric PSD matrix (a scatter matrix) the singular values are
the eigenvalues and the right singular vectors are eigenvectors, so
:func:`repro.linalg.eigen.solve_eigensystem` uses it as its
``"jacobi"`` backend.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["jacobi_svd", "JacobiNotConverged"]

#: Default maximum number of full sweeps before giving up.
DEFAULT_MAX_SWEEPS = 60


class JacobiNotConverged(RuntimeError):
    """Raised when the sweeps leave some column pair non-orthogonal."""


def jacobi_svd(
    matrix: np.ndarray, *, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U diag(s) V^t`` by cyclic one-sided Jacobi.

    Parameters
    ----------
    matrix:
        Any finite, non-empty real ``m x n`` matrix.
    max_sweeps:
        Maximum number of sweeps over all column pairs.

    Returns
    -------
    (u, s, vt):
        ``u`` is ``m x r`` and ``vt`` is ``r x n`` with ``r = min(m, n)``;
        ``s`` holds the singular values in descending order.  Columns of
        ``u`` that belong to a zero singular value are zero.

    Raises
    ------
    JacobiNotConverged
        If ``max_sweeps`` sweeps do not orthogonalize every column pair.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"matrix must be 2-d and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    rows, cols = a.shape
    if rows < cols:
        v, singular, ut = jacobi_svd(a.T, max_sweeps=max_sweeps)
        return ut.T, singular, v.T

    # Scale by a power of two (exact) so the largest entry is ~1.  Row j
    # of ``work`` holds column j of A V followed by column j of V, so one
    # rotation of two rows updates both factors.
    exponent = int(np.frexp(np.abs(a).max())[1])
    work = np.hstack([np.ldexp(a.T, -exponent), np.eye(cols)])
    tol = rows * np.finfo(np.float64).eps
    # A column with squared norm below ``negligible`` is numerically zero
    # next to the unit-scale ones; its inner products would sit in the
    # underflow range, where rotating it would never settle.
    negligible = np.finfo(np.float64).tiny / np.finfo(np.float64).eps ** 2
    for _sweep in range(max_sweeps):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                x, y = work[p, :rows], work[q, :rows]
                alpha, beta, gamma = x @ x, y @ y, x @ y
                if min(alpha, beta) < negligible:
                    continue
                if abs(gamma) <= tol * np.sqrt(alpha) * np.sqrt(beta):
                    continue
                # t = tan(theta) is the smaller root of t^2 + 2 zeta t = 1.
                # zeta reaches ~1e292 here, so zeta^2 would overflow; hypot
                # does not, and a huge zeta gives t ~ 1/(2 zeta).
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.copysign(1.0, zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                old_p = work[p].copy()
                work[p] = c * old_p - s * work[q]
                work[q] = s * old_p + c * work[q]
                rotated = True
        if not rotated:
            break
    else:
        raise JacobiNotConverged(
            f"one-sided Jacobi left column pairs non-orthogonal after "
            f"{max_sweeps} sweeps"
        )

    norms = np.linalg.norm(work[:, :rows], axis=1)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    u = np.divide(
        work[order, :rows].T, norms, out=np.zeros((rows, cols)), where=norms > 0.0
    )
    return u, np.ldexp(norms, exponent), work[order, rows:]
