"""Uniform front-end over the eigensolver backends.

The model layer (:mod:`repro.core.model`) asks one question: "give me
the eigenpairs of this covariance matrix, best first".  This module
answers it for every backend, normalizing the quirks:

- eigenvalues sorted descending,
- tiny negative eigenvalues (round-off on a PSD matrix) clamped to 0,
- eigenvector signs canonicalized,
- a uniform ``k`` truncation including the iterative backends that
  never materialize the full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.linalg.jacobi import jacobi_svd
from repro.linalg.lanczos import lanczos_eigensystem
from repro.linalg.matrix_utils import canonicalize_sign, symmetrize

__all__ = ["EigenResult", "solve_eigensystem", "check_backend", "BACKENDS"]

#: Names accepted by :func:`solve_eigensystem`.  The first two are dense
#: (full spectrum); ``"lanczos"`` computes only the top ``k`` pairs.
BACKENDS = ("numpy", "jacobi", "lanczos")


def check_backend(backend: str) -> str:
    """Return ``backend`` unchanged, or raise ``ValueError`` if unknown."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs of a symmetric matrix, strongest first.

    Attributes
    ----------
    eigenvalues:
        Length-``k`` array, descending, clamped to be non-negative when
        the source matrix is PSD up to round-off.
    eigenvectors:
        ``M x k`` matrix, one unit-norm eigenvector per column, signs
        canonicalized (largest-|loading| entry positive).
    total_variance:
        Trace of the input matrix -- the full eigenvalue mass, needed by
        the 85%-energy cutoff (Eq. 1) even when only ``k < M``
        eigenvalues were computed.
    backend:
        Name of the backend that produced the result.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    total_variance: float
    backend: str

    @property
    def k(self) -> int:
        """Number of eigenpairs held."""
        return int(self.eigenvalues.shape[0])

    def energy_fractions(self) -> np.ndarray:
        """Cumulative eigenvalue mass as a fraction of ``total_variance``.

        ``energy_fractions()[i]`` is the left side of the paper's Eq. 1
        for a cutoff of ``i + 1`` rules.
        """
        if self.total_variance <= 0.0:
            return np.ones_like(self.eigenvalues)
        return np.cumsum(self.eigenvalues) / self.total_variance

    def truncate(self, k: int) -> "EigenResult":
        """Return a copy keeping only the ``k`` strongest eigenpairs."""
        if not 0 <= k <= self.k:
            raise ValueError(f"k must be in [0, {self.k}], got {k}")
        return EigenResult(
            eigenvalues=self.eigenvalues[:k].copy(),
            eigenvectors=self.eigenvectors[:, :k].copy(),
            total_variance=self.total_variance,
            backend=self.backend,
        )


def solve_eigensystem(
    matrix: np.ndarray,
    *,
    backend: str = "numpy",
    k: Optional[int] = None,
    seed: int = 0,
) -> EigenResult:
    """Eigenpairs of a symmetric (PSD) matrix, strongest first.

    Parameters
    ----------
    matrix:
        Real symmetric PSD ``M x M`` matrix, typically a scatter matrix.
    backend:
        One of ``"numpy"`` (LAPACK ``eigh``; the default), ``"jacobi"``
        (the from-scratch one-sided Jacobi SVD, whose singular values
        are the eigenvalues of a PSD matrix), or ``"lanczos"`` (Krylov;
        best for large ``M`` and small ``k``).
    k:
        Number of leading eigenpairs to return.  ``None`` means all
        ``M`` for the dense backends and is rejected for ``"lanczos"``
        (which is only sensible for ``k << M``).
    seed:
        Random seed for the ``"lanczos"`` backend.

    Returns
    -------
    EigenResult
        Normalized, descending, sign-canonicalized eigenpairs.
    """
    check_backend(backend)
    work = symmetrize(np.asarray(matrix, dtype=np.float64))
    size = work.shape[0]
    total_variance = float(np.trace(work))

    if k is not None and not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")

    if backend == "lanczos":
        if k is None:
            raise ValueError("the 'lanczos' backend requires an explicit k")
        values, vectors = lanczos_eigensystem(work, k, seed=seed)
    else:
        if backend == "numpy":
            values, vectors = np.linalg.eigh(work)
            order = np.argsort(values)[::-1]
            values, vectors = values[order], vectors[:, order]
        else:
            _u, values, vt = jacobi_svd(work)
            vectors = vt.T
        if k is not None:
            values, vectors = values[:k], vectors[:, :k]

    # Covariance matrices are PSD; clamp round-off negatives.
    values = np.where(values > 0.0, values, 0.0)
    vectors = canonicalize_sign(vectors)
    return EigenResult(
        eigenvalues=np.asarray(values, dtype=np.float64),
        eigenvectors=np.asarray(vectors, dtype=np.float64),
        total_variance=total_variance,
        backend=backend,
    )
