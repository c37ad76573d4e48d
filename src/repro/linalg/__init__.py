"""Linear-algebra substrate for Ratio Rules.

The paper (Sec. 4.2, Fig. 2b) computes Ratio Rules with an
"off-the-shelf eigensystem package"; the library's default is exactly
that, LAPACK via ``numpy.linalg``.  Three eigensolver backends remain,
each serving a production path, a paper figure or the tests:

- ``"numpy"`` -- LAPACK ``eigh``, the default;
- ``"jacobi"`` -- :mod:`repro.linalg.jacobi`, a from-scratch one-sided
  (Hestenes) Jacobi SVD (Numerical Recipes, the paper's reference
  [17]).  It is the independent reference the tests check LAPACK
  against, for the eigensystem and for the pseudo-inverse alike;
- ``"lanczos"`` -- :mod:`repro.linalg.lanczos`, a Krylov solver for the
  large, sparse covariance matrices of the paper's footnote 1, with
  :mod:`repro.linalg.tridiagonal` (QL with implicit shifts) as its
  inner solver and :mod:`repro.linalg.sparse` (a CSR matrix) for the
  implicit covariance operator.

:mod:`repro.linalg.svd` holds the one SVD the library runs: LAPACK's,
on the matrix itself, behind the Moore-Penrose pseudo-inverse of
Eq. 7-8.  :mod:`repro.linalg.eigen` is the uniform front-end
(:func:`~repro.linalg.eigen.solve_eigensystem`) that dispatches among
the backends and post-processes the results (descending sort, sign
canonicalization).
"""

from repro.linalg.eigen import EigenResult, solve_eigensystem
from repro.linalg.jacobi import jacobi_svd
from repro.linalg.lanczos import lanczos_eigensystem
from repro.linalg.matrix_utils import (
    canonicalize_sign,
    center_columns,
    is_orthonormal,
    relative_residual,
    symmetrize,
)
from repro.linalg.sparse import CSRMatrix
from repro.linalg.svd import (
    SVDResult,
    least_squares_solve,
    pseudo_inverse,
    svd_decompose,
)
from repro.linalg.tridiagonal import tridiagonal_eigensystem

__all__ = [
    "CSRMatrix",
    "EigenResult",
    "SVDResult",
    "canonicalize_sign",
    "center_columns",
    "is_orthonormal",
    "jacobi_svd",
    "lanczos_eigensystem",
    "least_squares_solve",
    "pseudo_inverse",
    "relative_residual",
    "solve_eigensystem",
    "svd_decompose",
    "symmetrize",
    "tridiagonal_eigensystem",
]
