"""Property-based cross-validation of the tridiagonal QL core.

Lanczos reduces its problem to a symmetric tridiagonal eigensystem;
the from-scratch solver for that piece must agree with LAPACK on
arbitrary bands and satisfy the defining equations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.tridiagonal import tridiagonal_eigensystem

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _lapack_trustworthy(a: np.ndarray) -> np.ndarray:
    """Snap magnitudes below 1e-100 to zero.

    These cross-validation tests treat LAPACK as the oracle, but
    ``dsyevd`` itself loses accuracy once an entry's *square*
    underflows toward subnormals (e.g. a 2e-160 coupling next to O(1)
    entries shifts its eigenvalues by ~7e-5).  Keep the randomized
    comparison inside the region where the oracle is trustworthy.
    """
    return np.where(np.abs(a) < 1e-100, 0.0, a)


def tridiagonal_bands(max_side: int = 10):
    return st.integers(1, max_side).flatmap(
        lambda side: st.tuples(
            arrays(np.float64, side, elements=finite).map(_lapack_trustworthy),
            arrays(np.float64, max(side - 1, 0), elements=finite).map(
                _lapack_trustworthy
            ),
        )
    )


@settings(max_examples=50, deadline=None)
@given(bands=tridiagonal_bands())
def test_tridiagonal_matches_lapack(bands):
    diagonal, off_diagonal = bands
    values, vectors = tridiagonal_eigensystem(diagonal, off_diagonal)
    side = diagonal.shape[0]
    dense = np.diag(diagonal)
    if side > 1:
        idx = np.arange(side - 1)
        dense[idx, idx + 1] = off_diagonal
        dense[idx + 1, idx] = off_diagonal
    ref = np.sort(np.linalg.eigvalsh(dense))[::-1]
    assert np.allclose(values, ref, rtol=1e-8, atol=1e-7)
    scale = max(np.linalg.norm(dense), 1.0)
    residual = dense @ vectors - vectors * values
    assert np.linalg.norm(residual) / scale < 1e-7
