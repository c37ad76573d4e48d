"""Property-based tests for the linear-algebra substrate (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.eigen import solve_eigensystem
from repro.linalg.jacobi import jacobi_svd
from repro.linalg.matrix_utils import canonicalize_sign, center_columns
from repro.linalg.svd import pseudo_inverse, svd_decompose

# Bounded, finite floats keep the numerics honest without pathological
# overflow cases.
finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def sym_psd_matrices(max_side: int = 6):
    """Strategy: random symmetric PSD matrices as A^t A."""
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda side: arrays(
            np.float64, (side + 1, side), elements=finite_floats
        ).map(lambda a: a.T @ a)
    )


def rect_matrices(max_rows: int = 7, max_cols: int = 5):
    """Strategy: random rectangular matrices."""
    return st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    ).flatmap(lambda shape: arrays(np.float64, shape, elements=finite_floats))


@settings(max_examples=60, deadline=None)
@given(matrix=sym_psd_matrices())
def test_jacobi_residual_and_orthonormality(matrix):
    # On a PSD matrix the singular values are the eigenvalues and the
    # right singular vectors are eigenvectors.
    _u, values, vt = jacobi_svd(matrix)
    vectors = vt.T
    scale = max(np.linalg.norm(matrix), 1.0)
    residual = matrix @ vectors - vectors * values[np.newaxis, :]
    assert np.linalg.norm(residual) / scale < 1e-8
    gram = vectors.T @ vectors
    assert np.allclose(gram, np.eye(matrix.shape[0]), atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(matrix=sym_psd_matrices())
def test_eigenvalue_sum_equals_trace(matrix):
    _u, values, _vt = jacobi_svd(matrix)
    assert np.isclose(values.sum(), np.trace(matrix), rtol=1e-8, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(matrix=sym_psd_matrices())
def test_solver_eigenvalues_nonnegative_descending(matrix):
    result = solve_eigensystem(matrix)
    assert np.all(result.eigenvalues >= 0)
    assert np.all(np.diff(result.eigenvalues) <= 1e-9)


@settings(max_examples=50, deadline=None)
@given(matrix=rect_matrices())
def test_svd_reconstructs(matrix):
    # The contract: reconstruction error is bounded by the rank cutoff
    # (singular values below DEFAULT_RCOND * s_max are discarded), plus
    # round-off.
    result = svd_decompose(matrix)
    scale = max(np.linalg.norm(matrix), 1.0)
    assert np.linalg.norm(result.reconstruct() - matrix) / scale < 5e-7


def _safe_norm(matrix: np.ndarray) -> float:
    """Frobenius norm that does not overflow on entries above ~1e154."""
    peak = float(np.abs(matrix).max(initial=0.0))
    return peak * float(np.linalg.norm(matrix / peak)) if peak > 0.0 else 0.0


#: A matrix on which the former Gram-matrix SVD gave
#: ||A+ A A+ - A+|| / ||A+|| = 2.4e-3; LAPACK on A itself gives ~7e-16.
GRAM_FAILURE = np.array(
    [
        [1.0, 1e-5, 1e-5, 1e-5],
        [1e-5, 0.0, 1e-5, 1e-5],
        [1e-5, 1e-5, 1e-5, 1e-5],
        [1e-5, 1e-5, 1e-5, 1e-5],
    ]
)


@settings(max_examples=50, deadline=None)
@given(matrix=rect_matrices())
@example(matrix=GRAM_FAILURE)
def test_pseudo_inverse_moore_penrose(matrix):
    # A A+ A - A is exactly the part the DEFAULT_RCOND cutoff drops:
    # at most sqrt(rank) * 1e-7 * ||A||.  A+ A A+ - A+ is round-off,
    # ~eps * cond(A) <= eps * 1e7 relative after the cutoff.
    a_plus = pseudo_inverse(matrix)
    scale = max(np.linalg.norm(matrix), 1.0)
    assert np.linalg.norm(matrix @ a_plus @ matrix - matrix) / scale < 5e-7
    plus_scale = max(_safe_norm(a_plus), 1.0)
    assert _safe_norm(a_plus @ matrix @ a_plus - a_plus) / plus_scale < 1e-8


def _jacobi_pinv(matrix: np.ndarray) -> np.ndarray:
    u, singular, vt = jacobi_svd(matrix)
    return (vt.T / singular) @ u.T


@st.composite
def conditioned_slices(draw):
    """``U diag(1, c^-1/2, c^-1) V^t`` with cond ``c`` in [1, 1e6].

    Shaped like the ``v_known`` slices hole filling inverts: a few
    columns, tall or square, or the transpose (wide).
    """
    rows = draw(st.integers(min_value=3, max_value=12))
    cond = 10.0 ** draw(st.floats(min_value=0.0, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    generator = np.random.default_rng(seed)
    left, _ = np.linalg.qr(generator.standard_normal((rows, 3)))
    right, _ = np.linalg.qr(generator.standard_normal((3, 3)))
    matrix = left @ np.diag([1.0, cond**-0.5, 1.0 / cond]) @ right.T
    return (matrix.T if draw(st.booleans()) else matrix), cond


@settings(max_examples=60, deadline=None)
@given(case=conditioned_slices())
def test_pseudo_inverse_matches_references_on_conditioned_slices(case):
    matrix, cond = case
    ours = pseudo_inverse(matrix)
    for reference in (np.linalg.pinv(matrix), _jacobi_pinv(matrix)):
        error = np.linalg.norm(ours - reference) / np.linalg.norm(reference)
        assert error <= 1e-12 * cond


@settings(max_examples=60, deadline=None)
@given(matrix=rect_matrices())
def test_canonicalize_sign_is_idempotent_and_norm_preserving(matrix):
    once = canonicalize_sign(matrix)
    twice = canonicalize_sign(once)
    assert np.array_equal(once, twice)
    assert np.allclose(
        np.linalg.norm(once, axis=0), np.linalg.norm(matrix, axis=0)
    )


@settings(max_examples=60, deadline=None)
@given(matrix=rect_matrices(max_rows=10, max_cols=6))
def test_centering_zeroes_column_means(matrix):
    centered, means = center_columns(matrix)
    assert np.allclose(centered.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(centered + means, matrix)
