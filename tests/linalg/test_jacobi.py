"""Tests for the one-sided Jacobi SVD (the from-scratch reference)."""

import numpy as np
import pytest

from repro.linalg.jacobi import JacobiNotConverged, jacobi_svd
from tests.conftest import assert_eigenpairs_valid, random_symmetric_psd


def _assert_svd_valid(matrix, u, s, vt, atol=1e-12):
    """Reconstruction, orthonormal factors and descending values."""
    scale = max(float(np.linalg.norm(matrix)), 1.0)
    assert np.linalg.norm(u @ np.diag(s) @ vt - matrix) / scale < atol
    np.testing.assert_allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=atol)
    np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=atol)
    assert np.all(np.diff(s) <= 0.0)


class TestJacobiBasics:
    def test_diagonal_matrix(self):
        _u, s, vt = jacobi_svd(np.diag([1.0, 5.0, 3.0]))
        np.testing.assert_allclose(s, [5.0, 3.0, 1.0])
        # Singular vectors are the (permuted, possibly sign-flipped) axes.
        assert np.allclose(np.abs(vt.T), np.eye(3)[:, [1, 2, 0]])

    def test_known_2x2(self):
        # [[2, 1], [1, 2]] is PSD with eigenvalues 3 and 1.
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        _u, s, vt = jacobi_svd(matrix)
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-12)
        assert_eigenpairs_valid(matrix, s, vt.T)

    def test_1x1(self):
        u, s, vt = jacobi_svd(np.array([[7.0]]))
        np.testing.assert_allclose(s, [7.0])
        np.testing.assert_allclose(u, [[1.0]])
        np.testing.assert_allclose(vt, [[1.0]])

    def test_descending_order(self, rng):
        _u, s, _vt = jacobi_svd(random_symmetric_psd(rng, 8))
        assert np.all(np.diff(s) <= 0.0)

    def test_zero_matrix(self):
        u, s, vt = jacobi_svd(np.zeros((3, 3)))
        np.testing.assert_array_equal(s, 0.0)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_allclose(vt @ vt.T, np.eye(3))


class TestJacobiAgainstNumpy:
    @pytest.mark.parametrize("size", [2, 3, 5, 10, 20])
    def test_eigenvalues_match_lapack(self, rng, size):
        # On a PSD matrix the singular values are the eigenvalues and
        # the right singular vectors are eigenvectors.
        matrix = random_symmetric_psd(rng, size)
        _u, s, vt = jacobi_svd(matrix)
        ref_values = np.sort(np.linalg.eigvalsh(matrix))[::-1]
        np.testing.assert_allclose(s, ref_values, rtol=1e-12)
        assert_eigenpairs_valid(matrix, s, vt.T, atol=1e-13)

    def test_negative_eigenvalues_handled(self, rng):
        # An indefinite symmetric matrix: singular values are |lambda|.
        matrix = rng.standard_normal((6, 6))
        matrix = (matrix + matrix.T) / 2
        u, s, vt = jacobi_svd(matrix)
        ref = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
        np.testing.assert_allclose(s, ref, rtol=1e-12)
        _assert_svd_valid(matrix, u, s, vt)

    def test_repeated_eigenvalues(self):
        # Identity: all singular values equal; no rotation is needed.
        u, s, vt = jacobi_svd(np.eye(4))
        np.testing.assert_allclose(s, 1.0)
        _assert_svd_valid(np.eye(4), u, s, vt)

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (12, 12), (1, 5), (5, 1)])
    def test_rectangular_matches_lapack(self, rng, shape):
        matrix = rng.standard_normal(shape)
        u, s, vt = jacobi_svd(matrix)
        assert u.shape == (shape[0], min(shape))
        assert vt.shape == (min(shape), shape[1])
        np.testing.assert_allclose(
            s, np.linalg.svd(matrix, compute_uv=False), rtol=1e-13
        )
        _assert_svd_valid(matrix, u, s, vt)

    def test_graded_matrix_keeps_small_singular_values(self, rng):
        # cond 1e12: a Gram-matrix SVD would lose the smallest value
        # entirely; one-sided Jacobi keeps it to high relative accuracy.
        left, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        right, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        values = np.array([1.0, 1e-4, 1e-8, 1e-12])
        _u, s, _vt = jacobi_svd(left @ np.diag(values) @ right.T)
        np.testing.assert_allclose(s, values, rtol=1e-3)

    def test_rank_deficient(self):
        matrix = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        u, s, vt = jacobi_svd(matrix)
        assert s[1] <= 1e-15 * s[0]
        np.testing.assert_allclose(
            s[0] * np.outer(u[:, 0], vt[0]), matrix, atol=1e-13
        )


class TestJacobiConvergence:
    def test_raises_when_sweeps_exhausted(self, rng):
        matrix = random_symmetric_psd(rng, 12)
        with pytest.raises(JacobiNotConverged):
            jacobi_svd(matrix, max_sweeps=0)

    def test_tight_tolerance_still_converges(self):
        # Couplings far below the diagonal make zeta = (beta - alpha) /
        # (2 gamma) huge; the rotation must neither overflow nor stall.
        matrix = np.array(
            [
                [1.0, 1e-5, 1e-5, 1e-5],
                [1e-5, 0.0, 1e-5, 1e-5],
                [1e-5, 1e-5, 1e-5, 1e-5],
                [1e-5, 1e-5, 1e-5, 1e-5],
            ]
        )
        u, s, vt = jacobi_svd(matrix)
        np.testing.assert_allclose(
            s, np.linalg.svd(matrix, compute_uv=False), rtol=1e-9, atol=1e-20
        )
        # Rows 3 and 4 are equal: keep the rank-3 part.
        kept = s > 1e-12 * s[0]
        assert kept.sum() == 3
        _assert_svd_valid(matrix, u[:, kept], s[kept], vt[kept], atol=1e-14)

    def test_does_not_modify_input(self, rng):
        matrix = random_symmetric_psd(rng, 5)
        original = matrix.copy()
        jacobi_svd(matrix)
        np.testing.assert_array_equal(matrix, original)

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((0, 3))])
    def test_rejects_non_matrix(self, bad):
        with pytest.raises(ValueError, match="2-d and non-empty"):
            jacobi_svd(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            jacobi_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
