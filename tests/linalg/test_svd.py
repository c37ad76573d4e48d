"""Tests for the LAPACK-backed SVD and Moore-Penrose pseudo-inverse."""

import numpy as np
import pytest

from repro.linalg.jacobi import jacobi_svd
from repro.linalg.svd import (
    least_squares_solve,
    pseudo_inverse,
    svd_decompose,
)


class TestSVDDecompose:
    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6), (10, 2)])
    def test_reconstruction(self, rng, shape):
        matrix = rng.standard_normal(shape)
        result = svd_decompose(matrix)
        np.testing.assert_allclose(result.reconstruct(), matrix, atol=1e-9)

    @pytest.mark.parametrize("backend", ["jacobi", "numpy"])
    def test_singular_values_match_numpy(self, rng, backend):
        # "numpy" is the LAPACK path of svd_decompose; "jacobi" is the
        # from-scratch one-sided Jacobi reference it is checked against.
        matrix = rng.standard_normal((7, 4))
        if backend == "jacobi":
            singular_values = jacobi_svd(matrix)[1]
        else:
            singular_values = svd_decompose(matrix).singular_values
        ref = np.linalg.svd(matrix, compute_uv=False)
        np.testing.assert_allclose(singular_values, ref, rtol=1e-14)

    def test_orthonormal_factors(self, rng):
        matrix = rng.standard_normal((5, 3))
        result = svd_decompose(matrix)
        np.testing.assert_allclose(
            result.u.T @ result.u, np.eye(result.rank), atol=1e-9
        )
        np.testing.assert_allclose(
            result.vt @ result.vt.T, np.eye(result.rank), atol=1e-9
        )

    def test_descending_singular_values(self, rng):
        matrix = rng.standard_normal((8, 5))
        result = svd_decompose(matrix)
        assert np.all(np.diff(result.singular_values) <= 1e-12)

    def test_rank_detection(self):
        # Rank-1 matrix: only one singular triplet survives the cutoff.
        matrix = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        result = svd_decompose(matrix)
        assert result.rank == 1
        np.testing.assert_allclose(result.reconstruct(), matrix, atol=1e-10)

    def test_zero_matrix(self):
        result = svd_decompose(np.zeros((3, 4)))
        assert result.rank == 0
        np.testing.assert_allclose(result.reconstruct(), np.zeros((3, 4)))

    def test_subnormal_singular_values_are_null(self):
        # 1 / 1e-310 overflows, so such a direction cannot be inverted.
        matrix = np.diag([1e-310, 2e-310])
        assert svd_decompose(matrix, rcond=0.0).rank == 0
        np.testing.assert_array_equal(pseudo_inverse(matrix, rcond=0.0), 0.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-d"):
            svd_decompose(np.ones(3))


class TestPseudoInverse:
    def test_matches_numpy_pinv(self, rng):
        matrix = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            pseudo_inverse(matrix), np.linalg.pinv(matrix), atol=1e-14
        )

    def test_moore_penrose_axioms(self, rng):
        """All four Moore-Penrose conditions."""
        a = rng.standard_normal((5, 3))
        a_plus = pseudo_inverse(a)
        np.testing.assert_allclose(a @ a_plus @ a, a, atol=1e-9)
        np.testing.assert_allclose(a_plus @ a @ a_plus, a_plus, atol=1e-9)
        np.testing.assert_allclose(a @ a_plus, (a @ a_plus).T, atol=1e-9)
        np.testing.assert_allclose(a_plus @ a, (a_plus @ a).T, atol=1e-9)

    def test_rank_deficient(self):
        matrix = np.outer([1.0, 1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(
            pseudo_inverse(matrix), np.linalg.pinv(matrix), atol=1e-10
        )

    def test_zero_matrix(self):
        result = pseudo_inverse(np.zeros((2, 5)))
        assert result.shape == (5, 2)
        np.testing.assert_array_equal(result, 0.0)

    def test_invertible_square_equals_inverse(self, rng):
        matrix = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        np.testing.assert_allclose(
            pseudo_inverse(matrix), np.linalg.inv(matrix), atol=1e-8
        )


class TestLeastSquaresSolve:
    def test_exact_system(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        solution = least_squares_solve(matrix, np.array([2.0, 8.0]))
        np.testing.assert_allclose(solution, [1.0, 2.0], atol=1e-12)

    def test_overdetermined_matches_lstsq(self, rng):
        matrix = rng.standard_normal((10, 3))
        rhs = rng.standard_normal(10)
        ours = least_squares_solve(matrix, rhs)
        ref, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_underdetermined_gives_min_norm(self, rng):
        matrix = rng.standard_normal((2, 5))
        rhs = rng.standard_normal(2)
        ours = least_squares_solve(matrix, rhs)
        ref, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)  # min-norm solution
        np.testing.assert_allclose(ours, ref, atol=1e-9)
        np.testing.assert_allclose(matrix @ ours, rhs, atol=1e-9)
