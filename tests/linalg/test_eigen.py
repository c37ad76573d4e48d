"""Tests for the unified eigensystem front-end."""

import numpy as np
import pytest

from repro.linalg.eigen import BACKENDS, EigenResult, solve_eigensystem
from tests.conftest import assert_eigenpairs_valid, random_symmetric_psd


class TestSolveEigensystem:
    @pytest.mark.parametrize("backend", ["numpy", "jacobi"])
    def test_full_spectrum_backends(self, rng, backend):
        matrix = random_symmetric_psd(rng, 9)
        result = solve_eigensystem(matrix, backend=backend)
        assert result.k == 9
        assert result.backend == backend
        assert_eigenpairs_valid(matrix, result.eigenvalues, result.eigenvectors)

    @pytest.mark.parametrize("backend", ["numpy", "jacobi", "lanczos"])
    def test_top_k_agreement_across_backends(self, rng, backend):
        matrix = random_symmetric_psd(rng, 10)
        result = solve_eigensystem(matrix, backend=backend, k=3)
        ref = np.sort(np.linalg.eigvalsh(matrix))[::-1][:3]
        np.testing.assert_allclose(result.eigenvalues, ref, rtol=1e-5, atol=1e-7)

    def test_eigenvectors_agree_up_to_sign_canonicalization(self, rng):
        matrix = random_symmetric_psd(rng, 8)
        results = {
            backend: solve_eigensystem(matrix, backend=backend, k=2)
            for backend in BACKENDS
        }
        reference = results["numpy"].eigenvectors
        for backend, result in results.items():
            # Sign canonicalization makes them directly comparable.
            np.testing.assert_allclose(
                result.eigenvectors, reference, atol=1e-5,
                err_msg=f"backend {backend} disagrees",
            )

    def test_descending_and_nonnegative(self, rng):
        matrix = random_symmetric_psd(rng, 6)
        result = solve_eigensystem(matrix)
        assert np.all(np.diff(result.eigenvalues) <= 1e-12)
        assert np.all(result.eigenvalues >= 0)

    def test_total_variance_is_trace(self, rng):
        matrix = random_symmetric_psd(rng, 5)
        result = solve_eigensystem(matrix, k=2)
        np.testing.assert_allclose(result.total_variance, np.trace(matrix))

    def test_lanczos_requires_k(self, rng):
        with pytest.raises(ValueError, match="requires an explicit k"):
            solve_eigensystem(random_symmetric_psd(rng, 4), backend="lanczos")

    def test_unknown_backend(self, rng):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_eigensystem(random_symmetric_psd(rng, 3), backend="magma")

    def test_invalid_k(self, rng):
        matrix = random_symmetric_psd(rng, 3)
        with pytest.raises(ValueError, match="k must be"):
            solve_eigensystem(matrix, k=0)
        with pytest.raises(ValueError, match="k must be"):
            solve_eigensystem(matrix, k=4)


class TestEigenResult:
    def _make(self, rng) -> EigenResult:
        return solve_eigensystem(random_symmetric_psd(rng, 6))

    def test_energy_fractions_monotone_to_one(self, rng):
        result = self._make(rng)
        fractions = result.energy_fractions()
        assert np.all(np.diff(fractions) >= -1e-12)
        np.testing.assert_allclose(fractions[-1], 1.0, atol=1e-9)

    def test_truncate(self, rng):
        result = self._make(rng)
        truncated = result.truncate(2)
        assert truncated.k == 2
        np.testing.assert_array_equal(truncated.eigenvalues, result.eigenvalues[:2])
        assert truncated.total_variance == result.total_variance

    def test_truncate_bounds(self, rng):
        result = self._make(rng)
        with pytest.raises(ValueError):
            result.truncate(result.k + 1)
        with pytest.raises(ValueError):
            result.truncate(-1)

    def test_zero_variance_energy_fractions(self):
        result = solve_eigensystem(np.zeros((3, 3)))
        np.testing.assert_allclose(result.energy_fractions(), 1.0)
