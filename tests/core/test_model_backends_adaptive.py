"""Tests for the adaptive k-growth of the iterative (Lanczos) backend."""

import numpy as np
import pytest

from repro.core.energy import ScreeCutoff
from repro.core.model import RatioRuleModel


@pytest.fixture
def wide_rank3(rng):
    """30 columns, 3 strong factors -- forces at least one growth step
    for iterative backends that start at k=8 only if the policy needs
    more; here the policy should settle quickly."""
    scores = rng.standard_normal((400, 3)) * np.array([10.0, 6.0, 3.0])
    loadings = rng.standard_normal((3, 30))
    return scores @ loadings + rng.normal(0, 0.05, (400, 30))


class TestAdaptiveGrowth:
    def test_scree_cutoff_with_iterative_backend(self, wide_rank3):
        model = RatioRuleModel(cutoff=ScreeCutoff(), backend="lanczos").fit(
            wide_rank3
        )
        # The scree elbow on rank-3 data is within the first 3 rules.
        assert 1 <= model.k <= 3

    def test_energy_cutoff_grows_until_threshold(self, rng):
        """A flat spectrum needs many rules; the growth loop must keep
        requesting more eigenpairs until 85% is covered."""
        matrix = rng.standard_normal((300, 24))  # white noise: flat spectrum
        model = RatioRuleModel(backend="lanczos").fit(matrix)
        assert model.rules_.total_energy_fraction() >= 0.85 - 1e-9
        assert model.k > 8  # more than the initial request

    def test_fixed_cutoff_requests_exactly_k(self, wide_rank3):
        model = RatioRuleModel(cutoff=2, backend="lanczos").fit(wide_rank3)
        assert model.k == 2


class TestCLIFitCutoffParsing:
    def test_float_cutoff(self, tmp_path, wide_rank3, capsys):
        from repro.cli import main
        from repro.io.csv_format import save_csv_matrix

        path = tmp_path / "train.csv"
        save_csv_matrix(path, wide_rank3)
        assert main(["fit", str(path), "--cutoff", "0.5"]) == 0
        assert "Mined" in capsys.readouterr().out

    def test_named_cutoff(self, tmp_path, wide_rank3, capsys):
        from repro.cli import main
        from repro.io.csv_format import save_csv_matrix

        path = tmp_path / "train.csv"
        save_csv_matrix(path, wide_rank3)
        assert main(["fit", str(path), "--cutoff", "scree"]) == 0
        assert "Mined" in capsys.readouterr().out
