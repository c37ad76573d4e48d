"""Ablation: eigensolver backend cost on a paper-scale covariance matrix.

The library offers three backends (``repro.linalg.eigen.BACKENDS``);
this bench measures the fit cost of each on the same 20,000 x 100
Quest matrix (covariance accumulation is shared work; the eigensystem
solve is where they differ).  The numpy backend is the library default
-- this bench documents what the from-scratch Jacobi reference and
Lanczos cost relative to LAPACK and verifies they mine the same rules.
"""

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.datasets.quest import QuestBasketGenerator
from repro.linalg.eigen import BACKENDS

N_ROWS = 20_000
N_ITEMS = 100


@pytest.fixture(scope="module")
def quest_matrix():
    return QuestBasketGenerator(n_items=N_ITEMS, seed=0).generate(N_ROWS, seed=1)


@pytest.fixture(scope="module")
def reference_rules(quest_matrix):
    return RatioRuleModel(cutoff=5).fit(quest_matrix).rules_matrix


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_fit_cost(benchmark, quest_matrix, reference_rules, backend):
    model = benchmark.pedantic(
        lambda: RatioRuleModel(cutoff=5, backend=backend).fit(quest_matrix),
        rounds=2,
        iterations=1,
    )
    # All backends must mine the same top-5 rules (signs canonicalized).
    np.testing.assert_allclose(model.rules_matrix, reference_rules, atol=1e-4)
