"""Property tests for the serving layer's exactness contract.

The serving layer promises that a cached, pattern-grouped batch fill is
**bit-identical** to calling :func:`repro.core.reconstruction.fill_holes`
row by row -- across every hole pattern, every dispatch regime
(exactly-, over-, and under-specified), both CASE-3 policies, and
regardless of whether the operator cache is cold or warm.  Hypothesis
drives arbitrary hole masks through both paths and asserts exact
equality, not ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import RatioRuleModel
from repro.core.reconstruction import (
    CASE_EXACT,
    CASE_OVER,
    CASE_UNDER,
    fill_holes,
)
from repro.serve import BatchFiller
from repro.serve.batch import group_hole_patterns

from tests.serve.conftest import make_rank2_matrix

pytestmark = pytest.mark.serve

N_COLS = 5

# One fitted model per cutoff, shared across examples (fitting inside
# the hypothesis loop would dominate the runtime without adding any
# coverage -- the contract under test is the serving path, not fit).
_MODELS = {
    cutoff: RatioRuleModel(cutoff=cutoff).fit(make_rank2_matrix(7))
    for cutoff in (1, 2, 3)
}


def _batch_from_masks(seed: int, masks) -> np.ndarray:
    base = make_rank2_matrix(seed, n_rows=len(masks))
    batch = base.copy()
    for i, mask in enumerate(masks):
        for j in range(N_COLS):
            if mask[j]:
                batch[i, j] = np.nan
    return batch


hole_masks = st.lists(
    st.lists(st.booleans(), min_size=N_COLS, max_size=N_COLS),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(
    masks=hole_masks,
    seed=st.integers(min_value=0, max_value=2**16),
    cutoff=st.sampled_from([1, 2, 3]),
    policy=st.sampled_from(["truncate", "min-norm"]),
)
def test_batch_bit_identical_to_row_by_row(masks, seed, cutoff, policy):
    model = _MODELS[cutoff]
    batch = _batch_from_masks(seed, masks)
    filler = BatchFiller(model, underdetermined=policy)

    result = filler.fill_batch(batch)

    for i in range(batch.shape[0]):
        reference = fill_holes(
            batch[i], model.rules_matrix, model.means_, underdetermined=policy
        )
        np.testing.assert_array_equal(
            result.filled[i],
            reference.filled,
            err_msg=f"row {i} diverged from fill_holes (policy={policy})",
        )
        assert result.cases[i] == reference.case


@settings(max_examples=25, deadline=None)
@given(
    masks=hole_masks,
    seed=st.integers(min_value=0, max_value=2**16),
    cutoff=st.sampled_from([1, 2, 3]),
)
def test_warm_cache_bit_identical_to_cold(masks, seed, cutoff):
    model = _MODELS[cutoff]
    batch = _batch_from_masks(seed, masks)
    filler = BatchFiller(model)

    cold = filler.fill_batch(batch)
    warm = filler.fill_batch(batch)

    np.testing.assert_array_equal(cold.filled, warm.filled)
    assert cold.cases == warm.cases
    # The second pass must be served from cache: no new operator solves.
    assert filler.cache.misses == len(filler.cache)


@st.composite
def _grouping_masks(draw):
    """Boolean masks whose rows repeat, with all-hole and no-hole rows.

    Rows are drawn from a small pool (so groups have several members)
    that always holds the all-True and all-False rows; widths span
    multiples and non-multiples of the 8-bit packing.
    """
    width = draw(st.integers(min_value=1, max_value=20))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    pool = [[True] * width, [False] * width] + draw(
        st.lists(row, min_size=0, max_size=4)
    )
    picks = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=24))
    return np.array(picks, dtype=bool).reshape(len(picks), width)


def _assert_grouping_matches_unique_rows(mask: np.ndarray) -> None:
    patterns, inverse = group_hole_patterns(mask)
    expected, expected_inverse = np.unique(mask, axis=0, return_inverse=True)
    assert patterns.dtype == expected.dtype
    np.testing.assert_array_equal(patterns, expected)
    assert patterns.shape == expected.shape
    np.testing.assert_array_equal(inverse, expected_inverse.ravel())
    assert inverse.shape == (mask.shape[0],)


@settings(max_examples=200, deadline=None)
@given(mask=_grouping_masks())
def test_pattern_grouping_equals_unique_rows(mask):
    """Same patterns, same order, same inverse as ``np.unique(axis=0)``."""
    _assert_grouping_matches_unique_rows(mask)


@pytest.mark.parametrize(
    "mask",
    [
        np.zeros((0, 5), dtype=bool),  # no rows
        np.array([[True, False, True]]),  # one row
        np.ones((3, 13), dtype=bool),  # all-hole rows, width not 8k
        np.zeros((4, 9), dtype=bool),  # no-hole rows, width not 8k
        np.eye(16, dtype=bool)[::-1],  # patterns across both bytes
    ],
    ids=["0-rows", "1-row", "all-holes", "no-holes", "two-bytes"],
)
def test_pattern_grouping_edge_cases(mask):
    _assert_grouping_matches_unique_rows(mask)


def test_all_three_regimes_are_reachable():
    """The property above is vacuous unless exact/over/under all occur."""
    model = _MODELS[2]  # k=2 rules on 5 columns
    filler = BatchFiller(model)
    batch = make_rank2_matrix(41, n_rows=3)
    batch[0, :3] = np.nan  # 2 known == k      -> exactly-specified
    batch[1, :1] = np.nan  # 4 known > k       -> over-specified
    batch[2, :4] = np.nan  # 1 known < k       -> under-specified
    result = filler.fill_batch(batch)
    assert result.cases == (CASE_EXACT, CASE_OVER, CASE_UNDER)
    reference = filler.fill_reference(batch)
    np.testing.assert_array_equal(result.filled, reference.filled)
