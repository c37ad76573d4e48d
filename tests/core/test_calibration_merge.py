"""Differential test: the batch-merge calibration against the scalar loop.

``ResidualCalibration.observe`` folds each batch with one pairwise
(Chan, Golub and LeVeque) merge of its count, mean and sum of squared
deviations.  The reference below is the loop it replaced: Welford's
update, one value at a time.  The two agree up to rounding -- a
relative 1e-11 on ``mean`` and ``std``, with the spread of the values
down to 1e-4 of their level -- and count the same rows exactly.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outliers import ResidualCalibration

RTOL = 1e-11


def welford(batches: List[np.ndarray]):
    """``(count, mean, std)`` folded one value at a time."""
    count, mean, m2 = 0, 0.0, 0.0
    for batch in batches:
        for value in batch:
            count += 1
            delta = float(value) - mean
            mean += delta / count
            m2 += delta * (float(value) - mean)
    return count, mean, math.sqrt(m2 / count) if count >= 2 else 0.0


@st.composite
def split_stream(draw) -> List[np.ndarray]:
    """Values ``level + spread * U(-1, 1)`` cut into random batches, some
    of them empty."""
    sizes = draw(st.lists(st.integers(0, 300), min_size=1, max_size=8))
    level = draw(st.floats(1e-3, 1e3))
    ratio = 10.0 ** draw(st.floats(-4.0, math.log10(0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = level + level * ratio * rng.uniform(-1.0, 1.0, sum(sizes))
    return np.split(values, np.cumsum(sizes)[:-1])


@settings(max_examples=300, deadline=None)
@given(batches=split_stream())
def test_batch_merge_matches_the_scalar_loop(batches):
    calibration = ResidualCalibration(min_rows=2)
    for batch in batches:
        calibration.observe(batch)
    count, mean, std = welford(batches)
    assert calibration.n_observed == count
    if count:
        np.testing.assert_allclose(calibration.mean, mean, rtol=RTOL)
        np.testing.assert_allclose(calibration.std, std, rtol=RTOL)


def test_empty_batch_is_a_no_op():
    calibration = ResidualCalibration(min_rows=2)
    calibration.observe(np.array([1.0, 2.0, 4.0]))
    before = calibration.to_dict()
    calibration.observe(np.array([]))
    assert calibration.to_dict() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_residuals_are_refused(bad):
    calibration = ResidualCalibration(min_rows=2)
    calibration.observe(np.array([1.0, 2.0]))
    before = calibration.to_dict()
    with pytest.raises(ValueError, match="finite"):
        calibration.observe(np.array([3.0, bad]))
    assert calibration.to_dict() == before
