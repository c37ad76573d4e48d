"""Differential test: the array Algorithm R against the per-row loop.

``ReservoirSample.extend`` fills the sample from the head of a block
and draws every later row's slot in one ``integers`` call.  The
reference below offers the rows one at a time, as the sampler used to.
After any sequence of ``extend`` and ``reset`` calls both must hold the
same rows, the same row count and the same generator state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import ReservoirSample

pytestmark = pytest.mark.pipeline


class LoopReservoir:
    """Algorithm R, one row and one draw at a time."""

    def __init__(self, capacity: int, seed: int) -> None:
        self.capacity = capacity
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self.rng = np.random.default_rng(self._seed)
        self.rows: list = []
        self.n_seen = 0

    def extend(self, rows: np.ndarray) -> None:
        for row in rows:
            self.n_seen += 1
            if len(self.rows) < self.capacity:
                self.rows.append(row.copy())
            else:
                slot = int(self.rng.integers(0, self.n_seen))
                if slot < self.capacity:
                    self.rows[slot] = row.copy()

    def sample(self) -> np.ndarray:
        if not self.rows:
            return np.empty((0, 0), dtype=np.float64)
        return np.vstack(self.rows)


#: ``None`` is a reset; an int is a block of that many rows.
operations = st.lists(st.none() | st.integers(0, 120), max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    ops=operations,
    width=st.integers(1, 4),
)
def test_array_algorithm_r_matches_the_row_loop(capacity, seed, ops, width):
    fast = ReservoirSample(capacity, seed=seed)
    loop = LoopReservoir(capacity, seed)
    values = np.random.default_rng(seed).normal(size=(sum(n or 0 for n in ops), width))
    start = 0
    for op in ops:
        if op is None:
            fast.reset()
            loop.reset()
            continue
        # Distinct rows, so a wrong slot or a wrong winner shows.
        block = values[start : start + op]
        start += op
        fast.extend(block)
        loop.extend(block)
        assert fast.n_seen == loop.n_seen
        assert len(fast) == len(loop.rows)
        got, want = fast.rows(), loop.sample()
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert fast._rng.bit_generator.state == loop.rng.bit_generator.state


def test_later_row_wins_a_slot_drawn_twice():
    # Capacity 1: every row after the first replaces slot 0 with
    # probability 1/n, so in a long block several rows draw slot 0 and
    # only the last of them may remain.
    fast, loop = ReservoirSample(1, seed=3), LoopReservoir(1, 3)
    block = np.arange(400.0).reshape(-1, 1)
    fast.extend(block)
    loop.extend(block)
    assert fast.rows().tobytes() == loop.sample().tobytes()
