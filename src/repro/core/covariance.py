"""Single-pass covariance computation (the paper's Fig. 2a).

The heart of the paper's efficiency claim: the ``M x M`` covariance
matrix ``C = Xc^t Xc`` of an ``N x M`` matrix is accumulated in **one
sequential scan** of the rows, holding only O(M^2) state.  Two
accumulators are provided:

:class:`TextbookCovarianceAccumulator`
    A faithful transcription of the paper's pseudo-code: accumulate the
    raw co-moments ``sum_i x_ij x_il`` and the column sums, then
    subtract ``N * avg_j * avg_l`` at the end.  Simple, but subject to
    catastrophic cancellation when column means are large relative to
    the spread (the classic "sum of squares minus square of sums"
    instability) -- the test suite demonstrates this failure mode.

:class:`StreamingCovariance` (default everywhere else in the library)
    A numerically stable accumulator using Chan/Golub/LeVeque pairwise
    merging: each incoming block is centered about its own mean, and
    block statistics are merged with the running statistics via the
    exact parallel-combination formula.  Mergeable, so partial scans
    computed on shards can be combined (the parallel-mining setting of
    the paper's reference [3]).

Both produce the *scatter matrix* ``S = Xc^t Xc`` exactly as the paper
defines ``C`` (no ``1/N`` normalization -- eigenvectors are identical
either way and Eq. 1's energy ratios are scale-invariant).
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from repro.io.matrix_reader import MatrixReader, open_matrix

__all__ = [
    "DecayingCovariance",
    "StreamingCovariance",
    "TextbookCovarianceAccumulator",
    "covariance_single_pass",
]


class StreamingCovariance:
    """Numerically stable, mergeable single-pass covariance accumulator.

    State after seeing ``n`` rows: the row count, the column means, and
    the centered scatter matrix ``S = sum_i (x_i - mean)(x_i - mean)^t``.
    Updates are O(B * M^2) per ``B``-row block; memory is O(M^2).
    """

    def __init__(self, n_cols: int) -> None:
        if n_cols < 1:
            raise ValueError(f"n_cols must be >= 1, got {n_cols}")
        self._n_cols = int(n_cols)
        self._count = 0
        self._mean = np.zeros(n_cols)
        self._scatter = np.zeros((n_cols, n_cols))

    # -- accumulation ---------------------------------------------------

    def update(self, block: np.ndarray) -> None:
        """Fold a ``B x M`` block of rows into the running statistics."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.ndim != 2 or block.shape[1] != self._n_cols:
            raise ValueError(
                f"expected a block of width {self._n_cols}, got shape {block.shape}"
            )
        b_count = block.shape[0]
        if b_count == 0:
            return
        b_mean = block.mean(axis=0)
        centered = block - b_mean
        b_scatter = centered.T @ centered
        self._merge_stats(b_count, b_mean, b_scatter)

    def merge(self, other: "StreamingCovariance") -> None:
        """Fold another accumulator's statistics into this one.

        Supports sharded/parallel scans: accumulate each shard
        independently, then merge; the result is exact (identical to a
        single scan up to round-off).
        """
        if other._n_cols != self._n_cols:
            raise ValueError(
                f"cannot merge accumulators of widths {self._n_cols} "
                f"and {other._n_cols}"
            )
        self._merge_stats(other._count, other._mean, other._scatter)

    def _merge_stats(
        self, b_count: int, b_mean: np.ndarray, b_scatter: np.ndarray
    ) -> None:
        """Chan-Golub-LeVeque parallel combination of two moment sets."""
        if b_count == 0:
            return
        if self._count == 0:
            self._count = b_count
            self._mean = b_mean.copy()
            self._scatter = b_scatter.copy()
            return
        total = self._count + b_count
        delta = b_mean - self._mean
        weight = self._count * b_count / total
        self._scatter += b_scatter + np.outer(delta, delta) * weight
        self._mean += delta * (b_count / total)
        self._count = total

    # -- serialization -----------------------------------------------------

    def state(self) -> dict:
        """Snapshot the accumulator as ``count``, ``mean`` and ``scatter``.

        The returned dict is the complete state: feeding it to
        :meth:`from_state` reconstructs an accumulator that is
        bit-for-bit interchangeable with this one.  This is what the
        scan engine's checkpoint files persist, so an interrupted
        sharded fit can resume without rescanning finished chunks (see
        :mod:`repro.core.engine`).
        """
        return {
            "count": int(self._count),
            "mean": self._mean.copy(),
            "scatter": self._scatter.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingCovariance":
        """Rebuild an accumulator from a :meth:`state` snapshot.

        Snapshots carry no ``mode`` key, or ``"mode": "float64"`` as
        older ones did; a snapshot of a retired raw-moment mode is
        refused with a ``ValueError`` that names the mode.
        """
        mode = str(state.get("mode", "float64"))
        if mode != "float64":
            raise ValueError(
                f"accumulation mode {mode!r} is no longer supported; "
                "only float64 accumulator states load (rescan the source)"
            )
        count = int(state["count"])
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        mean = np.asarray(state["mean"], dtype=np.float64)
        scatter = np.asarray(state["scatter"], dtype=np.float64)
        if mean.ndim != 1 or scatter.shape != (mean.size, mean.size):
            raise ValueError(
                f"inconsistent state: mean {mean.shape}, scatter {scatter.shape}"
            )
        accumulator = cls(mean.size)
        accumulator._count = count
        accumulator._mean = mean.copy()
        accumulator._scatter = scatter.copy()
        return accumulator

    # -- results ----------------------------------------------------------

    @property
    def n_cols(self) -> int:
        """Number of columns ``M``."""
        return self._n_cols

    @property
    def n_rows(self) -> int:
        """Number of rows folded in so far."""
        return self._count

    @property
    def column_means(self) -> np.ndarray:
        """Current column means (copy)."""
        return self._mean.copy()

    def scatter_matrix(self) -> np.ndarray:
        """The paper's ``C = Xc^t Xc`` (centered scatter, unnormalized)."""
        if self._count == 0:
            raise ValueError("no rows accumulated yet")
        # Force exact symmetry (merges can drift by ulps).
        return (self._scatter + self._scatter.T) / 2.0

    def covariance(self, ddof: int = 1) -> np.ndarray:
        """Normalized covariance ``S / (N - ddof)``.

        Parameters
        ----------
        ddof:
            Delta degrees of freedom; 1 gives the unbiased sample
            covariance, 0 the maximum-likelihood estimate.
        """
        if self._count <= ddof:
            raise ValueError(
                f"need more than ddof={ddof} rows, have {self._count}"
            )
        return self.scatter_matrix() / (self._count - ddof)


class DecayingCovariance:
    """Exponentially-weighted covariance for drifting streams.

    The plain :class:`StreamingCovariance` weighs every row equally
    forever, so a regime change is diluted by all the history before
    it.  This variant discounts history **per row**: a row seen ``j``
    rows ago carries weight ``decay ** j``, regardless of how the
    stream was cut into blocks.  ``decay = 1`` reproduces the plain
    accumulator; smaller values give the stream an effective memory of
    roughly ``1 / (1 - decay)`` *rows*.

    .. note::
       Earlier revisions applied the decay once per ``update()`` call,
       so 100 single-row updates forgot ~100x faster than one 100-row
       block.  Decay is now a property of the stream, not of its block
       partitioning: folding rows in one at a time, in blocks, or in
       any mix yields identical statistics (up to round-off).  Choose
       ``decay`` against a row horizon -- e.g. ``decay = 1 - 1/5000``
       for a ~5000-row memory -- not against an update cadence.

    Internally each incoming block is folded with per-row weights
    ``decay ** (b - 1 - i)`` (most recent row weighs 1) and the running
    statistics are aged by ``decay ** b``; the weighted statistics
    follow the same Chan-merge algebra with the "row count"
    generalized to a weight mass, so eigenvector directions remain
    exact for the weighted problem.
    """

    def __init__(self, n_cols: int, *, decay: float = 0.99) -> None:
        if n_cols < 1:
            raise ValueError(f"n_cols must be >= 1, got {n_cols}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self._n_cols = int(n_cols)
        self.decay = float(decay)
        self._weight = 0.0
        self._rows_seen = 0
        self._mean = np.zeros(n_cols)
        self._scatter = np.zeros((n_cols, n_cols))

    def update(self, block: np.ndarray) -> None:
        """Age the current statistics, then fold the new block in."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.ndim != 2 or block.shape[1] != self._n_cols:
            raise ValueError(
                f"expected a block of width {self._n_cols}, got shape {block.shape}"
            )
        if block.shape[0] == 0:
            return
        b_count = block.shape[0]
        # Age: one decay factor per incoming row, so the discount a row
        # ever receives depends only on how many rows came after it --
        # not on the block sizes the stream happened to arrive in.  The
        # weight mass and scatter shrink; the mean is unchanged (decay
        # reweights history, it does not move its centroid).
        aging = self.decay ** b_count
        self._weight *= aging
        self._scatter *= aging

        if self.decay == 1.0:
            row_weights = np.ones(b_count)
        else:
            # Within the block the same rule applies: row i (0-based) has
            # b_count - 1 - i rows after it.
            row_weights = self.decay ** np.arange(b_count - 1, -1, -1, dtype=np.float64)
        b_weight = float(row_weights.sum())
        b_mean = (row_weights[:, np.newaxis] * block).sum(axis=0) / b_weight
        centered = block - b_mean
        b_scatter = (row_weights[:, np.newaxis] * centered).T @ centered

        total = self._weight + b_weight
        if self._weight == 0.0:
            self._mean = b_mean.copy()
            self._scatter = b_scatter.copy()
        else:
            delta = b_mean - self._mean
            self._scatter += b_scatter + np.outer(delta, delta) * (
                self._weight * b_weight / total
            )
            self._mean += delta * (b_weight / total)
        self._weight = total
        self._rows_seen += block.shape[0]

    # -- serialization -----------------------------------------------------

    def state(self) -> dict:
        """Snapshot the accumulator as plain arrays and scalars.

        The returned dict is the complete state: feeding it to
        :meth:`from_state` reconstructs an accumulator that is
        bit-for-bit interchangeable with this one.  This is what
        :meth:`repro.core.online.OnlineRatioRuleModel.fork` relies on
        to clone a live stream without disturbing it.
        """
        return {
            "decay": float(self.decay),
            "weight": float(self._weight),
            "rows_seen": int(self._rows_seen),
            "mean": self._mean.copy(),
            "scatter": self._scatter.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecayingCovariance":
        """Rebuild an accumulator from a :meth:`state` snapshot."""
        mean = np.asarray(state["mean"], dtype=np.float64)
        scatter = np.asarray(state["scatter"], dtype=np.float64)
        if mean.ndim != 1 or scatter.shape != (mean.size, mean.size):
            raise ValueError(
                f"inconsistent state: mean {mean.shape}, scatter {scatter.shape}"
            )
        weight = float(state["weight"])
        rows_seen = int(state["rows_seen"])
        if weight < 0.0 or rows_seen < 0:
            raise ValueError(
                f"weight and rows_seen must be >= 0, got {weight}, {rows_seen}"
            )
        accumulator = cls(mean.size, decay=float(state["decay"]))
        accumulator._weight = weight
        accumulator._rows_seen = rows_seen
        accumulator._mean = mean.copy()
        accumulator._scatter = scatter.copy()
        return accumulator

    @property
    def n_cols(self) -> int:
        """Number of columns ``M``."""
        return self._n_cols

    @property
    def n_rows(self) -> int:
        """Raw rows folded in (undiscounted count)."""
        return self._rows_seen

    @property
    def effective_weight(self) -> float:
        """Discounted row mass currently represented."""
        return self._weight

    @property
    def column_means(self) -> np.ndarray:
        """Exponentially-weighted column means (copy)."""
        return self._mean.copy()

    def scatter_matrix(self) -> np.ndarray:
        """Exponentially-weighted scatter (the drifting ``C``)."""
        if self._weight == 0.0:
            raise ValueError("no rows accumulated yet")
        return (self._scatter + self._scatter.T) / 2.0


class TextbookCovarianceAccumulator:
    """The paper's Fig. 2(a) pseudo-code, transcribed faithfully.

    Accumulates raw co-moments and column sums, then forms
    ``C[j][l] = sum_i x_ij x_il  -  N * avg_j * avg_l`` on finalize.
    Kept for fidelity and to demonstrate (in tests) why production code
    should prefer :class:`StreamingCovariance`: when ``|mean| >>
    stddev`` the two accumulated terms are nearly equal huge numbers
    and their difference loses most significant digits.
    """

    def __init__(self, n_cols: int) -> None:
        if n_cols < 1:
            raise ValueError(f"n_cols must be >= 1, got {n_cols}")
        self._n_cols = int(n_cols)
        self._count = 0
        self._col_sums = np.zeros(n_cols)
        self._raw_comoment = np.zeros((n_cols, n_cols))

    def update(self, block: np.ndarray) -> None:
        """Fold a block of rows into the raw sums (inner loop of Fig. 2a)."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.ndim != 2 or block.shape[1] != self._n_cols:
            raise ValueError(
                f"expected a block of width {self._n_cols}, got shape {block.shape}"
            )
        self._count += block.shape[0]
        self._col_sums += block.sum(axis=0)
        self._raw_comoment += block.T @ block

    @property
    def n_rows(self) -> int:
        """Number of rows folded in so far."""
        return self._count

    @property
    def column_means(self) -> np.ndarray:
        """Column averages (``colavgs`` of the pseudo-code)."""
        if self._count == 0:
            raise ValueError("no rows accumulated yet")
        return self._col_sums / self._count

    def scatter_matrix(self) -> np.ndarray:
        """Finalize: ``C[j][l] -= N * colavgs[j] * colavgs[l]``."""
        if self._count == 0:
            raise ValueError("no rows accumulated yet")
        means = self.column_means
        scatter = self._raw_comoment - self._count * np.outer(means, means)
        return (scatter + scatter.T) / 2.0


def covariance_single_pass(
    source,
    *,
    block_rows: int = 4096,
    accumulator: str = "stable",
    metrics=None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One sequential scan of ``source`` -> (scatter ``C``, means, ``N``).

    Parameters
    ----------
    source:
        Anything :func:`repro.io.matrix_reader.open_matrix` accepts: an
        array, a reader, or a path to a CSV / row-store file.  A reader
        opened here from a path is closed before returning; readers
        passed in stay open (the caller owns them).
    block_rows:
        Rows per block during the scan.
    accumulator:
        ``"stable"`` (default) uses :class:`StreamingCovariance`;
        ``"textbook"`` uses the paper-faithful
        :class:`TextbookCovarianceAccumulator`.
    metrics:
        Optional :class:`~repro.obs.metrics.ScanMetrics` to fill with
        the scan's row/block counts and wall-clock.

    Returns
    -------
    (scatter, means, n_rows):
        The ``M x M`` scatter matrix ``C = Xc^t Xc``, the column means,
        and the number of rows scanned.
    """
    owns_reader = not isinstance(source, MatrixReader)
    reader = open_matrix(source)
    if accumulator == "stable":
        acc: object = StreamingCovariance(reader.n_cols)
    elif accumulator == "textbook":
        acc = TextbookCovarianceAccumulator(reader.n_cols)
    else:
        if owns_reader:
            reader.close()
        raise ValueError(
            f"unknown accumulator {accumulator!r}; expected 'stable' or 'textbook'"
        )
    started = time.perf_counter()
    n_blocks = 0
    try:
        for block in reader.iter_blocks(block_rows):
            acc.update(block)
            n_blocks += 1
    finally:
        if owns_reader:
            reader.close()
    if metrics is not None:
        metrics.scan_seconds = time.perf_counter() - started
        metrics.n_blocks = n_blocks
        metrics.n_rows = acc.n_rows
    if acc.n_rows == 0:
        raise ValueError("source matrix has no rows")
    return acc.scatter_matrix(), acc.column_means, acc.n_rows
