"""Vectorized, cached batch hole-filling.

:class:`BatchFiller` is the request path of the serving layer.  One
``fill_batch`` call:

1. takes **one** atomic model snapshot from the registry (so the whole
   batch -- and the metadata on the result -- is attributable to
   exactly one published version);
2. groups the incoming rows by hole pattern (:func:`group_hole_patterns`:
   one ``numpy.unique`` over the bit-packed NaN mask, vectorized);
3. fetches each pattern's precomputed
   :class:`~repro.core.reconstruction.FillOperator` from the LRU cache
   (computing it once on a cold pattern);
4. applies each operator to its whole group with a single kernel call.

Exactness: the apply kernel
(:func:`~repro.core.reconstruction.apply_fill_operator`) produces rows
that are bitwise independent of the batch size, and the cached operator
is the same object :func:`~repro.core.reconstruction.fill_holes` builds
internally -- so batch, cached, and row-by-row fills are
**bit-identical**.  :meth:`BatchFiller.fill_reference` is the
pure-Python row-by-row reference the differential test suite pins this
contract against.

Rows with *zero* holes are a documented no-op fast path: they are
copied through untouched and never touch the operator cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.model import RatioRuleModel
from repro.core.reconstruction import (
    CASE_ALL_HOLES,
    CASE_NO_HOLES,
    compute_fill_operator,
    fill_holes,
)
from repro.obs.metrics import ServeMetrics, Stopwatch
from repro.obs.tracing import span
from repro.serve.cache import OperatorCache
from repro.serve.registry import ModelRegistry, PublishedModel

__all__ = ["BatchFillResult", "BatchFiller", "group_hole_patterns"]


def group_hole_patterns(hole_mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a boolean ``N x M`` mask and each row's group.

    Returns exactly what ``np.unique(hole_mask, axis=0,
    return_inverse=True)`` returns -- the same patterns in the same
    lexicographic order and a flat ``inverse`` -- at a fraction of the
    cost.  Each row is packed into bytes (most significant bit first,
    so byte order is column order) and viewed as one opaque key, which
    turns the row-wise sort into a 1-D sort of short byte strings.
    """
    packed = np.packbits(hole_mask, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return hole_mask[first], inverse.ravel()


@dataclass(frozen=True)
class BatchFillResult:
    """Outcome of one batch fill.

    Attributes
    ----------
    filled:
        ``N x M`` matrix: known cells untouched, holes reconstructed.
    version:
        The registry version every row in this batch was served from.
    fingerprint:
        Content hash of that version's model.
    cases:
        Per-row dispatch regime (``"no-holes"``, ``"all-holes"``,
        ``"exactly-specified"``, ``"over-specified"``,
        ``"under-specified"``), aligned with the rows.
    n_groups:
        Distinct hole patterns that went through an operator.
    n_holes_filled:
        Cells reconstructed across the batch.
    seconds:
        Wall-clock spent producing this batch.
    """

    filled: np.ndarray
    version: int
    fingerprint: str
    cases: Tuple[str, ...]
    n_groups: int
    n_holes_filled: int
    seconds: float

    @property
    def n_rows(self) -> int:
        """Rows in the batch."""
        return self.filled.shape[0]


class BatchFiller:
    """Serve hole-filling requests from a published model.

    Parameters
    ----------
    source:
        A :class:`~repro.serve.ModelRegistry` (hot-swappable serving)
        or a fitted :class:`~repro.core.model.RatioRuleModel` (which is
        wrapped in a private single-version registry).
    cache_entries:
        Operator-cache capacity (ignored when ``cache`` is given).
    cache:
        Optionally share one :class:`~repro.serve.OperatorCache`
        between fillers.
    underdetermined:
        CASE-3 policy applied to every request, as in
        :func:`~repro.core.reconstruction.fill_holes`.
    metrics:
        Optional shared :class:`~repro.obs.metrics.ServeMetrics`; by
        default each filler gets its own record at ``self.metrics``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RatioRuleModel
    >>> from repro.serve import BatchFiller
    >>> X = np.outer(np.arange(1.0, 9.0), [1.0, 2.0])
    >>> filler = BatchFiller(RatioRuleModel(cutoff=1).fit(X))
    >>> batch = np.array([[4.0, np.nan], [np.nan, 10.0]])
    >>> result = filler.fill_batch(batch)
    >>> np.round(result.filled, 6)
    array([[ 4.,  8.],
           [ 5., 10.]])
    """

    def __init__(
        self,
        source: Union[ModelRegistry, RatioRuleModel],
        *,
        cache_entries: int = 1024,
        cache: Optional[OperatorCache] = None,
        underdetermined: str = "truncate",
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        if underdetermined not in ("truncate", "min-norm"):
            raise ValueError(
                f"underdetermined must be 'truncate' or 'min-norm', "
                f"got {underdetermined!r}"
            )
        self.underdetermined = underdetermined
        self.metrics = metrics if metrics is not None else ServeMetrics()
        if isinstance(source, ModelRegistry):
            self.registry = source
        else:
            self.registry = ModelRegistry(source, metrics=self.metrics)
        self.cache = (
            cache
            if cache is not None
            else OperatorCache(cache_entries, metrics=self.metrics)
        )

    # -- serving -----------------------------------------------------------

    def fill_batch(self, matrix: np.ndarray) -> BatchFillResult:
        """Fill every NaN in an ``N x M`` request batch.

        The model snapshot is taken once up front; a concurrent
        hot-swap affects only *later* batches.
        """
        with span("serve.fill_batch") as batch_span, Stopwatch() as watch:
            snapshot = self.registry.current()
            filled, cases, group_sizes, n_holes = self._fill_against(
                snapshot, matrix
            )
            batch_span.set_attr("version", snapshot.version)
            batch_span.set_attr("rows", filled.shape[0])
            batch_span.set_attr("groups", len(group_sizes))
            batch_span.set_attr("holes_filled", n_holes)
        self.metrics.record_batch(
            n_rows=filled.shape[0],
            n_rows_filled=sum(
                case not in (CASE_NO_HOLES, CASE_ALL_HOLES) for case in cases
            ),
            n_rows_no_holes=sum(case == CASE_NO_HOLES for case in cases),
            n_rows_all_holes=sum(case == CASE_ALL_HOLES for case in cases),
            n_holes_filled=n_holes,
            group_sizes=group_sizes,
            seconds=watch.seconds,
        )
        return BatchFillResult(
            filled=filled,
            version=snapshot.version,
            fingerprint=snapshot.fingerprint,
            cases=cases,
            n_groups=len(group_sizes),
            n_holes_filled=n_holes,
            seconds=watch.seconds,
        )

    def fill_row(self, row: np.ndarray) -> BatchFillResult:
        """Serve a single row (sugar over a 1-row :meth:`fill_batch`).

        Thanks to the batch-size-independent kernel, the filled row is
        bit-identical to the same row served inside any larger batch.
        """
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"row must be 1-d, got ndim={row.ndim}")
        return self.fill_batch(row[None, :])

    def fill_reference(self, matrix: np.ndarray) -> BatchFillResult:
        """Uncached serial reference: row-by-row :func:`fill_holes`.

        The differential suite asserts :meth:`fill_batch` is
        bit-identical to this path; it exists for auditing and tests,
        not for throughput.
        """
        with Stopwatch() as watch:
            snapshot = self.registry.current()
            matrix = self._validate(snapshot, matrix)
            model = snapshot.model
            rules = model.rules_matrix
            filled = np.empty_like(matrix)
            cases = []
            n_holes = 0
            patterns = set()
            for i in range(matrix.shape[0]):
                result = fill_holes(
                    matrix[i], rules, model.means_,
                    underdetermined=self.underdetermined,
                )
                filled[i] = result.filled
                cases.append(result.case)
                row_holes = int(np.isnan(matrix[i]).sum())
                n_holes += row_holes
                if result.case not in (CASE_NO_HOLES, CASE_ALL_HOLES):
                    patterns.add(tuple(np.nonzero(np.isnan(matrix[i]))[0]))
        return BatchFillResult(
            filled=filled,
            version=snapshot.version,
            fingerprint=snapshot.fingerprint,
            cases=tuple(cases),
            n_groups=len(patterns),
            n_holes_filled=n_holes,
            seconds=watch.seconds,
        )

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _validate(snapshot: PublishedModel, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
        width = snapshot.model.schema_.width
        if matrix.shape[1] != width:
            raise ValueError(
                f"request rows have {matrix.shape[1]} columns; version "
                f"{snapshot.version} serves {width}"
            )
        if np.isinf(matrix).any():
            raise ValueError("matrix contains infinities; holes must be NaN")
        return matrix

    def _fill_against(
        self, snapshot: PublishedModel, matrix: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[str, ...], list, int]:
        matrix = self._validate(snapshot, matrix)
        model = snapshot.model
        means = model.means_
        rules = model.rules_matrix  # one copy for the whole batch
        n_cols = matrix.shape[1]
        filled = matrix.copy()
        cases = [CASE_NO_HOLES] * matrix.shape[0]
        group_sizes: list = []
        n_holes_filled = 0
        if matrix.shape[0] == 0:
            return filled, tuple(cases), group_sizes, 0

        unique_patterns, inverse = group_hole_patterns(np.isnan(matrix))
        centered = None
        for group, pattern_mask in enumerate(unique_patterns):
            rows = (inverse == group).nonzero()[0]
            holes = pattern_mask.nonzero()[0]
            if holes.size == 0:
                # Documented no-op fast path: complete rows pass
                # through untouched and never touch the cache.
                continue
            row_list = rows.tolist()
            if holes.size == n_cols:
                filled[rows] = means
                for i in row_list:
                    cases[i] = CASE_ALL_HOLES
                n_holes_filled += len(row_list) * n_cols
                continue
            pattern = tuple(holes.tolist())
            key = (snapshot.version, pattern, self.underdetermined)
            with span(
                "serve.group_apply", rows=len(row_list), holes=len(pattern)
            ):
                fill_op = self.cache.get_or_compute(
                    key,
                    lambda: compute_fill_operator(
                        pattern, rules, n_cols,
                        underdetermined=self.underdetermined,
                    ),
                )
                if centered is None:
                    centered = matrix - means  # once per batch
                # One gather by row and column index arrays: the block is
                # C-ordered, which the einsum's bits depend on (a chained
                # ``centered[rows][:, known]`` would be F-ordered).
                row_index = rows[:, None]
                filled[row_index, holes] = (
                    fill_op.predict(centered[row_index, fill_op.known_indices])
                    + means[holes]
                )
            for i in row_list:
                cases[i] = fill_op.case
            group_sizes.append(len(row_list))
            n_holes_filled += len(row_list) * int(holes.size)
        return filled, tuple(cases), group_sizes, n_holes_filled
