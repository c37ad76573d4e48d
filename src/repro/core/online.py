"""Online (streaming) Ratio Rule maintenance.

The paper's algorithm is one-shot: scan, solve, done.  But because the
scan's state (the mergeable covariance accumulator) is tiny and
order-independent, the same machinery supports a *live* model over an
append-only stream of transactions: fold new rows in as they arrive
and re-solve the ``M x M`` eigensystem only when someone asks for the
rules.  The re-solve costs O(M^3) -- independent of the stream length
-- so a model over billions of rows refreshes in milliseconds.

:class:`OnlineRatioRuleModel` wraps that pattern:

- :meth:`update` folds a block of rows into the accumulator (O(B M^2));
- :meth:`model` returns a fitted
  :class:`~repro.core.model.RatioRuleModel` for the rows seen so far,
  re-solving lazily (the solve is cached until the next update);
- the estimator protocol (``fill_row`` / ``predict_holes``) is
  forwarded to the current model, so the online wrapper drops into the
  guessing-error harness and the outlier/cleaning tools directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.covariance import DecayingCovariance, StreamingCovariance
from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema
from repro.linalg.eigen import check_backend

__all__ = ["OnlineRatioRuleModel"]


class OnlineRatioRuleModel:
    """A Ratio Rule model maintained incrementally over a row stream.

    Parameters
    ----------
    n_cols:
        Number of attributes ``M`` (fixed for the stream's lifetime).
    schema:
        Optional column metadata; defaults to generic names.
    cutoff, backend:
        Forwarded to the lazily re-solved
        :class:`~repro.core.model.RatioRuleModel`.
    min_rows:
        Rows required before the first solve (rules over a handful of
        rows are noise; 2 is the mathematical minimum).
    decay:
        Exponential forgetting factor applied **per row**: ``1.0``
        (default) keeps all history forever; smaller values give an
        effective memory of ~``1 / (1 - decay)`` rows -- independent
        of how the stream is cut into update blocks -- so the rules
        track regime changes
        (:class:`~repro.core.covariance.DecayingCovariance`).
    """

    def __init__(
        self,
        n_cols: int,
        *,
        schema: Optional[TableSchema] = None,
        cutoff=None,
        backend: str = "numpy",
        min_rows: int = 2,
        decay: float = 1.0,
    ) -> None:
        if min_rows < 2:
            raise ValueError(f"min_rows must be >= 2, got {min_rows}")
        self.decay = float(decay)
        if self.decay < 1.0:
            self._accumulator = DecayingCovariance(n_cols, decay=self.decay)
        else:
            self._accumulator = StreamingCovariance(n_cols)
        self._schema = schema if schema is not None else TableSchema.generic(n_cols)
        if self._schema.width != n_cols:
            raise ValueError(
                f"schema width {self._schema.width} != n_cols {n_cols}"
            )
        self._cutoff = cutoff
        self._backend = check_backend(backend)
        self._min_rows = min_rows
        self._cached_model: Optional[RatioRuleModel] = None
        self._updates_seen = 0

    # -- stream ingestion ---------------------------------------------------

    def update(self, rows: np.ndarray) -> "OnlineRatioRuleModel":
        """Fold a block of new rows into the stream statistics.

        Invalidates the cached solve; O(B * M^2).  An *empty* block
        (zero rows of the right width) is a no-op: the statistics, the
        cached solve, and the update counter are all left untouched, so
        idle polls of a quiet stream cost nothing.  A block of the
        wrong width raises ``ValueError`` before any state changes.
        """
        rows = np.asarray(rows, dtype=np.float64)
        self._accumulator.update(rows)
        if rows.ndim == 2 and rows.shape[0] == 0:
            return self
        self._cached_model = None
        self._updates_seen += 1
        return self

    def merge(self, other: "OnlineRatioRuleModel") -> "OnlineRatioRuleModel":
        """Fold another online model's stream into this one (exact).

        Only supported without forgetting: decayed statistics carry an
        update-order dependence that a commutative merge cannot honor.

        Raises
        ------
        ValueError
            When either model forgets (``decay < 1``) or the two
            models' column schemas disagree -- merging streams that
            describe different attributes would silently attribute
            ``other``'s data to ``self``'s columns.
        """
        if self.decay < 1.0 or other.decay < 1.0:
            raise ValueError("merge is not defined for decaying models")
        if self._schema.names != other._schema.names:
            raise ValueError(
                f"cannot merge online models with different schemas: "
                f"{list(self._schema.names)} != {list(other._schema.names)}"
            )
        self._accumulator.merge(other._accumulator)
        self._updates_seen += other._updates_seen
        self._cached_model = None
        return self

    def fork(self) -> "OnlineRatioRuleModel":
        """An independent copy of this model's stream state.

        The clone shares nothing mutable with the original: folding
        rows into one never disturbs the other.  This is how the
        ingestion pipeline (:mod:`repro.pipeline`) solves a candidate
        model over "all rows so far plus a partial trailing block"
        without contaminating the block-aligned running accumulator
        that its bit-identity guarantee depends on.
        """
        clone = OnlineRatioRuleModel(
            self._accumulator.n_cols,
            schema=self._schema,
            cutoff=self._cutoff,
            backend=self._backend,
            min_rows=self._min_rows,
            decay=self.decay,
        )
        clone._accumulator = type(self._accumulator).from_state(
            self._accumulator.state()
        )
        clone._updates_seen = self._updates_seen
        # The cached model is frozen after fitting, so sharing it is safe;
        # the first update() on either side drops its own reference.
        clone._cached_model = self._cached_model
        return clone

    # -- state ---------------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        """Column metadata for the stream."""
        return self._schema

    @property
    def n_cols(self) -> int:
        """Number of attributes ``M``."""
        return self._accumulator.n_cols

    @property
    def n_rows_seen(self) -> int:
        """Rows folded in so far."""
        return self._accumulator.n_rows

    @property
    def n_updates(self) -> int:
        """Number of update() calls so far."""
        return self._updates_seen

    @property
    def is_ready(self) -> bool:
        """Whether enough rows have arrived to solve for rules."""
        return self.n_rows_seen >= self._min_rows

    def model(self) -> RatioRuleModel:
        """The Ratio Rule model for every row seen so far.

        Re-solves the eigensystem only if rows arrived since the last
        call; the solve cost is O(M^3), independent of the stream
        length.

        Raises
        ------
        ValueError
            Before ``min_rows`` rows have arrived.
        """
        if not self.is_ready:
            raise ValueError(
                f"need at least {self._min_rows} rows before solving; "
                f"have {self.n_rows_seen}"
            )
        if self._cached_model is None:
            model = RatioRuleModel(cutoff=self._cutoff, backend=self._backend)
            model._fit_from_scatter(
                self._accumulator.scatter_matrix(),
                self._accumulator.column_means,
                self._accumulator.n_rows,
                self._schema,
            )
            self._cached_model = model
        return self._cached_model

    # -- estimator protocol (forwarded) ---------------------------------------

    def fill_row(self, row: np.ndarray) -> np.ndarray:
        """Fill NaN holes using the current rules."""
        return self.model().fill_row(row)

    def predict_holes(self, matrix: np.ndarray, hole_indices) -> np.ndarray:
        """Batch hole prediction using the current rules."""
        return self.model().predict_holes(matrix, hole_indices)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project rows into the current RR-space."""
        return self.model().transform(matrix)
