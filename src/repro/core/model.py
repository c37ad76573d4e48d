"""The Ratio Rule model: fit, inspect, fill, project.

:class:`RatioRuleModel` ties the substrates together into the paper's
end-to-end pipeline (Sec. 4):

1. **fit** -- one sequential pass over the data source accumulates the
   column means and the scatter matrix ``C = Xc^t Xc`` (Fig. 2a), then
   a small in-memory eigensystem solve extracts the eigenpairs
   (Fig. 2b) and the cutoff policy keeps the top ``k`` (Eq. 1);
2. **fill** -- reconstruct missing entries of new rows via the
   hyper-plane intersection of Sec. 4.4;
3. **transform / reconstruct** -- project rows into RR-space (for the
   scatter plots of Figs. 9/11) and back.

The model is deliberately scikit-learn-flavored (``fit`` returns
``self``; learned state carries a trailing underscore) without
depending on scikit-learn.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.covariance import covariance_single_pass
from repro.core.energy import (
    CutoffPolicy,
    EnergyCutoff,
    FixedCutoff,
    resolve_cutoff,
)
from repro.core.reconstruction import (
    FillOperator,
    HoleFillResult,
    apply_fill_operator,
    compute_fill_operator,
    fill_holes,
    fill_matrix,
)
from repro.core.rules import RuleSet
from repro.io.matrix_reader import MatrixReader, open_matrix
from repro.io.schema import TableSchema
from repro.linalg.eigen import check_backend, solve_eigensystem
from repro.obs.metrics import ScanMetrics, Stopwatch

__all__ = ["RatioRuleModel", "NotFittedError"]


class NotFittedError(RuntimeError):
    """Raised when a model method requiring a fit is called before ``fit``."""


class RatioRuleModel:
    """Mine Ratio Rules from a data matrix and use them for estimation.

    Parameters
    ----------
    cutoff:
        How many rules to keep.  Accepts a
        :class:`~repro.core.energy.CutoffPolicy`, an ``int`` (fixed
        ``k``), a ``float`` in (0, 1] (energy threshold), the strings
        ``"paper"`` / ``"scree"`` / ``"kaiser"``, or ``None`` for the
        paper's 85% rule (Eq. 1).
    backend:
        Eigensolver backend, one of
        :data:`~repro.linalg.eigen.BACKENDS`: ``"numpy"`` (default,
        LAPACK), ``"jacobi"`` (the from-scratch reference), or
        ``"lanczos"`` (top-``k`` only).  An unknown name raises
        ``ValueError`` here rather than after the scan.
    accumulator:
        Covariance accumulator: ``"stable"`` (default) or
        ``"textbook"`` (the paper's Fig. 2a transcription).
    accumulate_dtype:
        Accumulation mode for the stable accumulator: ``"float64"``
        (default, bit-identical to the historical path), ``"raw64"``
        (BLAS raw-moment accumulation), or ``"float32"`` (raw moments
        in single precision with float64 centering).  See
        :data:`~repro.core.covariance.ACCUMULATE_DTYPES`.
    block_rows:
        Rows per block during the single-pass scan.
    seed:
        Seed for the iterative eigensolver backends.

    Attributes (after ``fit``)
    --------------------------
    rules_ : RuleSet
        The ``k`` Ratio Rules, strongest first.
    means_ : numpy.ndarray
        Training column means (the ``col-avgs`` competitor's entire model).
    n_rows_ : int
        Number of training rows scanned.
    schema_ : TableSchema
        Column metadata.
    eigenvalues_ : numpy.ndarray
        Eigenvalues of the kept rules, descending.
    total_variance_ : float
        Trace of the scatter matrix (Eq. 1's denominator).
    metrics_ : repro.obs.metrics.ScanMetrics
        Scan/solve telemetry for the fit (rows/sec, blocks, timings);
        rendered by the CLI ``--stats`` flag.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RatioRuleModel
    >>> X = np.array([[0.89, 0.49], [3.34, 1.85], [5.00, 3.09],
    ...               [1.78, 0.99], [4.02, 2.61]])   # Fig. 1 of the paper
    >>> model = RatioRuleModel().fit(X)
    >>> model.k
    1
    >>> filled = model.fill_row(np.array([8.50, np.nan]))  # forecast butter
    >>> bool(filled[1] > 4.0)
    True
    """

    def __init__(
        self,
        cutoff: Union[CutoffPolicy, int, float, str, None] = None,
        *,
        backend: str = "numpy",
        accumulator: str = "stable",
        accumulate_dtype: str = "float64",
        block_rows: int = 4096,
        seed: int = 0,
    ) -> None:
        self.cutoff_policy = resolve_cutoff(cutoff)
        self.backend = check_backend(backend)
        self.accumulator = accumulator
        self.accumulate_dtype = accumulate_dtype
        self.block_rows = block_rows
        self.seed = seed
        # Learned state (None until fit).
        self.rules_: Optional[RuleSet] = None
        self.means_: Optional[np.ndarray] = None
        self.n_rows_: Optional[int] = None
        self.schema_: Optional[TableSchema] = None
        self.eigenvalues_: Optional[np.ndarray] = None
        self.total_variance_: Optional[float] = None
        self.metrics_: Optional[ScanMetrics] = None

    # -- fitting ----------------------------------------------------------

    def fit(self, source, schema: Optional[TableSchema] = None) -> "RatioRuleModel":
        """Mine Ratio Rules from ``source`` in a single pass.

        Parameters
        ----------
        source:
            Array, :class:`~repro.io.matrix_reader.MatrixReader`, or a
            path to a CSV / row-store file.
        schema:
            Optional column metadata (arrays only; files carry their own).

        Returns
        -------
        RatioRuleModel
            ``self``, fitted.
        """
        metrics = ScanMetrics()
        owns_reader = not isinstance(source, MatrixReader)
        with Stopwatch() as total_watch:
            reader = open_matrix(source, schema)
            try:
                reader_schema = reader.schema
                scatter, means, n_rows = covariance_single_pass(
                    reader,
                    block_rows=self.block_rows,
                    accumulator=self.accumulator,
                    accumulate_dtype=self.accumulate_dtype,
                    metrics=metrics,
                )
                metrics.accumulate_dtype = self.accumulate_dtype
            finally:
                if owns_reader:
                    reader.close()
            with Stopwatch() as solve_watch:
                self._fit_from_scatter(scatter, means, n_rows, reader_schema)
        metrics.solve_seconds = solve_watch.seconds
        metrics.total_seconds = total_watch.seconds
        self.metrics_ = metrics
        return self

    def fit_from_accumulator(
        self,
        accumulator,
        schema: TableSchema,
        *,
        metrics: Optional[ScanMetrics] = None,
    ) -> "RatioRuleModel":
        """Finish a fit from an already-accumulated covariance.

        This is the reduce-side entry point for the out-of-core scan
        engine and its checkpoint/resume path: anything that can
        produce a merged
        :class:`~repro.core.covariance.StreamingCovariance` -- a
        sharded scan, a resumed scan, partials merged by hand with
        :func:`~repro.core.parallel.merge_partials` -- becomes a
        fitted model without touching the data again.

        Parameters
        ----------
        accumulator:
            Merged statistics exposing ``scatter_matrix()``,
            ``column_means`` and ``n_rows`` (e.g.
            :class:`~repro.core.covariance.StreamingCovariance`).
        schema:
            Column metadata for the scanned matrix.
        metrics:
            Optional scan telemetry; its ``solve_seconds`` is filled
            here and the record is attached as ``self.metrics_``.

        Returns
        -------
        RatioRuleModel
            ``self``, fitted.
        """
        if accumulator.n_rows == 0:
            raise ValueError("accumulator holds no rows (shards contained no rows)")
        with Stopwatch() as solve_watch:
            self._fit_from_scatter(
                accumulator.scatter_matrix(),
                accumulator.column_means,
                accumulator.n_rows,
                schema,
            )
        if metrics is not None:
            metrics.solve_seconds = solve_watch.seconds
            self.metrics_ = metrics
        return self

    def _fit_from_scatter(
        self,
        scatter: np.ndarray,
        means: np.ndarray,
        n_rows: int,
        schema: TableSchema,
    ) -> None:
        """Finish fitting from an already-accumulated scatter matrix."""
        n_cols = scatter.shape[0]
        eigen = self._solve(scatter, n_cols)
        k = self.cutoff_policy.choose_k(eigen.eigenvalues, eigen.total_variance)
        k = min(k, eigen.k)
        kept = eigen.truncate(k)
        self.rules_ = RuleSet.from_eigen(
            kept.eigenvalues, kept.eigenvectors, eigen.total_variance, schema
        )
        self.means_ = np.asarray(means, dtype=np.float64).copy()
        self.n_rows_ = int(n_rows)
        self.schema_ = schema
        self.eigenvalues_ = kept.eigenvalues.copy()
        self.total_variance_ = float(eigen.total_variance)

    def _solve(self, scatter: np.ndarray, n_cols: int):
        """Run the eigensolver, handling the top-k-only backend.

        Dense backends ("numpy", "jacobi") return the full spectrum and
        let the cutoff policy pick freely.  The iterative "lanczos"
        needs ``k`` up front: for a fixed cutoff we request exactly
        that; otherwise we grow the request until the policy's choice
        fits inside what was computed.
        """
        if self.backend != "lanczos":
            return solve_eigensystem(scatter, backend=self.backend)

        if isinstance(self.cutoff_policy, FixedCutoff):
            k_request = min(self.cutoff_policy.k, n_cols)
            return solve_eigensystem(
                scatter, backend=self.backend, k=k_request, seed=self.seed
            )

        # Adaptive growth for data-dependent policies.
        k_request = min(8, n_cols)
        while True:
            eigen = solve_eigensystem(
                scatter, backend=self.backend, k=k_request, seed=self.seed
            )
            chosen = self.cutoff_policy.choose_k(
                eigen.eigenvalues, eigen.total_variance
            )
            satisfied = chosen < k_request or k_request == n_cols
            if isinstance(self.cutoff_policy, EnergyCutoff):
                fractions = eigen.energy_fractions()
                satisfied = satisfied or bool(
                    fractions[-1] >= self.cutoff_policy.threshold - 1e-12
                )
            if satisfied:
                return eigen
            k_request = min(2 * k_request, n_cols)

    # -- fitted-state helpers ----------------------------------------------

    def _require_fitted(self) -> RuleSet:
        if self.rules_ is None:
            raise NotFittedError("call fit() before using the model")
        return self.rules_

    @property
    def k(self) -> int:
        """Number of Ratio Rules kept (the paper's cutoff)."""
        return self._require_fitted().k

    @property
    def rules_matrix(self) -> np.ndarray:
        """The ``M x k`` rule matrix ``V`` (copy)."""
        return self._require_fitted().matrix

    def fingerprint(self) -> str:
        """Content hash of the learned state (rules, means, row count).

        Two fits that landed on the same rules and means share a
        fingerprint; any retrain that moved them changes it.  The
        serving layer uses this to tell whether a freshly published
        model actually differs from the one it replaces.
        """
        import hashlib

        rules = self._require_fitted()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(rules.matrix).tobytes())
        digest.update(np.ascontiguousarray(self.means_).tobytes())
        digest.update(str(self.n_rows_).encode())
        return digest.hexdigest()[:16]

    def fill_operator(
        self, hole_indices, *, underdetermined: str = "truncate"
    ) -> FillOperator:
        """Precompute the reusable linear fill map for one hole pattern.

        The returned :class:`~repro.core.reconstruction.FillOperator`
        is immutable and thread-safe to share; repeated fills with the
        same pattern reduce to one kernel apply each.  This is the
        unit the :mod:`repro.serve` operator cache stores.
        """
        rules = self._require_fitted()
        return compute_fill_operator(
            hole_indices,
            rules.matrix,
            self.schema_.width,
            underdetermined=underdetermined,
        )

    # -- estimation ---------------------------------------------------------

    def fill_row(
        self, row: np.ndarray, *, underdetermined: str = "truncate"
    ) -> np.ndarray:
        """Fill the NaN entries of one row; returns the completed row.

        ``underdetermined`` selects the CASE-3 policy; see
        :func:`repro.core.reconstruction.fill_holes`.
        """
        return self.fill_row_detailed(row, underdetermined=underdetermined).filled

    def fill_row_detailed(
        self, row: np.ndarray, *, underdetermined: str = "truncate"
    ) -> HoleFillResult:
        """Like :meth:`fill_row` but returns the full diagnostic result."""
        rules = self._require_fitted()
        return fill_holes(
            np.asarray(row, dtype=np.float64),
            rules.matrix,
            self.means_,
            underdetermined=underdetermined,
        )

    def fill(
        self, matrix: np.ndarray, *, underdetermined: str = "truncate"
    ) -> np.ndarray:
        """Fill every NaN in an ``N x M`` matrix (data cleaning entry point).

        ``underdetermined`` selects the CASE-3 policy, exactly as in
        :meth:`fill_row`, so batch and per-row fills agree.
        """
        rules = self._require_fitted()
        return fill_matrix(
            np.asarray(matrix, dtype=np.float64),
            rules.matrix,
            self.means_,
            underdetermined=underdetermined,
        )

    def predict_holes(self, matrix: np.ndarray, hole_indices) -> np.ndarray:
        """Batch-predict the cells at ``hole_indices`` for every row.

        The true values in those columns are ignored -- only the other
        columns inform the prediction.  This is the fast path used by
        the guessing-error harness (one precomputed linear operator per
        hole pattern instead of one solve per row).

        Returns an ``n_rows x len(hole_indices)`` array of predictions,
        ordered like ``hole_indices``.
        """
        rules = self._require_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        holes = np.asarray(sorted(int(i) for i in hole_indices), dtype=int)
        requested = [int(i) for i in hole_indices]
        n_cols = matrix.shape[1]
        known = np.setdiff1d(np.arange(n_cols), holes)
        if known.size == 0:
            tiled = np.tile(self.means_[holes], (matrix.shape[0], 1))
        else:
            fill_op = compute_fill_operator(holes.tolist(), rules.matrix, n_cols)
            # Row-major, like fill_row's block: the einsum then sums each
            # row in the same order whatever the batch, so every
            # prediction equals fill_row's bit for bit.
            centered_known = np.take(matrix, known, axis=1) - self.means_[known]
            tiled = (
                apply_fill_operator(fill_op.operator, centered_known)
                + self.means_[holes]
            )
        # Reorder columns to match the caller's hole order.
        position = {int(col): j for j, col in enumerate(holes)}
        order = [position[i] for i in requested]
        return tiled[:, order]

    # -- projection / reconstruction ---------------------------------------

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project rows into RR-space: ``(X - means) @ V`` (``N x k``).

        Column 0 of the result is the coordinate along RR1 -- the
        "volume" axis of Fig. 1 and the x-axis of Fig. 11(a).
        """
        rules = self._require_fitted()
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        return (matrix - self.means_) @ rules.matrix

    def inverse_transform(self, projections: np.ndarray) -> np.ndarray:
        """Map RR-space coordinates back to attribute space."""
        rules = self._require_fitted()
        projections = np.atleast_2d(np.asarray(projections, dtype=np.float64))
        return projections @ rules.matrix.T + self.means_

    def reconstruct(self, matrix: np.ndarray) -> np.ndarray:
        """Rank-``k`` reconstruction ``X_hat`` of complete rows.

        The row-wise distance between ``matrix`` and the reconstruction
        measures how far each row strays from the RR-hyperplane (used
        by the outlier detector).
        """
        return self.inverse_transform(self.transform(matrix))

    # -- reporting ------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary of the mined rules."""
        rules = self._require_fitted()
        return rules.describe()

    def score(self, test_matrix: np.ndarray, *, h: int = 1) -> float:
        """Guessing error GEh of this model on a complete test matrix.

        Sugar over :func:`repro.core.guessing_error.guessing_error`
        (lower is better -- this is an error, not an accuracy).
        """
        from repro.core.guessing_error import guessing_error

        self._require_fitted()
        return guessing_error(
            self, np.asarray(test_matrix, dtype=np.float64), h=h
        ).value

    def __repr__(self) -> str:
        if self.rules_ is None:
            return (
                f"RatioRuleModel(cutoff={self.cutoff_policy!r}, "
                f"backend={self.backend!r}, unfitted)"
            )
        return (
            f"RatioRuleModel(k={self.k}, M={self.schema_.width}, "
            f"N={self.n_rows_}, energy={self.rules_.total_energy_fraction():.1%}, "
            f"backend={self.backend!r})"
        )

    # -- persistence ------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Serialize the fitted model to an ``.npz`` file."""
        rules = self._require_fitted()
        np.savez(
            path,
            rules_matrix=rules.matrix,
            eigenvalues=self.eigenvalues_,
            means=self.means_,
            n_rows=np.asarray([self.n_rows_]),
            total_variance=np.asarray([self.total_variance_]),
            schema_json=np.asarray([self.schema_.to_json()]),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RatioRuleModel":
        """Deserialize a model saved by :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            schema = TableSchema.from_json(str(archive["schema_json"][0]))
            model = cls()
            model.schema_ = schema
            model.means_ = archive["means"].copy()
            model.n_rows_ = int(archive["n_rows"][0])
            model.total_variance_ = float(archive["total_variance"][0])
            model.eigenvalues_ = archive["eigenvalues"].copy()
            model.rules_ = RuleSet.from_eigen(
                archive["eigenvalues"],
                archive["rules_matrix"],
                model.total_variance_,
                schema,
            )
        return model
