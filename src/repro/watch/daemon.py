"""The always-on anomaly/cleaning daemon.

:class:`WatchDaemon` closes the last open loop between the streaming
pipeline and the serving tier: it stands *in front of* an
:class:`~repro.pipeline.IngestionPipeline`'s accumulator (via the
pipeline's pre-accumulator ``tap``) and gives every incoming row a
verdict before the accumulator can see it.

For each polled batch the daemon:

1. fetches the current :class:`~repro.serve.registry.PublishedModel`
   from the registry (resetting its residual calibration when the
   version changed -- residuals are model-relative);
2. computes each row's reconstruction residual and z-scores it
   against the streaming :class:`~repro.core.outliers.ResidualCalibration`
   (rows arriving before a model is published, or before the
   calibration warms up, pass through unscored; once a model is
   published, a row whose residual is not finite is quarantined);
3. routes each row by :class:`~repro.watch.policy.RoutingPolicy` --
   ``pass`` (admit), ``clean`` (repair the worst cell via the
   canonical fill operator, then admit), or ``quarantine`` (preserve
   the original bytes in the append-only
   :class:`~repro.watch.quarantine.RowQuarantine`; the accumulator
   never sees the row).  A batch's repairs use one fill operator per
   column and its quarantine records land in one write;
4. publishes structured :class:`~repro.watch.events.WatchEvent`
   notifications (one per quarantined row, plus burst / drift /
   refresh / rotation / growth events) through the
   :class:`~repro.watch.notify.NotificationManager`.

Because routing happens before block partitioning, the pipeline's
bit-identity guarantee transfers: the refreshed model is bit-identical
to an offline fit over exactly the rows the daemon admitted.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.model import RatioRuleModel
from repro.core.outliers import (
    ResidualCalibration,
    hole_fill_errors,
    leave_one_out_errors,
    reconstruction_residuals,
)
from repro.core.reconstruction import FillOperator
from repro.io.schema import TableSchema
from repro.obs.metrics import PipelineMetrics, Stopwatch, WatchMetrics
from repro.obs.tracing import span
from repro.pipeline.drift import DriftDetector, DriftReport
from repro.pipeline.pipeline import IngestionPipeline
from repro.pipeline.policy import RefreshPolicy
from repro.pipeline.sources import BatchSource
from repro.serve.registry import (
    ModelRegistry,
    NoModelPublishedError,
    PublishedModel,
)
from repro.watch.events import WatchEvent
from repro.watch.notify import NotificationManager
from repro.watch.policy import RoutingPolicy
from repro.watch.quarantine import RowQuarantine
from repro.watch.status import WatchStatus

__all__ = ["WatchDaemon"]

#: Relative gap under which two single-hole error magnitudes count as a
#: tie; far above the closed form's ~1e-13 disagreement with the loop.
_TIE_RTOL = 1e-9


class WatchDaemon:
    """Score, route, and notify on a live stream.

    Parameters
    ----------
    source:
        The :class:`~repro.pipeline.sources.BatchSource` to tail.
    quarantine:
        Where diverted rows are preserved.
    notifier:
        Event fan-out; a sink-less manager by default (events are
        still counted in metrics).
    policy:
        Row-routing thresholds (:class:`RoutingPolicy` default).
    registry:
        The registry scored against *and* published into; a fresh
        private one by default.  Seed it (or pass a store-backed one)
        to score from the first row.
    schema:
        Column metadata; defaults to the source's schema.
    cutoff, backend, block_rows, decay, batch_rows, refresh_policy,
    detector:
        Forwarded to the embedded :class:`IngestionPipeline`.
    metrics:
        The :class:`~repro.obs.metrics.WatchMetrics` record to write
        into; a fresh one by default.
    calibration:
        A pre-warmed :class:`ResidualCalibration` (e.g. from
        :func:`~repro.core.outliers.calibrate_residuals` over the
        training data); a cold one by default.
    clock:
        Wall-clock source for event timestamps (test override).
    """

    def __init__(
        self,
        source: BatchSource,
        *,
        quarantine: RowQuarantine,
        notifier: Optional[NotificationManager] = None,
        policy: Optional[RoutingPolicy] = None,
        registry: Optional[ModelRegistry] = None,
        schema: Optional[TableSchema] = None,
        cutoff: object = None,
        backend: str = "numpy",
        block_rows: int = 4096,
        decay: float = 1.0,
        batch_rows: int = 1024,
        refresh_policy: Optional[RefreshPolicy] = None,
        detector: Optional[DriftDetector] = None,
        metrics: Optional[WatchMetrics] = None,
        calibration: Optional[ResidualCalibration] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.policy = policy if policy is not None else RoutingPolicy()
        self.metrics = metrics if metrics is not None else WatchMetrics()
        self.quarantine = quarantine
        self.notifier = (
            notifier
            if notifier is not None
            else NotificationManager(metrics=self.metrics)
        )
        self.calibration = (
            calibration
            if calibration is not None
            else ResidualCalibration(min_rows=self.policy.min_calibration_rows)
        )
        self._clock = clock
        self._registry = registry if registry is not None else ModelRegistry()
        self.pipeline = IngestionPipeline(
            source,
            registry=self._registry,
            schema=schema,
            cutoff=cutoff,
            backend=backend,
            block_rows=block_rows,
            decay=decay,
            batch_rows=batch_rows,
            policy=refresh_policy,
            detector=detector,
            tap=self._tap,
        )
        self._scored_version = 0
        # Single-hole fill operators of the scored version, by column.
        self._fill_operators: Dict[int, FillOperator] = {}
        self._seen_version = self._registry.latest_version
        self._seen_rotations = 0
        self._seen_truncations = 0
        self._seen_drift_report: Optional[DriftReport] = None
        self._last_growth_mark = 0
        self._started_monotonic: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()

    # -- accessors ---------------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        """The registry the daemon scores against and publishes into."""
        return self._registry

    @property
    def pipeline_metrics(self) -> PipelineMetrics:
        """The embedded pipeline's instrumentation record."""
        return self.pipeline.metrics

    @property
    def running(self) -> bool:
        """Whether a background :meth:`start` thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    # -- the routing tap ---------------------------------------------------

    def _tap(self, batch: np.ndarray) -> Optional[np.ndarray]:
        """Route one polled batch; returns the rows to admit."""
        n_rows = batch.shape[0]
        self.metrics.rows_seen += n_rows
        self.metrics.n_batches_tapped += 1
        try:
            published = self._registry.current()
        except NoModelPublishedError:
            published = None
        if published is None:
            # Nothing to score against yet: let rows through so the
            # pipeline can bootstrap an initial model.
            self.metrics.rows_unscored += n_rows
            return batch
        if published.version != self._scored_version:
            if self.policy.recalibrate_on_refresh and self._scored_version != 0:
                self.calibration = ResidualCalibration(
                    min_rows=self.policy.min_calibration_rows
                )
                self.metrics.n_calibration_resets += 1
            # Fill operators belong to one model, like the residuals.
            self._fill_operators = {}
        self._scored_version = published.version
        self.metrics.model_version = published.version
        model = published.model
        with span("watch.score", rows=n_rows), Stopwatch() as watch:
            residuals = reconstruction_residuals(model, batch)
            scoring = self.calibration.ready
            if scoring:
                z_scores = self.calibration.z_scores(residuals)
        if scoring:
            self.metrics.score_seconds += watch.seconds
            self.metrics.rows_scored += n_rows
            self.metrics.last_residual = float(residuals[-1])
            self.metrics.last_z_score = float(z_scores[-1])
            with span("watch.route", rows=n_rows):
                flagged_mask, quarantine_mask = self.policy.route_masks(z_scores)
        else:
            # Warm-up: finite rows pass unscored and feed the calibration.
            # A non-finite residual would poison it, so its row
            # quarantines with a NaN z-score.
            finite = np.isfinite(residuals)
            n_finite = int(np.count_nonzero(finite))
            with span("watch.calibrate", rows=n_finite):
                self.calibration.observe(residuals[finite])
            self._sync_calibration_gauges()
            self.metrics.rows_unscored += n_finite
            if n_finite == n_rows:
                return batch
            z_scores = np.full(n_rows, np.nan)
            flagged_mask = quarantine_mask = ~finite
        n_flagged = int(np.count_nonzero(flagged_mask))
        admitted = batch
        if n_flagged:
            admitted = self._divert(
                published, batch, residuals, z_scores, flagged_mask, quarantine_mask
            )
        if scoring:
            n_passed = n_rows - n_flagged
            self.metrics.rows_passed += n_passed
            # Passed rows (not cleaned ones) refine the calibration: they
            # looked like the population, so they sharpen its estimate.
            if n_passed:
                with span("watch.calibrate", rows=n_passed):
                    self.calibration.observe(residuals[~flagged_mask])
            self._sync_calibration_gauges()
        self._sync_quarantine_gauges()
        if self.policy.is_burst(n_flagged, n_rows):
            self.metrics.n_bursts += 1
            self.notifier.publish(
                WatchEvent.now(
                    "outlier-burst",
                    {
                        "n_flagged": n_flagged,
                        "n_rows": n_rows,
                        "fraction": n_flagged / n_rows,
                        "model_version": published.version,
                    },
                    clock=self._clock,
                )
            )
        self._maybe_growth_event()
        if quarantine_mask.any():
            admitted = admitted[~quarantine_mask]
        return admitted if admitted.shape[0] else None

    def _divert(
        self,
        published: PublishedModel,
        batch: np.ndarray,
        residuals: np.ndarray,
        z_scores: np.ndarray,
        flagged_mask: np.ndarray,
        quarantine_mask: np.ndarray,
    ) -> np.ndarray:
        """Clean and quarantine a batch's flagged rows.

        Returns a copy of the batch with the cleaned rows repaired; the
        quarantined rows are still in it.  The batch's quarantine
        records are written first, with one write, and then every
        flagged row's event is published in row order.
        """
        model = published.model
        flagged = np.flatnonzero(flagged_mask)
        # One closed-form call ranks the cells of every flagged row: it
        # picks the cell a clean repairs, and names the worst cell in the
        # row-cleaned / row-quarantined events.
        with span("watch.worst_cells", rows=flagged.size), Stopwatch() as rank:
            errors = leave_one_out_errors(model, batch[flagged])
        self.metrics.clean_seconds += rank.seconds
        assert model.schema_ is not None  # the registry holds fitted models
        names = model.schema_.names
        worst = [
            self._worst_column(model, batch[index], row_errors)
            for index, row_errors in zip(flagged, errors)
        ]
        payloads = [
            {
                "z_score": float(z_scores[index]),
                "residual": float(residuals[index]),
                # The masks decide the action; route_z only words the reason.
                "reason": self.policy.route_z(float(z_scores[index])).reason,
                "model_version": published.version,
                "worst_column": column,
                "worst_column_name": names[column],
                "worst_error": float(row_errors[column]),
            }
            for index, row_errors, column in zip(flagged.tolist(), errors, worst)
        ]
        moved = quarantine_mask[flagged]
        admitted = batch.copy()
        # Cleaned rows, grouped by the cell each one repairs.
        groups: Dict[int, List[int]] = {}
        for index, column, is_moved in zip(flagged.tolist(), worst, moved.tolist()):
            if not is_moved:
                groups.setdefault(column, []).append(index)
        if groups:
            n_cleaned = len(flagged) - int(np.count_nonzero(moved))
            with span("watch.clean", rows=n_cleaned), Stopwatch() as clean_watch:
                self._fill_cells(model, batch, admitted, groups)
            self.metrics.clean_seconds += clean_watch.seconds
            self.metrics.rows_cleaned += n_cleaned
        records: List[Dict[str, Any]] = []
        if moved.any():
            diverted = flagged[moved]
            with span("watch.quarantine", rows=diverted.size), Stopwatch() as q_watch:
                records = self.quarantine.extend(
                    batch[diverted],
                    residuals=residuals[diverted].tolist(),
                    z_scores=z_scores[diverted].tolist(),
                    reasons=[p["reason"] for p, m in zip(payloads, moved) if m],
                    model_version=published.version,
                )
            self.metrics.quarantine_seconds += q_watch.seconds
            self.metrics.rows_quarantined += int(diverted.size)
        seqs = (record["seq"] for record in records)
        for payload, is_moved in zip(payloads, moved.tolist()):
            kind = "row-cleaned"
            if is_moved:
                kind, payload = "row-quarantined", {"seq": next(seqs), **payload}
            self.notifier.publish(WatchEvent.now(kind, payload, clock=self._clock))
        return admitted

    def _fill_cells(
        self,
        model: RatioRuleModel,
        batch: np.ndarray,
        admitted: np.ndarray,
        groups: Dict[int, List[int]],
    ) -> None:
        """For each ``column: rows`` group, blank that cell of the batch
        rows and write the model's re-fill of it into ``admitted``.

        A group shares one single-hole operator from the per-version
        table.  :meth:`FillOperator.predict` gives each row the bits it
        has alone, so every repair equals ``model.fill_row``.
        """
        means = model.means_
        for column, rows in groups.items():
            operator = self._fill_operators.get(column)
            if operator is None:
                operator = self._fill_operators[column] = model.fill_operator(
                    [column]
                )
            known = operator.known_indices
            centered = np.take(batch[rows], known, axis=1) - means[known]
            admitted[rows, column] = operator.predict(centered)[:, 0] + means[column]

    @staticmethod
    def _worst_column(
        model: RatioRuleModel, row: np.ndarray, errors: np.ndarray
    ) -> int:
        """The column with the largest single-hole error ``|errors|``.

        ``errors`` is the row's :func:`leave_one_out_errors` output.  It
        matches the per-column fill loop to rounding, so when the top
        two magnitudes are within that rounding of each other the loop
        decides, and an exact tie picks the first column as it does.  A
        row with a NaN or infinite cell names its first such cell.
        """
        non_finite = ~np.isfinite(row)
        if non_finite.any():
            # The first non-finite cell is what the row's residual shows.
            return int(np.argmax(non_finite))
        magnitudes = np.abs(errors)
        top_two = np.sort(magnitudes)[-2:]
        if top_two[-1] - top_two[0] <= _TIE_RTOL * top_two[-1]:
            magnitudes = np.abs(hole_fill_errors(model, row.reshape(1, -1))[0])
        return int(np.argmax(magnitudes))

    @staticmethod
    def _fill_cell(model: RatioRuleModel, row: np.ndarray, column: int) -> np.ndarray:
        """``row`` with cell ``column`` blanked and re-filled by the model."""
        holed = row.astype(np.float64).copy()
        holed[column] = np.nan
        return np.asarray(model.fill_row(holed), dtype=np.float64)

    def _sync_calibration_gauges(self) -> None:
        self.metrics.calibration_rows = self.calibration.n_observed
        self.metrics.calibration_mean = self.calibration.mean
        self.metrics.calibration_std = self.calibration.std

    def _sync_quarantine_gauges(self) -> None:
        self.metrics.quarantine_rows = self.quarantine.n_quarantined
        self.metrics.quarantine_bytes = self.quarantine.total_bytes

    def _maybe_growth_event(self) -> None:
        mark = self.quarantine.n_quarantined // self.policy.growth_every_rows
        if mark > self._last_growth_mark:
            self._last_growth_mark = mark
            self.notifier.publish(
                WatchEvent.now(
                    "quarantine-growth",
                    {
                        "rows": self.quarantine.n_quarantined,
                        "bytes": self.quarantine.total_bytes,
                        "path": str(self.quarantine.path),
                    },
                    clock=self._clock,
                )
            )

    # -- pipeline-observation events ---------------------------------------

    def _emit_pipeline_events(self) -> None:
        """Diff pipeline/source state and emit events for changes."""
        pm = self.pipeline.metrics
        if pm.n_source_rotations > self._seen_rotations:
            self._seen_rotations = pm.n_source_rotations
            self.notifier.publish(
                WatchEvent.now(
                    "source-rotation",
                    {"n_rotations": pm.n_source_rotations},
                    clock=self._clock,
                )
            )
        if pm.n_source_truncations > self._seen_truncations:
            self._seen_truncations = pm.n_source_truncations
            self.notifier.publish(
                WatchEvent.now(
                    "source-truncation",
                    {"n_truncations": pm.n_source_truncations},
                    clock=self._clock,
                )
            )
        report = self.pipeline.last_drift_report
        if report is not None and report is not self._seen_drift_report:
            self._seen_drift_report = report
            if report.drifted:
                self.notifier.publish(
                    WatchEvent.now(
                        "drift-detected",
                        {
                            "reasons": list(report.reasons),
                            "guessing_error": report.guessing_error,
                            "baseline_guessing_error": (
                                report.baseline_guessing_error
                            ),
                            "angle_degrees": report.angle_degrees,
                        },
                        clock=self._clock,
                    )
                )
        version = self._registry.latest_version
        if version > self._seen_version:
            self._seen_version = version
            self.notifier.publish(
                WatchEvent.now(
                    "refresh-published",
                    {
                        "version": version,
                        "reason": pm.last_refresh_reason,
                    },
                    clock=self._clock,
                )
            )

    # -- the watch loop ----------------------------------------------------

    def step(self) -> bool:
        """One poll-score-route-notify cycle.  False when the source
        permanently ended."""
        alive = self.pipeline.step()
        self._emit_pipeline_events()
        return alive

    def run(
        self,
        *,
        max_batches: Optional[int] = None,
        max_seconds: Optional[float] = None,
        idle_sleep: float = 0.01,
    ) -> WatchMetrics:
        """Drive :meth:`step` until the source ends (or a limit hits).

        Emits ``watch-started`` / ``watch-stopped`` around the loop.
        ``stop()`` from another thread also ends it.
        """
        self._started_monotonic = time.monotonic()
        self.notifier.publish(
            WatchEvent.now(
                "watch-started",
                {"source": type(self.pipeline._source).__name__},
                clock=self._clock,
            )
        )
        started = time.monotonic()
        polls = 0
        try:
            while not self._stop_requested.is_set():
                if max_batches is not None and polls >= max_batches:
                    break
                if (
                    max_seconds is not None
                    and time.monotonic() - started >= max_seconds
                ):
                    break
                before_empty = self.pipeline.metrics.n_empty_polls
                if not self.step():
                    break
                polls += 1
                if (
                    idle_sleep > 0.0
                    and self.pipeline.metrics.n_empty_polls > before_empty
                ):
                    # Interruptible sleep so stop() takes effect fast.
                    self._stop_requested.wait(idle_sleep)
        finally:
            self.notifier.publish(
                WatchEvent.now(
                    "watch-stopped",
                    {
                        "rows_seen": self.metrics.rows_seen,
                        "rows_quarantined": self.metrics.rows_quarantined,
                    },
                    clock=self._clock,
                )
            )
        return self.metrics

    def start(self, **run_kwargs: object) -> None:
        """Run the watch loop on a background thread."""
        if self.running:
            raise RuntimeError("watch daemon already running")
        self._stop_requested.clear()
        self._thread = threading.Thread(
            target=self.run,
            kwargs=run_kwargs,
            name="repro-watch",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Ask a background loop to finish and wait for it."""
        self._stop_requested.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("watch daemon did not stop in time")
            self._thread = None

    # -- status ------------------------------------------------------------

    def status(self) -> WatchStatus:
        """A point-in-time snapshot for ``ratio-rules watch status``."""
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return WatchStatus(
            running=self.running,
            uptime_seconds=uptime,
            model_version=self._registry.latest_version,
            source_exhausted=self.pipeline.exhausted,
            calibration=self.calibration.to_dict(),
            quarantine_path=str(self.quarantine.path),
            watch_metrics=self.metrics.to_dict(),
            pipeline_metrics=self.pipeline.metrics.to_dict(),
        )
