"""Differential test: mask routing against the per-row ``route_z`` loop.

``WatchDaemon._tap`` routes a scored batch with the two boolean masks of
``RoutingPolicy.route_masks``, repairs cleaned rows in place in a copy
of the batch and drops quarantined rows with one boolean index.  The
reference below is the daemon's tap as it was before: one ``route_z``
decision per row and an ``np.vstack`` of the admitted rows.  Over the
same batches both must admit the same bytes, keep the same counts,
publish the same events in the same order, write the same quarantine
bytes and leave the calibration in the same state -- NaN and infinite
z-scores, batches with nothing flagged and batches with every row
flagged included.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.outliers import (
    ResidualCalibration,
    leave_one_out_errors,
    reconstruction_residuals,
)
from repro.io.schema import TableSchema
from repro.obs.metrics import Stopwatch, WatchMetrics
from repro.obs.tracing import span
from repro.pipeline import QueueSource, RefreshPolicy
from repro.serve.registry import NoModelPublishedError
from repro.watch import (
    CallableSink,
    NotificationManager,
    RoutingPolicy,
    RowQuarantine,
    WatchDaemon,
)
from repro.watch.events import WatchEvent
from tests.watch.conftest import COLUMNS, make_regime_matrix, make_seeded_parts

pytestmark = pytest.mark.watch


class LoopRoutingDaemon(WatchDaemon):
    """The daemon with its tap as a per-row ``route_z`` loop."""

    def _tap(self, batch: np.ndarray) -> Optional[np.ndarray]:
        """Route one polled batch; returns the rows to admit."""
        self.metrics.rows_seen += batch.shape[0]
        self.metrics.n_batches_tapped += 1
        try:
            published = self._registry.current()
        except NoModelPublishedError:
            published = None
        if published is None:
            # Nothing to score against yet: let rows through so the
            # pipeline can bootstrap an initial model.
            self.metrics.rows_unscored += batch.shape[0]
            return batch
        if (
            published.version != self._scored_version
            and self.policy.recalibrate_on_refresh
            and self._scored_version != 0
        ):
            self.calibration = ResidualCalibration(
                min_rows=self.policy.min_calibration_rows
            )
            self.metrics.n_calibration_resets += 1
        self._scored_version = published.version
        self.metrics.model_version = published.version
        model = published.model
        with span("watch.score", rows=batch.shape[0]), Stopwatch() as watch:
            residuals = reconstruction_residuals(model, batch)
            if not self.calibration.ready:
                self.calibration.observe(residuals)
                self._sync_calibration_gauges()
                self.metrics.rows_unscored += batch.shape[0]
                return batch
            z_scores = self.calibration.z_scores(residuals)
        self.metrics.score_seconds += watch.seconds
        self.metrics.rows_scored += batch.shape[0]
        self.metrics.last_residual = float(residuals[-1])
        self.metrics.last_z_score = float(z_scores[-1])

        decisions = [self.policy.route_z(float(z)) for z in z_scores]
        flagged = [i for i, d in enumerate(decisions) if d.action != "pass"]
        cell_errors: Dict[int, np.ndarray] = {}
        column_names: List[str] = []
        if flagged:
            # One closed-form call ranks the cells of every flagged row:
            # it picks the cell a clean repairs, and names the worst
            # cell in the row-cleaned / row-quarantined events.
            with span("watch.worst_cells", rows=len(flagged)), Stopwatch() as rank:
                flagged_errors = leave_one_out_errors(model, batch[flagged])
                cell_errors = dict(zip(flagged, flagged_errors))
            self.metrics.clean_seconds += rank.seconds
            assert model.schema_ is not None  # the registry holds fitted models
            column_names = model.schema_.names
        admitted: List[np.ndarray] = []
        clean_residuals: List[float] = []
        n_passed = 0
        for index, decision in enumerate(decisions):
            if decision.action == "pass":
                admitted.append(batch[index])
                clean_residuals.append(float(residuals[index]))
                n_passed += 1
                continue
            errors = cell_errors[index]
            worst = self._worst_column(model, batch[index], errors)
            worst_cell = {
                "worst_column": worst,
                "worst_column_name": column_names[worst],
                "worst_error": float(errors[worst]),
            }
            if decision.action == "clean":
                with span("watch.clean"), Stopwatch() as clean_watch:
                    repaired = self._fill_cell(model, batch[index], worst)
                self.metrics.clean_seconds += clean_watch.seconds
                self.metrics.rows_cleaned += 1
                admitted.append(repaired)
                self.notifier.publish(
                    WatchEvent.now(
                        "row-cleaned",
                        {
                            "z_score": float(z_scores[index]),
                            "residual": float(residuals[index]),
                            "reason": decision.reason,
                            "model_version": published.version,
                            **worst_cell,
                        },
                        clock=self._clock,
                    )
                )
                continue
            with span("watch.quarantine"), Stopwatch() as q_watch:
                record = self.quarantine.append(
                    batch[index],
                    residual=float(residuals[index]),
                    z_score=float(z_scores[index]),
                    reason=decision.reason,
                    model_version=published.version,
                )
            self.metrics.quarantine_seconds += q_watch.seconds
            self.metrics.rows_quarantined += 1
            self.notifier.publish(
                WatchEvent.now(
                    "row-quarantined",
                    {
                        "seq": record["seq"],
                        "z_score": float(z_scores[index]),
                        "residual": float(residuals[index]),
                        "reason": decision.reason,
                        "model_version": published.version,
                        **worst_cell,
                    },
                    clock=self._clock,
                )
            )
        self.metrics.rows_passed += n_passed
        # Passed rows (not cleaned ones) refine the calibration: they
        # looked like the population, so they sharpen its estimate.
        if clean_residuals:
            self.calibration.observe(np.asarray(clean_residuals))
        self._sync_calibration_gauges()
        self._sync_quarantine_gauges()
        n_flagged = len(flagged)
        if self.policy.is_burst(n_flagged, batch.shape[0]):
            self.metrics.n_bursts += 1
            self.notifier.publish(
                WatchEvent.now(
                    "outlier-burst",
                    {
                        "n_flagged": n_flagged,
                        "n_rows": int(batch.shape[0]),
                        "fraction": n_flagged / batch.shape[0],
                        "model_version": published.version,
                    },
                    clock=self._clock,
                )
            )
        self._maybe_growth_event()
        if not admitted:
            return None
        return np.vstack(admitted)


#: Cell shifts against a residual scale of about 0.06 +- 0.03: none,
#: into the clean bands below, past the quarantine thresholds, an
#: overflowing one (infinite z) and non-finite cells (NaN z).
SHIFTS = [0.0, 0.0, 0.0, 0.2, 0.3, 0.5, 0.8, 2.0, 30.0, 1e200, np.nan, np.inf]

POLICIES = [
    RoutingPolicy(clean_sigmas=3.0, quarantine_sigmas=12.0),
    RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=4.0),  # no clean band
    RoutingPolicy(clean_sigmas=2.0, quarantine_sigmas=1e18),  # no quarantine
    RoutingPolicy(
        clean_sigmas=3.0,
        quarantine_sigmas=30.0,
        burst_min_rows=2,
        burst_fraction=0.3,
        growth_every_rows=2,
    ),
]

TIMINGS = ("score_seconds", "clean_seconds", "quarantine_seconds")


@st.composite
def batches(draw) -> np.ndarray:
    """Regime rows, some shifted in one cell; whole batches may be all
    clean or all flagged."""
    n_rows = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 10_000))
    rows = make_regime_matrix(seed, n_rows=n_rows)
    mode = draw(st.sampled_from(["mixed", "mixed", "none", "all"]))
    for index in range(n_rows):
        if mode == "none":
            break
        shift = draw(st.sampled_from(SHIFTS[3:] if mode == "all" else SHIFTS))
        column = draw(st.integers(0, len(COLUMNS) - 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        rows[index, column] += sign * shift
    return rows


def _daemon(cls, tmp_path, policy, parts):
    metrics = WatchMetrics()
    events: List[WatchEvent] = []
    daemon = cls(
        QueueSource(len(COLUMNS)),
        quarantine=RowQuarantine(tmp_path / "quarantine.jsonl", clock=lambda: 7.0),
        notifier=NotificationManager([CallableSink(events.append)], metrics=metrics),
        metrics=metrics,
        policy=policy,
        registry=parts.registry,
        calibration=parts.calibration.copy(),
        schema=TableSchema.from_names(COLUMNS),
        cutoff=1,
        refresh_policy=RefreshPolicy(min_rows=10**9),
        clock=lambda: 7.0,
    )
    return daemon, events


def _state(daemon, events, admitted):
    """Everything a tap leaves behind, NaN-safe through ``repr``; the
    quarantine path in growth events is masked."""
    metrics = daemon.metrics.to_dict()
    for name in TIMINGS:
        metrics.pop(name)
    path = str(daemon.quarantine.path)
    return (
        None if admitted is None else (admitted.shape, admitted.tobytes()),
        repr(metrics),
        [
            (e.kind, e.unix_time, repr(dict(e.payload)).replace(path, "<path>"))
            for e in events
        ],
        daemon.quarantine.path.read_bytes() if daemon.quarantine.path.exists() else b"",
        repr(daemon.calibration.to_dict()),
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    stream=st.lists(batches(), min_size=1, max_size=4),
    policy=st.sampled_from(POLICIES),
)
def test_mask_routing_matches_the_route_z_loop(tmp_path_factory, stream, policy):
    parts = make_seeded_parts()
    fast, fast_events = _daemon(
        WatchDaemon, tmp_path_factory.mktemp("mask"), policy, parts
    )
    loop, loop_events = _daemon(
        LoopRoutingDaemon, tmp_path_factory.mktemp("loop"), policy, parts
    )
    for batch in stream:
        got = fast._tap(batch.copy())
        want = loop._tap(batch.copy())
        assert _state(fast, fast_events, got) == _state(loop, loop_events, want)


def test_unflagged_batch_is_returned_as_is(tmp_path):
    daemon, _events = _daemon(WatchDaemon, tmp_path, POLICIES[0], make_seeded_parts())
    batch = make_regime_matrix(3, n_rows=20)
    assert daemon._tap(batch) is batch
    assert daemon.metrics.rows_passed == 20


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, 3.0, 3.5, 12.0, 12.5])
def test_masks_agree_with_route_z(z):
    policy = POLICIES[0]
    flagged, quarantine = policy.route_masks(np.array([z]))
    action = "quarantine" if quarantine[0] else "clean" if flagged[0] else "pass"
    assert action == policy.route_z(z).action
