"""The watch daemon: routing, events, and the accumulator guarantee.

The acceptance-criterion test lives in :class:`TestEndToEnd`: a daemon
tailing a CSV with injected outlier rows must quarantine them with
their bytes preserved, the accumulator must provably never see them
(the post-refresh model is bit-identical to an offline fit over only
the clean rows), and each quarantine must produce exactly one
structured event in a JSONL sink.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema
from repro.obs.metrics import WatchMetrics
from repro.pipeline import CSVTailSource, QueueSource, RefreshPolicy
from repro.pipeline.drift import DriftDetector
from repro.watch import (
    CallableSink,
    JsonlSink,
    NotificationManager,
    RoutingPolicy,
    RowQuarantine,
    WatchDaemon,
)
from tests.watch.conftest import COLUMNS, make_regime_matrix, make_seeded_parts

pytestmark = pytest.mark.watch

#: An obviously-broken transaction (the regime is ~[1, 2, 0.5] ratios).
OUTLIER_ROW = [5.0, 500.0, -300.0]


def make_daemon(source, tmp_path, *, parts=None, sinks=None, **kwargs):
    """A daemon wired the way most tests want it."""
    metrics = WatchMetrics()
    notifier = NotificationManager(list(sinks or []), metrics=metrics)
    defaults = dict(
        quarantine=RowQuarantine(tmp_path / "quarantine.jsonl"),
        notifier=notifier,
        metrics=metrics,
        cutoff=1,
        refresh_policy=RefreshPolicy(min_rows=10**9),  # no auto-refresh
    )
    if parts is not None:
        defaults["registry"] = parts.registry
        defaults["calibration"] = parts.calibration
        # The seed model is named; refits must agree on the schema.
        defaults["schema"] = TableSchema.from_names(COLUMNS)
    defaults.update(kwargs)
    return WatchDaemon(source, **defaults)


def feed_and_close(source: QueueSource, *matrices) -> None:
    for matrix in matrices:
        source.put(matrix)
    source.close()


def events_of_kind(sink_events, kind):
    return [e for e in sink_events if e.kind == kind]


class TestDaemonSmoke:
    def test_start_score_quarantine_stop(self, tmp_path, seeded_parts):
        """Tier-1 smoke: background start -> score -> quarantine -> stop."""
        seen = []
        source = QueueSource(3)
        stream = make_regime_matrix(1, n_rows=60)
        feed_and_close(source, stream, np.array([OUTLIER_ROW]))
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
            policy=RoutingPolicy(clean_sigmas=8.0, quarantine_sigmas=8.0),
            batch_rows=60,
        )
        daemon.start()
        deadline = time.monotonic() + 30.0
        while daemon.running and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.stop()
        assert not daemon.running
        assert daemon.metrics.rows_seen == 61
        assert daemon.metrics.rows_quarantined == 1
        assert daemon.metrics.rows_passed == 60
        assert daemon.quarantine.n_quarantined == 1
        kinds = [e.kind for e in seen]
        assert kinds[0] == "watch-started"
        assert kinds[-1] == "watch-stopped"
        assert kinds.count("row-quarantined") == 1

    def test_start_twice_raises(self, tmp_path, seeded_parts):
        source = QueueSource(3)
        daemon = make_daemon(source, tmp_path, parts=seeded_parts)
        daemon.start(max_batches=10**9, idle_sleep=0.01)
        try:
            with pytest.raises(RuntimeError, match="already running"):
                daemon.start()
        finally:
            daemon.stop()
            source.close()

    def test_stop_interrupts_an_idle_follow_loop_quickly(
        self, tmp_path, seeded_parts
    ):
        source = QueueSource(3)  # never closed: the loop idles forever
        daemon = make_daemon(source, tmp_path, parts=seeded_parts)
        daemon.start(idle_sleep=0.01)
        time.sleep(0.05)
        started = time.monotonic()
        daemon.stop(timeout=5.0)
        assert time.monotonic() - started < 2.0
        source.close()


class TestEndToEnd:
    """The ISSUE acceptance criterion, against a real tailed CSV."""

    def test_outliers_quarantined_accumulator_never_sees_them(self, tmp_path):
        parts = make_seeded_parts(seed=0)
        clean = make_regime_matrix(1, n_rows=900)
        outlier_rows = np.array(
            [OUTLIER_ROW, [2.0, -900.0, 400.0], [0.1, 77.0, -55.0]]
        )
        # Interleave the outliers mid-stream.
        stream, outlier_positions = [], [200, 500, 800]
        cursor = 0
        for position, outlier in zip(outlier_positions, outlier_rows):
            stream.append(clean[cursor:position])
            stream.append(outlier.reshape(1, -1))
            cursor = position
        stream.append(clean[cursor:])
        matrix = np.vstack(stream)
        csv_path = tmp_path / "stream.csv"
        with open(csv_path, "w") as handle:
            handle.write(",".join(COLUMNS) + "\n")
            for row in matrix:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")

        events_path = tmp_path / "events.jsonl"
        source = CSVTailSource(csv_path, follow=False)
        daemon = make_daemon(
            source,
            tmp_path,
            parts=parts,
            sinks=[JsonlSink(events_path)],
            # Equal thresholds: no clean band, so every admitted row is
            # an untouched original -- the bit-identity precondition.
            policy=RoutingPolicy(clean_sigmas=8.0, quarantine_sigmas=8.0),
            block_rows=256,
            batch_rows=173,  # deliberately unaligned with everything
        )
        daemon.run()
        snapshot = daemon.pipeline.refresh_now(reason="final")

        # 1. The outliers -- and only the outliers -- were quarantined,
        #    bytes preserved.
        records = daemon.quarantine.read_all()
        assert len(records) == len(outlier_rows)
        assert daemon.metrics.rows_quarantined == len(outlier_rows)
        assert daemon.metrics.rows_cleaned == 0
        for record, original in zip(records, outlier_rows):
            recovered = RowQuarantine.decode_values(record)
            assert recovered.tobytes() == original.tobytes()

        # 2. The accumulator provably never saw them: the refreshed
        #    model is bit-identical to an offline fit over only the
        #    clean rows.
        offline = RatioRuleModel(cutoff=1, block_rows=256).fit(
            clean, TableSchema.from_names(COLUMNS)
        )
        assert snapshot.fingerprint == offline.fingerprint()
        np.testing.assert_array_equal(
            snapshot.model.rules_matrix, offline.rules_matrix
        )
        assert snapshot.model.n_rows_ == clean.shape[0]
        assert daemon.pipeline_metrics.n_rows_diverted == len(outlier_rows)

        # 3. Each quarantine produced exactly one structured event in
        #    the JSONL sink, carrying the routing provenance.
        events = JsonlSink.read_events(events_path)
        quarantined = events_of_kind(events, "row-quarantined")
        assert len(quarantined) == len(outlier_rows)
        assert [e.payload["seq"] for e in quarantined] == [0, 1, 2]
        for event in quarantined:
            assert event.payload["z_score"] > 8.0
            assert "quarantine_sigmas" in event.payload["reason"]
            assert event.payload["model_version"] == 1
        assert [e.kind for e in events][0] == "watch-started"
        assert [e.kind for e in events][-1] == "watch-stopped"


class TestRouting:
    def test_mild_anomaly_is_cleaned_not_quarantined(
        self, tmp_path, seeded_parts
    ):
        seen = []
        source = QueueSource(3)
        feed_and_close(source, np.array([OUTLIER_ROW]))
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
            # A bottomless quarantine band: everything flagged is
            # repairable.
            policy=RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=1e18),
        )
        daemon.run()
        assert daemon.metrics.rows_cleaned == 1
        assert daemon.metrics.rows_quarantined == 0
        assert len(events_of_kind(seen, "row-cleaned")) == 1
        # The repaired row reached the accumulator (nothing diverted).
        assert daemon.pipeline_metrics.n_rows_diverted == 0
        assert daemon.pipeline_metrics.rows_since_refresh == 1

    def test_repair_reduces_the_residual(self, seeded_parts, tmp_path):
        from repro.core.outliers import reconstruction_residuals

        daemon = make_daemon(
            QueueSource(3),
            tmp_path,
            parts=seeded_parts,
            policy=RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=1e18),
        )
        broken = np.array(OUTLIER_ROW)
        repaired = daemon._tap(broken.reshape(1, -1))[0]
        assert daemon.metrics.rows_cleaned == 1
        before = reconstruction_residuals(
            seeded_parts.model, broken.reshape(1, -1)
        )[0]
        after = reconstruction_residuals(
            seeded_parts.model, repaired.reshape(1, -1)
        )[0]
        assert after < before

    def test_rows_pass_unscored_until_a_model_exists(self, tmp_path):
        seen = []
        source = QueueSource(3)
        stream = make_regime_matrix(2, n_rows=400)
        feed_and_close(source, stream)
        daemon = make_daemon(
            source,
            tmp_path,
            sinks=[CallableSink(seen.append)],
            refresh_policy=RefreshPolicy(min_rows=100),
            batch_rows=100,
        )
        daemon.run()
        assert daemon.metrics.rows_unscored > 0
        assert daemon.registry.latest_version >= 1
        assert events_of_kind(seen, "refresh-published")
        # Once published, later batches are scored.
        assert daemon.metrics.rows_scored > 0

    def test_burst_emits_one_event(self, tmp_path, seeded_parts):
        seen = []
        source = QueueSource(3)
        burst = np.tile(np.array([OUTLIER_ROW]), (10, 1))
        feed_and_close(source, burst)
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
            policy=RoutingPolicy(
                clean_sigmas=8.0,
                quarantine_sigmas=8.0,
                burst_min_rows=8,
                burst_fraction=0.5,
            ),
        )
        daemon.run()
        assert daemon.metrics.rows_quarantined == 10
        assert daemon.metrics.n_bursts == 1
        assert len(events_of_kind(seen, "outlier-burst")) == 1
        payload = events_of_kind(seen, "outlier-burst")[0].payload
        assert payload["n_flagged"] == 10

    def test_quarantine_growth_event_every_n_rows(
        self, tmp_path, seeded_parts
    ):
        seen = []
        source = QueueSource(3)
        feed_and_close(source, np.tile(np.array([OUTLIER_ROW]), (5, 1)))
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
            policy=RoutingPolicy(
                clean_sigmas=8.0,
                quarantine_sigmas=8.0,
                growth_every_rows=2,
            ),
        )
        daemon.run()
        growth = events_of_kind(seen, "quarantine-growth")
        assert len(growth) == 1  # 5 rows // 2 per mark, one batch
        assert growth[0].payload["rows"] == 5


def _loop_worst_cell(model, row):
    """The worst cell as the per-column fill loop ranks it."""
    from repro.core.outliers import hole_fill_errors

    errors = hole_fill_errors(model, np.asarray(row, dtype=float).reshape(1, -1))[0]
    worst = int(np.argmax(np.abs(errors)))
    return worst, float(errors[worst])


class TestWorstCell:
    """Flagged rows name their worst cell; a clean repairs that cell."""

    @pytest.mark.parametrize(
        "policy, kind",
        [
            (RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=1e18), "row-cleaned"),
            (RoutingPolicy(clean_sigmas=8.0, quarantine_sigmas=8.0), "row-quarantined"),
        ],
    )
    def test_event_names_the_worst_cell(self, tmp_path, seeded_parts, policy, kind):
        seen = []
        source = QueueSource(3)
        feed_and_close(source, np.array([OUTLIER_ROW, [1.0, 900.0, 2.0]]))
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
            policy=policy,
        )
        daemon.run()
        events = events_of_kind(seen, kind)
        assert len(events) == 2
        for event, row in zip(events, [OUTLIER_ROW, [1.0, 900.0, 2.0]]):
            column, error = _loop_worst_cell(seeded_parts.model, row)
            assert event.payload["worst_column"] == column
            assert event.payload["worst_column_name"] == COLUMNS[column]
            assert event.payload["worst_error"] == pytest.approx(error, rel=1e-10)
        # The signed error: the second row's milk is far above its fill.
        assert events[1].payload["worst_column_name"] == "milk"
        assert events[1].payload["worst_error"] > 0.0

    def test_cleaned_row_is_the_loop_picked_fill(self, tmp_path, seeded_parts):
        model = seeded_parts.model
        rows = np.array([OUTLIER_ROW, [1.0, 900.0, 2.0], [40.0, 2.0, 1.0]])
        daemon = make_daemon(
            QueueSource(3),
            tmp_path,
            parts=seeded_parts,
            policy=RoutingPolicy(clean_sigmas=4.0, quarantine_sigmas=1e18),
        )
        admitted = daemon._tap(rows)
        assert daemon.metrics.rows_cleaned == 3
        for row, got in zip(rows, admitted):
            holed = row.copy()
            holed[_loop_worst_cell(model, row)[0]] = np.nan
            assert got.tobytes() == model.fill_row(holed).tobytes()

    def test_repairs_equal_fill_row_across_a_refresh(self, tmp_path, seeded_parts):
        """Fill operators are kept per model version: after a new model is
        published, every repair is that model's ``fill_row``, bit for bit."""
        rows = np.array(
            [OUTLIER_ROW, [1.0, 900.0, 2.0], [40.0, 2.0, 1.0], [9.0, 1.0, 60.0]]
        )
        daemon = make_daemon(
            QueueSource(3),
            tmp_path,
            parts=seeded_parts,
            policy=RoutingPolicy(
                clean_sigmas=4.0,
                quarantine_sigmas=1e18,
                recalibrate_on_refresh=False,
            ),
        )
        refit = RatioRuleModel(cutoff=1).fit(
            make_regime_matrix(9, loadings=(1.0, 3.0, 0.25)),
            TableSchema.from_names(COLUMNS),
        )
        for publish in (None, refit):
            if publish is not None:
                daemon.registry.publish(publish)
            model = daemon.registry.current().model
            cleaned = daemon.metrics.rows_cleaned
            admitted = daemon._tap(rows)
            assert daemon.metrics.rows_cleaned == cleaned + len(rows)
            for row, got in zip(rows, admitted):
                holed = row.copy()
                holed[_loop_worst_cell(model, row)[0]] = np.nan
                assert got.tobytes() == model.fill_row(holed).tobytes()

    def test_near_tie_is_decided_by_the_loop(self, seeded_parts):
        model = seeded_parts.model
        row = np.array(OUTLIER_ROW)
        column, _error = _loop_worst_cell(model, row)
        # Closed-form errors that tie on some other column: the loop's
        # ranking must win, as if the kernel were never consulted.
        tied = np.zeros(3)
        others = [c for c in range(3) if c != column]
        tied[others] = [7.0, -7.0]
        assert WatchDaemon._worst_column(model, row, tied) == column
        untied = tied.copy()
        untied[others[1]] = -7.1
        assert WatchDaemon._worst_column(model, row, untied) == others[1]


class TestCalibration:
    def test_recalibrates_on_model_refresh(self, tmp_path, seeded_parts):
        source = QueueSource(3)
        stream = make_regime_matrix(3, n_rows=600)
        feed_and_close(source, stream[:300], stream[300:])
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            refresh_policy=RefreshPolicy(min_rows=250, max_rows=250),
            batch_rows=300,
        )
        daemon.run()
        assert daemon.registry.latest_version >= 2
        assert daemon.metrics.n_calibration_resets >= 1

    def test_refresh_keeps_calibration_when_disabled(
        self, tmp_path, seeded_parts
    ):
        source = QueueSource(3)
        stream = make_regime_matrix(3, n_rows=600)
        feed_and_close(source, stream[:300], stream[300:])
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            policy=RoutingPolicy(recalibrate_on_refresh=False),
            refresh_policy=RefreshPolicy(min_rows=250, max_rows=250),
            batch_rows=300,
        )
        daemon.run()
        assert daemon.registry.latest_version >= 2
        assert daemon.metrics.n_calibration_resets == 0

    def test_warmup_batches_pass_unscored(self, tmp_path):
        parts = make_seeded_parts()
        source = QueueSource(3)
        stream = make_regime_matrix(4, n_rows=200)
        feed_and_close(source, stream[:100], stream[100:])
        daemon = make_daemon(
            source,
            tmp_path,
            registry=parts.registry,  # published model, cold calibration
            policy=RoutingPolicy(min_calibration_rows=64),
            batch_rows=100,
        )
        daemon.run()
        assert daemon.metrics.rows_unscored == 100
        assert daemon.metrics.rows_scored == 100


class TestNonFinite:
    """A row whose residual is not finite quarantines, scored or not, and
    never reaches the calibration."""

    def test_nan_cell_during_warmup_leaves_scoring_working(self, tmp_path):
        parts = make_seeded_parts()
        seen = []
        warm = make_regime_matrix(5, n_rows=5)
        warm[2, 1] = np.nan
        shifted = make_regime_matrix(6, n_rows=4)
        shifted[:, 0] += 500.0
        source = QueueSource(3)
        feed_and_close(source, warm, shifted)
        daemon = make_daemon(
            source,
            tmp_path,
            registry=parts.registry,  # published model, cold calibration
            sinks=[CallableSink(seen.append)],
            policy=RoutingPolicy(min_calibration_rows=4),
            batch_rows=5,
        )
        daemon.run()
        assert np.isfinite([daemon.calibration.mean, daemon.calibration.std]).all()
        assert daemon.calibration.n_observed == 4
        assert daemon.metrics.rows_unscored == 4
        assert daemon.metrics.rows_quarantined == 5
        assert daemon.pipeline_metrics.n_rows_diverted == 5
        events = events_of_kind(seen, "row-quarantined")
        assert [e.payload["seq"] for e in events] == [0, 1, 2, 3, 4]
        assert "non-finite residual" in events[0].payload["reason"]
        assert events[0].payload["worst_column_name"] == "milk"
        records = daemon.quarantine.read_all()
        assert RowQuarantine.decode_values(records[0]).tobytes() == (
            warm[2].tobytes()
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scored_row_with_a_non_finite_cell_quarantines(
        self, tmp_path, seeded_parts, bad
    ):
        seen = []
        rows = make_regime_matrix(8, n_rows=6)
        rows[3, 2] = bad
        daemon = make_daemon(
            QueueSource(3),
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
        )
        admitted = daemon._tap(rows)
        assert admitted.tobytes() == np.delete(rows, 3, axis=0).tobytes()
        assert daemon.metrics.rows_quarantined == 1
        assert daemon.metrics.rows_passed == 5
        [event] = events_of_kind(seen, "row-quarantined")
        assert event.payload["worst_column"] == 2
        assert event.payload["worst_column_name"] == "butter"
        [record] = daemon.quarantine.read_all()
        assert RowQuarantine.decode_values(record).tobytes() == rows[3].tobytes()
        assert np.isfinite([daemon.calibration.mean, daemon.calibration.std]).all()


class TestSourceEvents:
    """CSVTailSource rotation/truncation must surface as events."""

    def test_rotation_mid_watch_emits_an_event(self, tmp_path, seeded_parts):
        seen = []
        csv_path = tmp_path / "data.csv"
        header = ",".join(COLUMNS) + "\n"
        clean = make_regime_matrix(5, n_rows=4)
        rows = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in clean
        )
        csv_path.write_text(header + rows)
        source = CSVTailSource(csv_path, follow=True)
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
        )
        assert daemon.step()
        # Rotate: a replacement file swaps in atomically.
        replacement = tmp_path / "data.csv.new"
        replacement.write_text(header + rows)
        os.replace(replacement, csv_path)
        deadline = time.monotonic() + 10.0
        while (
            not events_of_kind(seen, "source-rotation")
            and time.monotonic() < deadline
        ):
            daemon.step()
        rotation = events_of_kind(seen, "source-rotation")
        assert len(rotation) == 1
        assert rotation[0].payload == {"n_rotations": 1}
        # The daemon kept consuming: replacement rows were routed too.
        assert daemon.metrics.rows_seen == 8
        source.close()

    def test_truncation_mid_watch_emits_an_event(
        self, tmp_path, seeded_parts
    ):
        seen = []
        csv_path = tmp_path / "data.csv"
        header = ",".join(COLUMNS) + "\n"
        clean = make_regime_matrix(6, n_rows=50)
        rows = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in clean
        )
        csv_path.write_text(header + rows)
        source = CSVTailSource(csv_path, follow=True)
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            sinks=[CallableSink(seen.append)],
        )
        assert daemon.step()
        # Truncate in place (same inode, shorter than the read offset).
        csv_path.write_text(
            header + ",".join(repr(float(v)) for v in clean[0]) + "\n"
        )
        deadline = time.monotonic() + 10.0
        while (
            not events_of_kind(seen, "source-truncation")
            and time.monotonic() < deadline
        ):
            daemon.step()
        truncation = events_of_kind(seen, "source-truncation")
        assert len(truncation) == 1
        assert truncation[0].payload == {"n_truncations": 1}
        assert daemon.metrics.rows_seen == 51
        source.close()


class TestPipelineEvents:
    def test_drift_and_refresh_surface_as_events(self, tmp_path):
        seen = []
        before = make_regime_matrix(7, loadings=(1.0, 2.0, 0.5), n_rows=1500)
        after = make_regime_matrix(8, loadings=(1.0, 0.3, 2.5), n_rows=1500)
        source = QueueSource(3)
        feed_and_close(source, np.vstack([before, after]))
        daemon = make_daemon(
            source,
            tmp_path,
            sinks=[CallableSink(seen.append)],
            # Loose thresholds: regime change must reach the detector,
            # not the quarantine.
            policy=RoutingPolicy(clean_sigmas=1e18, quarantine_sigmas=1e18),
            refresh_policy=RefreshPolicy(min_rows=500),
            detector=DriftDetector(
                reservoir_capacity=128, angle_threshold_degrees=10.0
            ),
            batch_rows=250,
            block_rows=256,
        )
        daemon.run()
        drift = events_of_kind(seen, "drift-detected")
        refreshes = events_of_kind(seen, "refresh-published")
        assert drift, "the regime change must surface as an event"
        assert "angle_degrees" in drift[0].payload
        assert len(refreshes) == daemon.registry.latest_version
        versions = [e.payload["version"] for e in refreshes]
        assert versions == sorted(versions)
        assert daemon.metrics.rows_quarantined == 0


class TestStatus:
    def test_status_snapshot_reflects_the_daemon(
        self, tmp_path, seeded_parts
    ):
        source = QueueSource(3)
        feed_and_close(
            source, make_regime_matrix(9, n_rows=50), np.array([OUTLIER_ROW])
        )
        daemon = make_daemon(
            source,
            tmp_path,
            parts=seeded_parts,
            policy=RoutingPolicy(clean_sigmas=8.0, quarantine_sigmas=8.0),
        )
        daemon.run()
        status = daemon.status()
        assert status.running is False
        assert status.source_exhausted is True
        assert status.model_version == 1
        assert status.watch_metrics["rows_quarantined"] == 1
        assert status.calibration["ready"] is True
        assert status.quarantine_path.endswith("quarantine.jsonl")
        # It round-trips through the status file.
        path = tmp_path / "status.json"
        status.save(path)
        from repro.watch import WatchStatus

        assert WatchStatus.load(path) == status
