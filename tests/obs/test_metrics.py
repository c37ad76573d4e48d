"""Tests for ScanMetrics: serialization, merging, and rendering.

The metrics record is the engine's public ledger -- every
fault-tolerance event (retry, timeout, quarantine, downgrade, resume)
must survive a ``to_dict``/JSON round trip and show up in the
``--stats`` rendering, or operators cannot audit what a scan did.
"""

import json
import threading

import numpy as np
import pytest

from repro.obs.metrics import ScanMetrics, ServeMetrics, Stopwatch
from repro.obs.metrics import ServeHttpMetrics


def _full_record():
    return ScanMetrics(
        executor="process",
        n_workers=4,
        n_sources=3,
        n_chunks=12,
        n_blocks=48,
        n_rows=100_000,
        n_merges=11,
        scan_seconds=1.5,
        solve_seconds=0.25,
        total_seconds=2.0,
        n_faults=5,
        n_retries=4,
        n_timeouts=2,
        n_quarantined=1,
        rows_quarantined=8_000,
        bytes_quarantined=123_456,
        n_executor_downgrades=1,
        n_chunks_resumed=3,
        quarantined=[
            {
                "kind": "csv",
                "source": "shard2.csv",
                "start": 100,
                "stop": 200,
                "rows_lost": 0,
                "bytes_lost": 100,
                "error": "CSVFormatError: bad cell",
            }
        ],
        extras={"note": "test"},
    )


class TestSerialization:
    def test_to_dict_covers_every_field(self):
        payload = _full_record().to_dict()
        assert payload["n_faults"] == 5
        assert payload["n_retries"] == 4
        assert payload["n_timeouts"] == 2
        assert payload["n_quarantined"] == 1
        assert payload["rows_quarantined"] == 8_000
        assert payload["bytes_quarantined"] == 123_456
        assert payload["n_executor_downgrades"] == 1
        assert payload["n_chunks_resumed"] == 3
        assert payload["quarantined"][0]["source"] == "shard2.csv"

    def test_dict_round_trip(self):
        original = _full_record()
        assert ScanMetrics.from_dict(original.to_dict()) == original

    def test_json_round_trip(self):
        original = _full_record()
        text = original.to_json()
        json.loads(text)  # valid JSON
        assert ScanMetrics.from_json(text) == original

    def test_defaults_round_trip(self):
        assert ScanMetrics.from_json(ScanMetrics().to_json()) == ScanMetrics()

    def test_from_dict_rejects_unknown_fields(self):
        payload = ScanMetrics().to_dict()
        payload["n_warp_cores"] = 1
        with pytest.raises(ValueError, match="unknown ScanMetrics fields"):
            ScanMetrics.from_dict(payload)


class TestMerge:
    def test_merge_folds_fault_counters(self):
        left = _full_record()
        right = _full_record()
        left.merge(right)
        assert left.n_faults == 10
        assert left.n_retries == 8
        assert left.n_timeouts == 4
        assert left.n_quarantined == 2
        assert left.rows_quarantined == 16_000
        assert left.bytes_quarantined == 246_912
        assert left.n_executor_downgrades == 2
        assert left.n_chunks_resumed == 6
        assert len(left.quarantined) == 2
        assert left.n_rows == 200_000

    def test_merge_keeps_executor_of_receiver(self):
        left = ScanMetrics(executor="thread")
        left.merge(ScanMetrics(executor="process"))
        assert left.executor == "thread"


class TestRendering:
    def test_render_mentions_every_fault_counter(self):
        text = _full_record().render()
        assert "process (4 worker(s))" in text
        assert "5 fault(s), 4 retrie(s), 2 timeout(s)" in text
        assert "1 chunk(s)  (8000 row(s) / 123456 byte(s) lost)" in text
        assert "downgrades    1" in text
        assert "resumed       3 chunk(s) from checkpoint" in text
        assert "rows/s" in text
        assert "solve time" in text

    def test_rows_per_second_guard(self):
        assert ScanMetrics(n_rows=10, scan_seconds=0.0).rows_per_second == 0.0
        assert ScanMetrics(n_rows=10, scan_seconds=2.0).rows_per_second == 5.0
        assert "n/a" in ScanMetrics(n_rows=10, scan_seconds=0.0).render()


class TestEngineIntegration:
    def test_scan_metrics_from_engine_are_json_clean(self, rng):
        from repro.core.engine import scan_sources

        matrix = rng.normal(size=(50, 3))
        result = scan_sources([matrix], target_chunks=3)
        restored = ScanMetrics.from_json(result.metrics.to_json())
        assert restored.n_rows == 50
        assert restored.n_chunks == 3
        assert restored == result.metrics


class TestServeMetricsMergeLocking:
    """Regression: merge used to read ``other`` without its lock, so a
    live filler recording into ``other`` could tear the snapshot."""

    def test_merge_while_other_thread_records(self):
        target = ServeMetrics()
        live = ServeMetrics()
        stop = threading.Event()

        def recorder():
            while not stop.is_set():
                live.record_batch(
                    n_rows=4,
                    n_rows_filled=2,
                    n_rows_no_holes=1,
                    n_rows_all_holes=1,
                    n_holes_filled=3,
                    group_sizes=[2, 2],
                    seconds=0.001,
                )

        thread = threading.Thread(target=recorder)
        thread.start()
        try:
            for _ in range(200):
                target.merge(live)
                # Under the lock the batch counter and the per-batch
                # sample list move together; a torn read breaks that.
                snapshot = target.to_dict()
                assert snapshot["n_rows"] == 4 * snapshot["n_batches"]
        finally:
            stop.set()
            thread.join()

    def test_cross_merge_does_not_deadlock(self):
        a = ServeMetrics(n_batches=1)
        b = ServeMetrics(n_batches=1)

        def cross(left, right):
            for _ in range(500):
                left.merge(right)

        one = threading.Thread(target=cross, args=(a, b))
        two = threading.Thread(target=cross, args=(b, a))
        one.start()
        two.start()
        one.join(timeout=30)
        two.join(timeout=30)
        assert not one.is_alive() and not two.is_alive(), "merge deadlocked"

    def test_self_merge_doubles_instead_of_deadlocking(self):
        record = ServeMetrics(n_batches=3, n_rows=12)
        record.merge(record)
        assert record.n_batches == 6
        assert record.n_rows == 24


class TestStopwatch:
    def test_measures_nonnegative_span(self):
        with Stopwatch() as watch:
            _ = np.ones(8).sum()
        assert watch.seconds >= 0.0


def _serve_percentiles(populated, quantiles):
    record = ServeMetrics()
    if populated:
        record.record_batch(
            n_rows=1,
            n_rows_filled=1,
            n_rows_no_holes=0,
            n_rows_all_holes=0,
            n_holes_filled=1,
            group_sizes=[1],
            seconds=0.01,
        )
    return record.latency_percentiles(quantiles)


def _http_percentiles(populated, quantiles):
    record = ServeHttpMetrics()
    if populated:
        record.record_flush(n_rows=1, waits=[0.01], queue_depth=0)
    return record.coalesce_wait_percentiles(quantiles)


class TestPercentileValidation:
    """A quantile outside [0, 1] is rejected by an empty record too,
    not only once the record holds a sample."""

    @pytest.mark.parametrize("percentiles", [_serve_percentiles, _http_percentiles])
    @pytest.mark.parametrize("quantile", [1.5, -1.0, float("nan")])
    @pytest.mark.parametrize("populated", [False, True])
    def test_bad_quantile_raises(self, percentiles, quantile, populated):
        with pytest.raises(ValueError, match="quantile must be in"):
            percentiles(populated, (0.5, quantile))

    @pytest.mark.parametrize("percentiles", [_serve_percentiles, _http_percentiles])
    def test_empty_record_reads_zeros(self, percentiles):
        assert percentiles(False, (0.0, 0.5, 1.0)) == (0.0, 0.0, 0.0)
        assert percentiles(True, (0.0, 1.0)) == (0.01, 0.01)
