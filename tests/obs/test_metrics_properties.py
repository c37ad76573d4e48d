"""Property-based tests (hypothesis) for the metrics records.

Two families of invariants over all six records:

* **Round-trip**: ``from_dict(to_dict(m)) == m`` and the JSON twin --
  serialization must reproduce every field, so snapshots on disk are
  lossless.
* **Merge algebra**: ``merge`` is associative (``(a+b)+c == a+(b+c)``
  under any rollup order) and folds every counter exactly once (no
  dropped and no double-counted fields).  The per-field classification
  lists below are exhaustive on purpose: adding a field to a record
  without deciding its merge behavior fails the classification test,
  and ``test_metadata_matches_classification`` checks each field's
  declared kind against these hand-written tables.

Summed float fields are drawn as integer-valued floats so that
float-addition associativity is exact; the *merge semantics* under
test are unaffected.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    PipelineMetrics,
    ScanMetrics,
    ServeHttpMetrics,
    ServeMetrics,
    StoreMetrics,
    WatchMetrics,
)

pytestmark = pytest.mark.obs

_counts = st.integers(min_value=0, max_value=10_000)
_seconds = st.integers(min_value=0, max_value=1_000).map(float)
_gauge_floats = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_words = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)

#: extras keys are typed by pool so cross-record merges never collide a
#: number with a string (receiver-wins on mixed types is order-
#: sensitive by design; the docs call that out).
_extras = st.fixed_dictionaries(
    {},
    optional={
        "k0": _counts,
        "k1": _counts,
        "note": _words,
        "tag": _words,
    },
)

_quarantine_entries = st.lists(
    st.fixed_dictionaries({"source": _words, "rows_lost": _counts}),
    max_size=3,
)


def scan_records():
    return st.builds(
        ScanMetrics,
        executor=st.sampled_from(["serial", "thread", "process"]),
        n_workers=st.integers(min_value=1, max_value=16),
        n_sources=_counts,
        n_chunks=_counts,
        n_blocks=_counts,
        n_rows=_counts,
        n_merges=_counts,
        scan_seconds=_seconds,
        solve_seconds=_seconds,
        total_seconds=_seconds,
        n_faults=_counts,
        n_retries=_counts,
        n_timeouts=_counts,
        n_quarantined=_counts,
        rows_quarantined=_counts,
        bytes_quarantined=_counts,
        n_executor_downgrades=_counts,
        n_chunks_resumed=_counts,
        n_shm_handoffs=_counts,
        n_pickled_handoffs=_counts,
        quarantined=_quarantine_entries,
        extras=_extras,
    )


def pipeline_records():
    return st.builds(
        PipelineMetrics,
        rows_ingested=_counts,
        n_batches=_counts,
        n_empty_polls=_counts,
        n_blocks_folded=_counts,
        n_source_rotations=_counts,
        n_source_truncations=_counts,
        n_rows_skipped=_counts,
        n_rows_diverted=_counts,
        n_drift_evaluations=_counts,
        n_refreshes=_counts,
        refresh_reasons=st.dictionaries(_words, _counts, max_size=4),
        last_refresh_reason=_words,
        last_version=_counts,
        rows_since_refresh=_counts,
        last_guessing_error=_gauge_floats,
        baseline_guessing_error=_gauge_floats,
        last_angle_degrees=_gauge_floats,
        reservoir_rows=_counts,
        reservoir_capacity=_counts,
        ingest_seconds=_seconds,
        drift_seconds=_seconds,
        refresh_seconds=_seconds,
        last_refresh_seconds=_gauge_floats,
        extras=_extras,
    )


def serve_records():
    # Sample lists stay tiny so the _MAX_SAMPLES retention cap never
    # binds; trimming would (intentionally) break strict associativity.
    return st.builds(
        ServeMetrics,
        n_batches=_counts,
        n_rows=_counts,
        n_rows_filled=_counts,
        n_rows_no_holes=_counts,
        n_rows_all_holes=_counts,
        n_groups=_counts,
        n_holes_filled=_counts,
        cache_hits=_counts,
        cache_misses=_counts,
        cache_evictions=_counts,
        n_publishes=_counts,
        fill_seconds=_seconds,
        group_sizes=st.lists(_counts, max_size=4),
        batch_latencies=st.lists(_seconds, max_size=4),
        extras=_extras,
    )


def serve_http_records():
    return st.builds(
        ServeHttpMetrics,
        n_requests=_counts,
        n_fill_requests=_counts,
        n_whatif_requests=_counts,
        n_outlier_requests=_counts,
        n_recommend_requests=_counts,
        n_flushes=_counts,
        n_rows_coalesced=_counts,
        n_shed_queue_full=_counts,
        n_expired=_counts,
        n_errors=_counts,
        n_bad_requests=_counts,
        coalesce_seconds=_seconds,
        queue_depth=_counts,
        queue_depth_peak=_counts,
        flush_sizes=st.lists(_counts, max_size=4),
        coalesce_waits=st.lists(_seconds, max_size=4),
        extras=_extras,
    )


def store_records():
    return st.builds(
        StoreMetrics,
        n_publishes=_counts,
        publish_bytes=_counts,
        n_loads=_counts,
        n_cache_hits=_counts,
        n_cache_misses=_counts,
        n_cache_evictions=_counts,
        n_recoveries=_counts,
        n_quarantined=_counts,
        n_manifest_rebuilds=_counts,
        n_gc_removed=_counts,
        gc_reclaimed_bytes=_counts,
        n_sync_checks=_counts,
        n_sync_swaps=_counts,
        n_lock_breaks=_counts,
        publish_seconds=_seconds,
        load_seconds=_seconds,
        extras=_extras,
    )


def watch_records():
    return st.builds(
        WatchMetrics,
        rows_seen=_counts,
        rows_scored=_counts,
        rows_unscored=_counts,
        rows_passed=_counts,
        rows_cleaned=_counts,
        rows_quarantined=_counts,
        n_batches_tapped=_counts,
        n_bursts=_counts,
        n_calibration_resets=_counts,
        n_events=_counts,
        n_sink_failures=_counts,
        events_by_kind=st.dictionaries(_words, _counts, max_size=4),
        last_event_kind=_words,
        last_z_score=_gauge_floats,
        last_residual=_gauge_floats,
        calibration_rows=_counts,
        calibration_mean=_gauge_floats,
        calibration_std=_gauge_floats,
        model_version=_counts,
        quarantine_rows=_counts,
        quarantine_bytes=_counts,
        score_seconds=_seconds,
        clean_seconds=_seconds,
        quarantine_seconds=_seconds,
        extras=_extras,
    )


_RECORD_STRATEGIES = {
    ScanMetrics: scan_records,
    PipelineMetrics: pipeline_records,
    ServeMetrics: serve_records,
    ServeHttpMetrics: serve_http_records,
    StoreMetrics: store_records,
    WatchMetrics: watch_records,
}

#: Exhaustive merge classification.  Every dataclass field must appear
#: in exactly one bucket; test_merge_classification_is_exhaustive
#: enforces it so new fields cannot silently skip merge coverage.
_SUMMED = {
    ScanMetrics: (
        "n_sources", "n_chunks", "n_blocks", "n_rows", "n_merges",
        "scan_seconds", "solve_seconds", "total_seconds", "n_faults",
        "n_retries", "n_timeouts", "n_quarantined", "rows_quarantined",
        "bytes_quarantined", "n_executor_downgrades", "n_chunks_resumed",
        "n_shm_handoffs", "n_pickled_handoffs",
    ),
    PipelineMetrics: (
        "rows_ingested", "n_batches", "n_empty_polls", "n_blocks_folded",
        "n_source_rotations", "n_source_truncations", "n_rows_skipped",
        "n_rows_diverted", "n_drift_evaluations", "n_refreshes",
        "rows_since_refresh",
        "ingest_seconds", "drift_seconds", "refresh_seconds",
    ),
    ServeMetrics: (
        "n_batches", "n_rows", "n_rows_filled", "n_rows_no_holes",
        "n_rows_all_holes", "n_groups", "n_holes_filled", "cache_hits",
        "cache_misses", "cache_evictions", "n_publishes", "fill_seconds",
    ),
    ServeHttpMetrics: (
        "n_requests", "n_fill_requests", "n_whatif_requests",
        "n_outlier_requests", "n_recommend_requests", "n_flushes",
        "n_rows_coalesced", "n_shed_queue_full", "n_expired", "n_errors",
        "n_bad_requests", "coalesce_seconds",
    ),
    StoreMetrics: (
        "n_publishes", "publish_bytes", "n_loads", "n_cache_hits",
        "n_cache_misses", "n_cache_evictions", "n_recoveries",
        "n_quarantined", "n_manifest_rebuilds", "n_gc_removed",
        "gc_reclaimed_bytes", "n_sync_checks", "n_sync_swaps",
        "n_lock_breaks", "publish_seconds", "load_seconds",
    ),
    WatchMetrics: (
        "rows_seen", "rows_scored", "rows_unscored", "rows_passed",
        "rows_cleaned", "rows_quarantined", "n_batches_tapped",
        "n_bursts", "n_calibration_resets", "n_events",
        "n_sink_failures", "score_seconds", "clean_seconds",
        "quarantine_seconds",
    ),
}
_RECEIVER_KEPT = {
    ScanMetrics: ("executor", "n_workers"),
    PipelineMetrics: (
        "last_refresh_reason", "last_version", "last_guessing_error",
        "baseline_guessing_error", "last_angle_degrees", "reservoir_rows",
        "reservoir_capacity", "last_refresh_seconds",
    ),
    ServeMetrics: (),
    ServeHttpMetrics: ("queue_depth",),
    StoreMetrics: (),
    WatchMetrics: (
        "last_event_kind", "last_z_score", "last_residual",
        "calibration_rows", "calibration_mean", "calibration_std",
        "model_version", "quarantine_rows", "quarantine_bytes",
    ),
}
_CONCATENATED = {
    ScanMetrics: ("quarantined",),
    PipelineMetrics: (),
    ServeMetrics: ("group_sizes", "batch_latencies"),
    ServeHttpMetrics: ("flush_sizes", "coalesce_waits"),
    StoreMetrics: (),
    WatchMetrics: (),
}
_KEY_SUMMED = {
    ScanMetrics: ("extras",),
    PipelineMetrics: ("refresh_reasons", "extras"),
    ServeMetrics: ("extras",),
    ServeHttpMetrics: ("extras",),
    StoreMetrics: ("extras",),
    WatchMetrics: ("events_by_kind", "extras"),
}
#: High-water-mark gauges: merge takes the max (associative, and the
#: default 0 is its identity on the non-negative draws above).
_MAXED = {
    ScanMetrics: (),
    PipelineMetrics: (),
    ServeMetrics: (),
    ServeHttpMetrics: ("queue_depth_peak",),
    StoreMetrics: (),
    WatchMetrics: (),
}

_RECORD_TYPES = [
    ScanMetrics,
    PipelineMetrics,
    ServeMetrics,
    ServeHttpMetrics,
    StoreMetrics,
    WatchMetrics,
]
_record_params = pytest.mark.parametrize(
    "record_type", _RECORD_TYPES, ids=lambda t: t.__name__
)


def _copy(record):
    """Deep-ish copy via the serialization path (locks are not copyable)."""
    return type(record).from_dict(record.to_dict())


@_record_params
def test_merge_classification_is_exhaustive(record_type):
    classified = set(
        _SUMMED[record_type]
        + _RECEIVER_KEPT[record_type]
        + _CONCATENATED[record_type]
        + _KEY_SUMMED[record_type]
        + _MAXED[record_type]
    )
    declared = {f.name for f in dataclasses.fields(record_type)}
    assert classified == declared, (
        f"unclassified merge fields on {record_type.__name__}: "
        f"{sorted(declared ^ classified)}"
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@_record_params
def test_dict_round_trip(record_type, data):
    record = data.draw(_RECORD_STRATEGIES[record_type]())
    assert record_type.from_dict(record.to_dict()) == record


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@_record_params
def test_json_round_trip(record_type, data):
    record = data.draw(_RECORD_STRATEGIES[record_type]())
    assert record_type.from_json(record.to_json()) == record


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@_record_params
def test_merge_folds_every_counter_exactly_once(record_type, data):
    strategy = _RECORD_STRATEGIES[record_type]()
    a, b = data.draw(strategy), data.draw(strategy)
    merged = _copy(a)
    merged.merge(_copy(b))
    for name in _SUMMED[record_type]:
        expected = getattr(a, name) + getattr(b, name)
        assert getattr(merged, name) == expected, name
    for name in _RECEIVER_KEPT[record_type]:
        assert getattr(merged, name) == getattr(a, name), name
    for name in _CONCATENATED[record_type]:
        assert getattr(merged, name) == getattr(a, name) + getattr(b, name)
    for name in _MAXED[record_type]:
        assert getattr(merged, name) == max(
            getattr(a, name), getattr(b, name)
        ), name
    for name in _KEY_SUMMED[record_type]:
        mine, theirs = getattr(a, name), getattr(b, name)
        folded = getattr(merged, name)
        assert set(folded) == set(mine) | set(theirs)
        for key, value in folded.items():
            left, right = mine.get(key), theirs.get(key)
            if isinstance(left, int) and isinstance(right, int):
                assert value == left + right, (name, key)
            elif left is not None:
                assert value == left, (name, key)  # receiver wins
            else:
                assert value == right, (name, key)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@_record_params
def test_merge_is_associative(record_type, data):
    strategy = _RECORD_STRATEGIES[record_type]()
    a, b, c = data.draw(strategy), data.draw(strategy), data.draw(strategy)

    left = _copy(a)
    ab = _copy(a)
    ab.merge(_copy(b))
    left = ab
    left.merge(_copy(c))

    bc = _copy(b)
    bc.merge(_copy(c))
    right = _copy(a)
    right.merge(bc)

    assert left == right


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@_record_params
def test_merge_with_default_record_adds_only_defaults(record_type, data):
    # Not a strict identity: some defaults are non-zero by design
    # (a default ScanMetrics describes one source / one chunk).
    record = data.draw(_RECORD_STRATEGIES[record_type]())
    default = record_type()
    merged = _copy(record)
    merged.merge(record_type())
    for name in _SUMMED[record_type]:
        expected = getattr(record, name) + getattr(default, name)
        assert getattr(merged, name) == expected, name
    for name in _RECEIVER_KEPT[record_type]:
        assert getattr(merged, name) == getattr(record, name), name
    for name in (
        _CONCATENATED[record_type]
        + _KEY_SUMMED[record_type]
        + _MAXED[record_type]
    ):
        assert getattr(merged, name) == getattr(record, name), name


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@_record_params
def test_snapshot_is_independent_of_the_live_record(record_type, data):
    """to_dict must deep-copy containers: mutating a restored record
    (e.g. merging into it) must never leak back into the original."""
    record = data.draw(_RECORD_STRATEGIES[record_type]())
    before = record.to_json()
    restored = _copy(record)
    restored.merge(_copy(record))
    assert record.to_json() == before


#: Which oracle bucket each declared field kind belongs to.  Written out
#: by hand, like the tables above, so the check below compares the
#: metadata against an independent classification.
_BUCKET_OF_KIND = {
    "counter": "summed",
    "summed_gauge": "summed",
    "gauge": "receiver_kept",
    "samples": "concatenated",
    "keyed": "key_summed",
    "extras": "key_summed",
    "maxed": "maxed",
}
_BUCKETS = {
    "summed": _SUMMED,
    "receiver_kept": _RECEIVER_KEPT,
    "concatenated": _CONCATENATED,
    "key_summed": _KEY_SUMMED,
    "maxed": _MAXED,
}


@_record_params
def test_metadata_matches_classification(record_type):
    for field_def in dataclasses.fields(record_type):
        kind = field_def.metadata.get("kind")
        buckets = [
            bucket
            for bucket, table in _BUCKETS.items()
            if field_def.name in table[record_type]
        ]
        assert buckets == [_BUCKET_OF_KIND.get(kind)], (
            f"{record_type.__name__}.{field_def.name}: declared kind "
            f"{kind!r}, classified as {buckets}"
        )


#: Summed fields that their writer resets, so they are not monotonic
#: and must not scrape as Prometheus counters.
_RESET_SUMS = {PipelineMetrics: ("rows_since_refresh",)}


def _expected_counters(record_type):
    summed = set(_SUMMED[record_type]) - set(_RESET_SUMS.get(record_type, ()))
    keyed = set(_KEY_SUMMED[record_type]) - {"extras"}
    return summed | keyed


@_record_params
def test_monotonic_fields_scrape_as_counters(record_type):
    from repro.obs import MetricsRegistry, register_record

    registry = MetricsRegistry()
    record = record_type()
    register_record(registry, record)
    types = {family.name: family.type for family in registry.collect()}
    prefix = record.PREFIX
    counters = _expected_counters(record_type)
    field_families = set()
    for field_def in dataclasses.fields(record_type):
        name = f"{prefix}_{field_def.name}"
        names = [
            candidate
            for candidate in (name, f"{name}_info", f"{name}_retained")
            if candidate in types
        ]
        field_families.update(names)
        expected = "counter" if field_def.name in counters else "gauge"
        assert names and {types[n] for n in names} == {expected}, (
            field_def.name,
            {n: types[n] for n in names},
        )
    derived_counters = {
        name for name in set(types) - field_families if types[name] == "counter"
    }
    if record_type is ServeHttpMetrics:
        assert derived_counters == {"repro_serve_http_rejected_total"}
    else:
        assert derived_counters == set()


def test_field_without_a_kind_fails_loudly():
    from repro.obs import MetricsRecord, MetricsRegistry, register_record
    from repro.obs.metrics import counter

    @dataclasses.dataclass
    class Undeclared(MetricsRecord):
        n_rows: int = counter(0)
        n_forgotten: int = 0

    record = Undeclared()
    with pytest.raises(TypeError, match="n_forgotten declares no metrics kind"):
        record.to_dict()
    with pytest.raises(TypeError, match="n_forgotten"):
        record.merge(Undeclared())
    with pytest.raises(TypeError, match="n_forgotten"):
        Undeclared.from_dict({})
    registry = MetricsRegistry()
    with pytest.raises(TypeError, match="n_forgotten"):
        register_record(registry, record)
    assert registry.collect() == []
