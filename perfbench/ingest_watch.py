"""``ingest-watch``: the write side.

A latent-factor stream with about 1% injected outliers is appended, in
fixed slices, to a CSV tailed by ``CSVTailSource``.  A ``WatchDaemon``
over a store-backed ``ModelRegistry`` calls ``step()`` until each slice
is routed (passed, cleaned or quarantined) and folded.  Refresh is
forced by row count, so the versions published depend only on the rows
admitted, never on timing.

Half of the outliers sit in the clean band and half far beyond the
quarantine threshold.  The calibration is warmed from the training rows
and is not reset on refresh, so no row ever passes unscored and the
quarantine must hold exactly the far outliers.
"""

from __future__ import annotations

import io
import os
import shutil
import time
from pathlib import Path
from typing import List

import numpy as np

from common import (
    OpLog,
    SpanLog,
    end_to_end,
    latent_factor_model,
    latent_rows,
    median,
    metric,
    peak_rss_mb_self,
    read_bytes_slices,
    run_worker,
    slot_deadlines,
    write_bytes_slices,
)

FULL = {
    "cols": 16,
    "train_rows": 8192,
    "slice_rows": 2048,
    "slices": 48,
    "refresh_rows": 16384,
    "cold_starts": 10,
    "tail_rung": 90.0,
    "trace_slices": 24,
    "layer_repeats": 5,
}
SMOKE = {
    "cols": 16,
    "train_rows": 2048,
    "slice_rows": 512,
    "slices": 8,
    "refresh_rows": 1024,
    "cold_starts": 2,
    "tail_rung": 90.0,
    "trace_slices": 4,
    "layer_repeats": 1,
}

#: Every model keeps one rule per latent factor, so that row residuals
#: are the noise alone and only the injected outliers reach the clean
#: band; the default energy cutoff keeps one rule here, which leaves the
#: other factors in the residual and lets a seed-dependent number of
#: clean rows be flagged.
N_FACTORS = 3
NOISE = 0.5
OUTLIER_RATE = 0.01
#: Target residual z-scores of the injected outliers, against the
#: routing thresholds below: mild ones land mid clean band, far ones
#: far past the quarantine threshold.
MILD_Z = 12.0
FAR_Z = 2000.0
CLEAN_SIGMAS = 4.0
QUARANTINE_SIGMAS = 30.0
BLOCK_ROWS = 4096
MAX_POLLS_PER_SLICE = 100


def parse_line(line: bytes) -> np.ndarray:
    """The values a CSV row stands for, as the program will read them."""
    return np.array([float(cell) for cell in line.split(b",")])


class Inputs:
    """The stream, its seed model and store, generated before timing."""

    def __init__(self, workdir: Path, seed: int, size: dict) -> None:
        from repro import RatioRuleModel
        from repro.core.outliers import calibrate_residuals
        from repro.store import ModelStore

        rng = np.random.default_rng(seed)
        n_cols = size["cols"]
        loadings, means = latent_factor_model(rng, n_cols, N_FACTORS)
        train = latent_rows(rng, loadings, means, size["train_rows"], NOISE)
        model = RatioRuleModel(cutoff=N_FACTORS).fit(train)
        calibration = calibrate_residuals(model, train)
        base = calibration.mean
        # Size each injected cell error so its row residual reaches the
        # target z-score whatever the column's leverage on the rules.
        leverage = (model.rules_matrix**2).sum(axis=1)
        per_col = 1.0 / np.sqrt(np.maximum(1.0 - leverage, 1e-3))

        def cell_error(z: float) -> np.ndarray:
            return np.sqrt((base + z * calibration.std) ** 2 - base**2) * per_col

        self.slice_rows = size["slice_rows"]
        self.n_cols = n_cols
        self.slices: List[bytes] = []
        self.far: List[np.ndarray] = []
        self.mild_rows: List[np.ndarray] = []
        n_outliers = max(2, round(OUTLIER_RATE * self.slice_rows))
        for _ in range(size["slices"]):
            rows = latent_rows(rng, loadings, means, self.slice_rows, NOISE)
            picked = rng.choice(self.slice_rows, n_outliers, replace=False)
            far_idx = np.sort(picked[: n_outliers // 2])
            mild_idx = np.sort(picked[n_outliers // 2 :])
            for indices, z in ((far_idx, FAR_Z), (mild_idx, MILD_Z)):
                cols = rng.integers(0, n_cols, indices.size)
                signs = rng.choice([-1.0, 1.0], indices.size)
                rows[indices, cols] += signs * cell_error(z)[cols]
            text = io.BytesIO()
            np.savetxt(text, rows, fmt="%.4f", delimiter=",")
            data = text.getvalue()
            lines = data.splitlines()
            self.slices.append(data)
            self.far.append(np.array([parse_line(lines[i]) for i in far_idx]))
            self.mild_rows.extend(parse_line(lines[i]) for i in mild_idx)

        self.workdir = workdir
        self.template = workdir / "store-template"
        ModelStore(self.template).publish(model)
        self.model = model
        self.header = ",".join(model.schema_.names) + "\n"
        self.train_path = workdir / "train.npy"
        np.save(self.train_path, train)
        self.slices_path = workdir / "slices.bin"
        write_bytes_slices(self.slices_path, self.slices)
        self.refresh_rows = size["refresh_rows"]
        self._copies = 0

    def fresh_run(self) -> dict:
        """Paths for one cold start: a store copy, an empty CSV, a quarantine."""
        self._copies += 1
        run_dir = self.workdir / f"run-{self._copies}"
        run_dir.mkdir()
        shutil.copytree(self.template, run_dir / "store")
        (run_dir / "feed.csv").write_text(self.header, encoding="ascii")
        return {
            "store": str(run_dir / "store"),
            "csv": str(run_dir / "feed.csv"),
            "quarantine": str(run_dir / "quarantine.jsonl"),
            "train": str(self.train_path),
            "slices": str(self.slices_path),
            "slice_rows": self.slice_rows,
            "refresh_rows": self.refresh_rows,
        }


# -- the daemon under test (worker process, or the traced run) -------------------


def refresh_policy(rows: int):
    from repro.pipeline import RefreshPolicy

    return RefreshPolicy(min_rows=rows, max_rows=rows, refresh_on_drift=False)


def build_daemon(paths: dict, train: np.ndarray):
    """Open the store (registry recovery) and build the daemon over it."""
    from repro.core.outliers import calibrate_residuals
    from repro.pipeline import CSVTailSource
    from repro.serve.registry import ModelRegistry
    from repro.store import ModelStore
    from repro.watch import RoutingPolicy, RowQuarantine, WatchDaemon

    registry = ModelRegistry(store=ModelStore(paths["store"]))
    return WatchDaemon(
        CSVTailSource(paths["csv"]),
        quarantine=RowQuarantine(paths["quarantine"]),
        registry=registry,
        policy=RoutingPolicy(
            clean_sigmas=CLEAN_SIGMAS,
            quarantine_sigmas=QUARANTINE_SIGMAS,
            recalibrate_on_refresh=False,
        ),
        calibration=calibrate_residuals(registry.current().model, train),
        cutoff=N_FACTORS,
        block_rows=BLOCK_ROWS,
        batch_rows=paths["slice_rows"],
        refresh_policy=refresh_policy(paths["refresh_rows"]),
    )


def append(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def feed(step, seen, fd: int, data: bytes, n_rows: int) -> None:
    """Append one slice, then step until all of its rows were taken in."""
    target = seen() + n_rows
    append(fd, data)
    polls = 0
    while seen() < target:
        if polls == MAX_POLLS_PER_SLICE:
            raise RuntimeError(f"slice not consumed after {polls} polls")
        step()
        polls += 1


def feed_daemon(daemon, fd: int, data: bytes, n_rows: int) -> list:
    """Feed one slice; returns the cumulative routing counts and version."""
    feed(daemon.step, lambda: daemon.metrics.rows_seen, fd, data, n_rows)
    m = daemon.metrics
    return [
        m.rows_passed,
        m.rows_cleaned,
        m.rows_quarantined,
        m.rows_unscored,
        daemon.registry.latest_version,
    ]


def worker(args: dict) -> dict:
    slices = read_bytes_slices(Path(args["slices"]))
    train = np.load(args["train"])
    import repro.watch  # noqa: F401  (imports stay outside the cold start)

    n_rows = args["slice_rows"]
    fd = os.open(args["csv"], os.O_WRONLY | os.O_APPEND)
    try:
        started = time.perf_counter()
        daemon = build_daemon(args, train)
        records = [[0, 0.0] + feed_daemon(daemon, fd, slices[0], n_rows)]
        setup_s = time.perf_counter() - started
        index = 1
        while len(records) < 2 or time.monotonic() < args["deadline"]:
            slice_index = index % len(slices)
            begun = time.perf_counter()
            counts = feed_daemon(daemon, fd, slices[slice_index], n_rows)
            records.append([slice_index, time.perf_counter() - begun] + counts)
            index += 1
    finally:
        os.close(fd)
    return {"setup_s": setup_s, "slices": records, "peak_rss_mb": peak_rss_mb_self()}


# -- parent side: checks and metrics ---------------------------------------------


def read_quarantine(path: str) -> List[np.ndarray]:
    from repro.watch import RowQuarantine

    if not Path(path).exists():
        return []
    return [RowQuarantine.decode_values(r) for r in RowQuarantine(path).read_all()]


def same_rows(got: List[np.ndarray], want: np.ndarray) -> bool:
    """Equal row counts and every row equal byte for byte."""
    if len(got) != len(want):
        return False
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def account(inputs: Inputs, runs: List[tuple]) -> OpLog:
    """Check every slice; the first slice of each cold start is its set-up."""
    ops = OpLog()
    n = inputs.slice_rows
    for report, quarantined in runs:
        before = [0, 0, 0, 0]
        pending = publishes = cursor = 0
        for k, (index, seconds, *counts) in enumerate(report["slices"]):
            passed, cleaned, moved, unscored = (
                after - prior for after, prior in zip(counts[:4], before)
            )
            before = counts[:4]
            far = inputs.far[index]
            pending += n - len(far)
            if pending >= inputs.refresh_rows:
                publishes += 1
                pending = 0
            got = quarantined[cursor : cursor + len(far)]
            cursor += len(far)
            if passed + cleaned + moved != n or unscored:
                ok, reason = False, f"slice {index}: routed {passed}+{cleaned}+{moved}"
            elif moved != len(far) or not same_rows(got, far):
                ok, reason = False, f"slice {index}: quarantine differs from outliers"
            elif counts[4] != 1 + publishes:
                ok, reason = False, f"slice {index}: version {counts[4]}"
            else:
                ok, reason = True, ""
            if k == 0:
                ops.record(ok, reason)
            else:
                ops.measured(ok, reason, seconds, n)
                ops.busy += seconds
    return ops


def perturbed(runs: List[tuple]) -> List[tuple]:
    """The same runs with one quarantined row changed in its last bit."""
    report, quarantined = runs[0]
    rows = [row.copy() for row in quarantined]
    rows[-1][0] = np.nextafter(rows[-1][0], np.inf)
    return [(report, rows)] + runs[1:]


def run_timed(ctx) -> dict:
    inputs = Inputs(ctx.workdir, ctx.seed, ctx.size)
    start = time.monotonic()
    runs, setups, peak_rss = [], [], []
    for deadline in slot_deadlines(start, ctx.seconds, ctx.size["cold_starts"]):
        paths = dict(inputs.fresh_run(), deadline=deadline)
        report = run_worker("ingest-watch", paths, timeout=ctx.seconds + 120.0)
        runs.append((report, read_quarantine(paths["quarantine"])))
        setups.append(report["setup_s"])
        peak_rss.append(report["peak_rss_mb"])
    ops = account(inputs, runs)
    if ctx.smoke:
        caught = account(inputs, perturbed(runs)).failed == ops.failed + 1
        ctx.perturbation_caught(caught)
    rung = ctx.size["tail_rung"]
    metrics = end_to_end(ops, setups, peak_rss, rung, ctx.details)
    return {"ops": ops, "metrics": metrics}


def run_traced(ctx, log: SpanLog) -> dict:
    """Per-layer budget of one slice, timed from outside each public call."""
    from repro import DriftDetector, IngestionPipeline, OnlineRatioRuleModel
    from repro.core.outliers import reconstruction_residuals
    from repro.pipeline import CSVTailSource
    from repro.serve.registry import ModelRegistry
    from repro.store import ModelStore
    from repro.watch import RowQuarantine

    size = ctx.size
    inputs = Inputs(ctx.workdir, ctx.seed, size)
    n = inputs.slice_rows
    order = [k % len(inputs.slices) for k in range(1, 2 * size["trace_slices"] + 1)]
    train = np.load(inputs.train_path)

    paths = inputs.fresh_run()
    fd = os.open(paths["csv"], os.O_WRONLY | os.O_APPEND)
    try:
        daemon = build_daemon(paths, train)
        records = [[0, 0.0] + feed_daemon(daemon, fd, inputs.slices[0], n)]
        plain: List[float] = []
        for k, index in enumerate(order):
            begun = time.perf_counter()
            if k % 2 == 0:
                with log.span("ingest-watch.slice"):
                    counts = feed_daemon(daemon, fd, inputs.slices[index], n)
            else:
                counts = feed_daemon(daemon, fd, inputs.slices[index], n)
                plain.append(time.perf_counter() - begun)
            records.append([index, time.perf_counter() - begun] + counts)
        watched = daemon.metrics
        publishes = daemon.registry.latest_version - 1
    finally:
        os.close(fd)
    traced_run = ({"slices": records}, read_quarantine(paths["quarantine"]))
    ops = account(inputs, [traced_run])
    slice_s = median(log.durations("ingest-watch.slice"))
    watched_s = sum(r[1] for r in records[1:])

    bare_paths = inputs.fresh_run()
    bare = IngestionPipeline(
        CSVTailSource(bare_paths["csv"]),
        registry=ModelRegistry(store=ModelStore(bare_paths["store"])),
        cutoff=N_FACTORS,
        block_rows=BLOCK_ROWS,
        batch_rows=n,
        policy=refresh_policy(inputs.refresh_rows),
    )
    fd = os.open(bare_paths["csv"], os.O_WRONLY | os.O_APPEND)
    try:
        feed(bare.step, lambda: bare.rows_ingested, fd, inputs.slices[0], n)
        begun = time.perf_counter()
        for index in order:
            feed(bare.step, lambda: bare.rows_ingested, fd, inputs.slices[index], n)
        bare_s = time.perf_counter() - begun
        for _ in range(size["layer_repeats"]):
            with log.span("pipeline.refresh_now"):
                bare.refresh_now()
    finally:
        os.close(fd)

    parse_paths = inputs.fresh_run()
    source = CSVTailSource(parse_paths["csv"])
    batches = []
    fd = os.open(parse_paths["csv"], os.O_WRONLY | os.O_APPEND)
    try:
        for index in order:
            append(fd, inputs.slices[index])
            with log.span("pipeline.sources.poll"):
                batch = source.poll(n)
            ops.record(batch.shape[0] == n, f"poll returned {batch.shape[0]} rows")
            batches.append(batch)
    finally:
        os.close(fd)
        source.close()
    n_parsed = sum(b.shape[0] for b in batches)
    parse_rate = n_parsed / sum(log.durations("pipeline.sources.poll"))

    model = inputs.model
    for batch in batches:
        with log.span("watch.reconstruction_residuals"):
            reconstruction_residuals(model, batch)
    score_rate = n_parsed / sum(log.durations("watch.reconstruction_residuals"))

    detector = DriftDetector()
    for batch in batches:
        with log.span("pipeline.drift.observe"):
            detector.observe(batch)
    drift_rate = n_parsed / sum(log.durations("pipeline.drift.observe"))

    stacked = np.concatenate(batches)
    online = OnlineRatioRuleModel(inputs.n_cols)
    n_folded = 0
    for start in range(0, stacked.shape[0] - BLOCK_ROWS + 1, BLOCK_ROWS):
        with log.span("pipeline.fold"):
            online.update(stacked[start : start + BLOCK_ROWS])
        n_folded += BLOCK_ROWS
    fold_rate = n_folded / sum(log.durations("pipeline.fold"))

    for row in inputs.mild_rows[:50]:
        with log.span("watch.clean_row"):
            for column in range(inputs.n_cols):
                model.predict_holes(row[None, :], [column])
    clean_s = median(log.durations("watch.clean_row"))

    quarantine = RowQuarantine(ctx.workdir / "append-only.jsonl")
    for row in [r for far in inputs.far for r in far][:50]:
        with log.span("watch.quarantine.append"):
            quarantine.append(
                row, residual=0.0, z_score=0.0, reason="benchmark", model_version=1
            )
    append_s = median(log.durations("watch.quarantine.append"))

    store = ModelStore(ctx.workdir / "publish-store")
    for _ in range(size["layer_repeats"]):
        with log.span("store.publish"):
            store.publish(model)
    publish_s = median(log.durations("store.publish"))
    refresh_s = median(log.durations("pipeline.refresh_now"))

    n_slices = len(records)
    per_slice = {
        "cleaned": watched.rows_cleaned / n_slices,
        "quarantined": watched.rows_quarantined / n_slices,
        "publishes": publishes / n_slices,
    }
    publishes_per = per_slice["publishes"]
    ctx.details.update(
        ingest_watch_slice_p50_ms=slice_s * 1e3,
        ingest_per_slice=per_slice,
    )
    values = {
        "pipeline.sources.parse_rows_per_s": (parse_rate, "rows/s", n / parse_rate),
        "watch.score_rows_per_s": (score_rate, "rows/s", n / score_rate),
        "pipeline.drift_observe_rows_per_s": (drift_rate, "rows/s", n / drift_rate),
        "pipeline.fold_rows_per_s": (fold_rate, "rows/s", n / fold_rate),
        "watch.clean_ms_per_row": (
            clean_s * 1e3,
            "ms",
            clean_s * per_slice["cleaned"],
        ),
        "watch.quarantine_append_us": (
            append_s * 1e6,
            "us",
            append_s * per_slice["quarantined"],
        ),
        "pipeline.refresh_ms": (refresh_s * 1e3, "ms", refresh_s * publishes_per),
        "store.publish_ms": (publish_s * 1e3, "ms", publish_s * publishes_per),
    }
    metrics = {}
    for name, (value, unit, per_slice_s) in values.items():
        metrics[name] = metric(value, unit)
        metrics[name + "_share"] = metric(per_slice_s / slice_s, "fraction")
    metrics["watch.vs_bare"] = metric(bare_s / watched_s, "ratio")
    metrics["watch.rows_cleaned"] = metric(watched.rows_cleaned, "count")
    metrics["watch.rows_quarantined"] = metric(watched.rows_quarantined, "count")
    metrics["pipeline.publishes"] = metric(publishes, "count")
    metrics["trace.overhead_share.ingest-watch"] = metric(
        slice_s / median(plain) - 1.0, "fraction"
    )
    return {"ops": ops, "metrics": metrics}
