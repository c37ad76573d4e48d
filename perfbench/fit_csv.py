"""``fit-csv``: the batch-mining path.

One operation is a serial ``scan_sources`` over Quest basket shards
written as CSV, followed by ``RatioRuleModel.fit_from_accumulator``:
the paper's single pass (Fig. 2a) at Fig. 8's size, 100,000 rows by
100 items.  CSV parsing in ``repro.io`` is most of the work.  The scan
stays serial because the second vCPU of a small host comes and goes;
the process pool is measured only as a per-layer ratio.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List

import numpy as np

from common import (
    OpLog,
    SpanLog,
    end_to_end,
    median,
    metric,
    peak_rss_mb_self,
    run_worker,
    slot_deadlines,
)

FULL = {
    "rows": 100_000,
    "items": 100,
    "shards": 4,
    "cold_starts": 6,
    "tail_rung": 50.0,
    "trace_ops": 7,
    "layer_repeats": 3,
}
SMOKE = {
    "rows": 4_000,
    "items": 100,
    "shards": 4,
    "cold_starts": 2,
    "tail_rung": 50.0,
    "trace_ops": 1,
    "layer_repeats": 1,
}

#: Chunks planned for the serial-versus-process comparison: two per
#: shard, so that both executors scan the identical plan and must agree
#: bit for bit.
SPEEDUP_CHUNKS_PER_SHARD = 2


def make_inputs(workdir: Path, seed: int, size: dict) -> List[str]:
    """Write the Quest basket matrix as CSV shards; returns their paths."""
    from repro.datasets.quest import QuestBasketGenerator

    generator = QuestBasketGenerator(size["items"], seed=seed)
    matrix = generator.generate(size["rows"], seed=seed + 1)
    header = ",".join(generator.schema.names)
    paths = []
    for index, part in enumerate(np.array_split(matrix, size["shards"])):
        path = workdir / f"quest-{index}.csv"
        with open(path, "w", encoding="ascii") as handle:
            handle.write(header + "\n")
            np.savetxt(handle, part, fmt="%.15g", delimiter=",")
        paths.append(str(path))
    return paths


def fit_once(shards: List[str], **scan_options) -> tuple:
    """One operation: scan every shard, finish the fit.

    Returns ``(fingerprint, rows scanned)``.
    """
    from repro import RatioRuleModel, scan_sources

    options = {"executor": "serial", **scan_options}
    result = scan_sources(shards, **options)
    model = RatioRuleModel().fit_from_accumulator(result.accumulator, result.schema)
    return model.fingerprint(), result.accumulator.n_rows


def reference(shards: List[str], n_rows: int) -> tuple:
    """The expected answer: the fingerprint of a serial scan with an
    explicit, equal plan, and the number of rows generated."""
    return fit_once(shards, target_chunks=len(shards))[0], n_rows


# -- worker side (one cold start per process) -----------------------------------


def worker(args: dict) -> dict:
    import repro  # noqa: F401  (imports stay outside the cold start)

    shards = args["shards"]
    started = time.perf_counter()
    setup_fingerprint, setup_rows = fit_once(shards)
    setup_s = time.perf_counter() - started
    ops = []
    while not ops or time.monotonic() < args["deadline"]:
        begun = time.perf_counter()
        fingerprint, rows = fit_once(shards)
        ops.append([time.perf_counter() - begun, fingerprint, rows])
    return {
        "setup_s": setup_s,
        "setup": [setup_fingerprint, setup_rows],
        "ops": ops,
        "peak_rss_mb": peak_rss_mb_self(),
    }


def speedup_worker(args: dict) -> dict:
    """Serial versus 2-worker process scans over the same chunk plan.

    Runs in its own process so that the engine's cached pool ends with it.
    Partials come back through the result pipe rather than shared memory,
    so that the benchmark writes nothing outside its checkout.
    """
    shards = args["shards"]
    options = {
        "max_workers": 2,
        "target_chunks": SPEEDUP_CHUNKS_PER_SHARD * len(shards),
        "shm_handoff": False,
    }
    fit_once(shards, executor="process", **options)
    serial, pooled, fingerprints = [], [], set()
    for _ in range(args["repeats"]):
        for executor, times in (("serial", serial), ("process", pooled)):
            begun = time.perf_counter()
            fingerprint, _ = fit_once(shards, executor=executor, **options)
            times.append(time.perf_counter() - begun)
            fingerprints.add(fingerprint)
    return {"serial": serial, "process": pooled, "fingerprints": sorted(fingerprints)}


# -- parent side: checks and metrics ---------------------------------------------


def check(answer: list, expected: tuple) -> tuple:
    fingerprint, rows = answer
    if rows != expected[1]:
        return False, f"scanned {rows} rows, expected {expected[1]}"
    if fingerprint != expected[0]:
        return False, f"fingerprint {fingerprint} != reference {expected[0]}"
    return True, ""


def account(reports: List[dict], expected: tuple) -> OpLog:
    ops = OpLog()
    for report in reports:
        ops.record(*check(report["setup"], expected))
        for seconds, fingerprint, n_rows in report["ops"]:
            ops.measured(*check([fingerprint, n_rows], expected), seconds, n_rows)
            ops.busy += seconds
    return ops


def run_timed(ctx) -> dict:
    shards = make_inputs(ctx.workdir, ctx.seed, ctx.size)
    expected = reference(shards, ctx.size["rows"])
    start = time.monotonic()
    reports = [
        run_worker(
            "fit-csv",
            {"shards": shards, "deadline": deadline},
            timeout=ctx.seconds + 120.0,
        )
        for deadline in slot_deadlines(start, ctx.seconds, ctx.size["cold_starts"])
    ]
    ops = account(reports, expected)
    if ctx.smoke:
        broken = [dict(r, ops=[list(op) for op in r["ops"]]) for r in reports]
        broken[0]["ops"][0][1] = expected[0][::-1]
        ctx.perturbation_caught(account(broken, expected).failed == ops.failed + 1)
    setups = [r["setup_s"] for r in reports]
    peak_rss = [r["peak_rss_mb"] for r in reports]
    rung = ctx.size["tail_rung"]
    metrics = end_to_end(ops, setups, peak_rss, rung, ctx.details)
    return {"ops": ops, "metrics": metrics}


def run_traced(ctx, log: SpanLog) -> dict:
    """Per-layer budget of one fit, timed from outside each public call."""
    from repro import RatioRuleModel, scan_sources
    from repro.core.covariance import StreamingCovariance
    from repro.core.engine import plan_chunks
    from repro.io.matrix_reader import open_matrix
    from repro.linalg.eigen import solve_eigensystem

    size = ctx.size
    shards = make_inputs(ctx.workdir, ctx.seed, size)
    expected = reference(shards, size["rows"])
    ops = OpLog()
    plain: List[float] = []
    parse: List[float] = []
    update: List[float] = []
    engine_self: List[float] = []
    for _ in range(size["trace_ops"]):
        with log.span("fit-csv.op"):
            with log.span("core.engine.scan_sources"):
                result = scan_sources(shards, executor="serial")
            with log.span("core.model.fit_from_accumulator"):
                model = RatioRuleModel().fit_from_accumulator(
                    result.accumulator, result.schema
                )
        ops.record(*check([model.fingerprint(), result.accumulator.n_rows], expected))
        scan_s = log.durations("core.engine.scan_sources")[-1]

        # The scan's two inner layers, called directly on the same shards:
        # the reader parses each block and the update folds it while it is
        # still in cache, as inside the scan.  The update spans are the
        # update; the rest of the pass is parsing.
        accumulator = StreamingCovariance(size["items"])
        blocks = parsed = 0
        with log.span("io.parse_and_update"):
            for shard in shards:
                with open_matrix(shard) as reader:
                    for block in reader.iter_blocks():
                        with log.span("core.covariance.update"):
                            accumulator.update(block)
                        blocks += 1
                        parsed += block.shape[0]
        ops.record(parsed == expected[1], f"reader pass read {parsed} rows")
        pass_s = log.durations("io.parse_and_update")[-1]
        update_s = sum(log.durations("core.covariance.update")[-blocks:])
        parse.append(pass_s - update_s)
        update.append(update_s)
        engine_self.append(scan_s - pass_s)

        begun = time.perf_counter()
        answer = fit_once(shards)
        plain.append(time.perf_counter() - begun)
        ops.record(*check(list(answer), expected))
    op_s = median(log.durations("fit-csv.op"))
    n_rows = expected[1]
    parse_s = median(parse)
    update_s = median(update)
    engine_self_s = median(engine_self)

    for _ in range(size["layer_repeats"]):
        with log.span("core.engine.plan_chunks"):
            for shard in shards:
                plan_chunks(shard, target_chunks=1)
    plan_s = median(log.durations("core.engine.plan_chunks"))

    scatter = accumulator.scatter_matrix()
    for _ in range(5 * size["layer_repeats"]):
        with log.span("linalg.solve_eigensystem"):
            solve_eigensystem(scatter)
    eigen_s = median(log.durations("linalg.solve_eigensystem"))
    finish_s = median(log.durations("core.model.fit_from_accumulator"))

    speedup = run_worker(
        "fit-csv-speedup",
        {"shards": shards, "repeats": size["layer_repeats"]},
        timeout=300.0,
    )
    ops.record(
        len(speedup["fingerprints"]) == 1,
        f"serial and process scans disagree: {speedup['fingerprints']}",
    )
    ctx.details.update(
        fit_csv_op_ms=op_s * 1e3,
        fit_csv_scan_ms=median(log.durations("core.engine.scan_sources")) * 1e3,
        fit_csv_speedup_runs=speedup,
    )
    values = {
        "io.csv_parse_rows_per_s": (n_rows / parse_s, "rows/s", parse_s),
        "core.covariance.update_rows_per_s": (n_rows / update_s, "rows/s", update_s),
        "core.engine.self_ms": (engine_self_s * 1e3, "ms", engine_self_s),
        "core.engine.plan_ms": (plan_s * 1e3, "ms", plan_s),
        "linalg.eigensolve_ms": (eigen_s * 1e3, "ms", eigen_s),
        "core.model.finish_ms": (finish_s * 1e3, "ms", finish_s),
    }
    metrics = {}
    for name, (value, unit, per_op_s) in values.items():
        metrics[name] = metric(value, unit)
        metrics[name + "_share"] = metric(per_op_s / op_s, "fraction")
    metrics["core.engine.process_speedup"] = metric(
        median(speedup["serial"]) / median(speedup["process"]), "ratio"
    )
    metrics["trace.overhead_share.fit-csv"] = metric(
        op_s / median(plain) - 1.0, "fraction"
    )
    return {"ops": ops, "metrics": metrics}
