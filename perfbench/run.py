"""The repository benchmark: three closed-loop workloads over the system.

Run from the repository root::

    python3 perfbench/run.py --workload fit-csv --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics of one workload with tracing
off.  ``--trace 1`` is a separate run that times calls into each layer's
public functions from outside, for all three workloads, and reports every
layer's time and its share of the workload's per-operation time.  The last
line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the run's details: the host reference-loop timings
taken before and after, every cold start's set-up sample, the tail
percentile used and the sample count.  ``--smoke`` runs every workload at
tiny sizes in both modes and checks metric names, units and the
correctness checks, including that a perturbed answer counts as failed.
See ``WORKLOADS.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, SRC, SpanLog, reference_loop_ms

sys.path.insert(0, str(SRC))

import fit_csv  # noqa: E402
import ingest_watch  # noqa: E402
import serve_http  # noqa: E402

WORKLOADS = {
    "fit-csv": fit_csv,
    "serve-http": serve_http,
    "ingest-watch": ingest_watch,
}
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS_ROOT = ROOT / ".perfbench_results"


class Context:
    """What a workload needs for one run, and where it leaves details."""

    def __init__(self, name, seed, seconds, smoke, workdir):
        module = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.size = module.SMOKE if smoke else module.FULL
        self.workdir = workdir
        self.details = {}
        workdir.mkdir(parents=True)

    def perturbation_caught(self, caught: bool) -> None:
        self.details["perturbation_caught"] = bool(caught)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """One benchmark run; returns ``(result, details)``."""
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    details = {"reference_loop_ms_before": reference_loop_ms()}
    try:
        if trace:
            # The traced run attributes all three workloads, so that any
            # traced run reports every per-layer metric.
            log = SpanLog()
            names = [workload] + [w for w in WORKLOADS if w != workload]
            outcomes = []
            for name in names:
                ctx = Context(name, seed, seconds, smoke, workdir / name)
                outcomes.append(WORKLOADS[name].run_traced(ctx, log))
                details[name] = ctx.details
        else:
            ctx = Context(workload, seed, seconds, smoke, workdir / workload)
            outcomes = [WORKLOADS[workload].run_timed(ctx)]
            details.update(ctx.details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["reference_loop_ms_after"] = reference_loop_ms()
    attempted = sum(o["ops"].attempted for o in outcomes)
    failed = sum(o["ops"].failed for o in outcomes)
    reasons = [r for o in outcomes for r in o["ops"].reasons]
    if reasons:
        details["failure_reasons"] = reasons
    metrics = {}
    for outcome in outcomes:
        metrics.update(outcome["metrics"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def byte_compile() -> None:
    """Compile the sources first, so no timed start pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def smoke() -> int:
    """Every workload, both modes, at tiny sizes; checks names, units and
    the correctness checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.monotonic()
            result, details = run(workload, 1, 2.0, bool(trace), smoke=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={trace}"
            if units != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(units)} != spec")
            if result["failed"]:
                problems.append(f"{label}: failed {details.get('failure_reasons')}")
            if not trace and not details.get("perturbation_caught"):
                problems.append(f"{label}: a perturbed answer was not counted failed")
            print(
                f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                f"{time.monotonic() - started:.1f}s"
            )
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    byte_compile()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=False
    )
    RESULTS_ROOT.mkdir(exist_ok=True)
    record = {"args": vars(args), "result": result, "details": details}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (RESULTS_ROOT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
