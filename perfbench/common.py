"""Helpers shared by the repository benchmark's workloads.

Nothing here measures the program by itself: these are the statistics,
the span bookkeeping, the child-process plumbing and the host reference
loop that ``run.py`` and the workload modules build on.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Keep every process's numeric work on one CPU.  On a 2-vCPU host whose
#: second CPU comes and goes, a BLAS pool that spreads over both makes
#: timings bimodal; one CPU per process keeps them unimodal.  Set before
#: numpy is first imported, so the benchmark's own process complies too,
#: and inherited by every process it starts.
os.environ.update(
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)

import numpy as np  # noqa: E402

#: The checkout root: the benchmark is always run from there.
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Percentiles ``tail_ms`` may report.  Each workload names the highest
#: rung its sample count supports on a slow host.  The rung stays fixed
#: on a faster host, which completes more operations, so that
#: ``tail_ms`` never moves to another percentile between runs.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], highest: float) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest ladder rung, up to ``highest``,
    that has at least ``TAIL_MIN_BEYOND`` samples beyond it."""
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if q <= highest and len(values) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen, percentile(values, chosen)


# -- operation accounting -----------------------------------------------------


@dataclass
class OpLog:
    """Operations attempted and failed; times and rows of the measured ones.

    ``busy`` is the measured time that ``rows`` per second is taken over;
    each workload sets it, because with two operations in flight it is
    not the sum of their latencies.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    failed_latencies: List[float] = field(default_factory=list)
    rows: int = 0
    busy: float = 0.0

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def measured(self, ok: bool, reason: str, seconds: float, rows: int) -> None:
        """A timed operation; only correct ones count toward rows and latency."""
        if self.record(ok, reason):
            self.latencies.append(seconds)
            self.rows += rows
        else:
            self.failed_latencies.append(seconds)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(
    ops: OpLog,
    setups: List[float],
    peak_rss: List[float],
    tail_rung: float,
    details: dict,
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of a timed run, with their evidence in ``details``.

    Latency falls back to the failed operations only when none was
    correct, so that a broken run still reports numbers (and fails).
    """
    latencies = ops.latencies or ops.failed_latencies
    tail_q, tail_s = tail(latencies, tail_rung)
    details.update(
        setup_samples_s=setups,
        n_samples=len(latencies),
        tail_percentile=tail_q,
        peak_rss_samples_mb=peak_rss,
    )
    return {
        "rows_per_s": metric(ops.rows / ops.busy, "rows/s"),
        "p50_ms": metric(median(latencies) * 1e3, "ms"),
        "tail_ms": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(median(peak_rss), "MiB"),
    }


# -- spans --------------------------------------------------------------------


class SpanLog:
    """Spans recorded by the benchmark around its own calls into the program.

    A private :class:`repro.obs.tracing.Tracer` is used, so the program's
    internal spans stay off: only the benchmark's calls are recorded.
    """

    def __init__(self) -> None:
        from repro.obs.tracing import Tracer

        self._tracer = Tracer(enabled=True, buffer_spans=1 << 20)

    def span(self, name: str):
        return self._tracer.span(name)

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every finished span called ``name``."""
        return [
            s["end"] - s["start"] for s in self._tracer.spans() if s["name"] == name
        ]


# -- processes ----------------------------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_worker(workload: str, args: dict, timeout: float) -> dict:
    """Run ``worker.py`` for one cold start and return its JSON report.

    The child is always waited for; on a timeout it is killed first.
    """
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        workload,
        json.dumps(args),
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def slot_deadlines(start: float, seconds: float, n_slots: int) -> List[float]:
    """Monotonic end times splitting a run window into equal slots."""
    return [start + seconds * (i + 1) / n_slots for i in range(n_slots)]


# -- host reference -----------------------------------------------------------


def _reference_once() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    matrix = np.arange(200 * 200, dtype=np.float64).reshape(200, 200) / 7.0
    for _ in range(5):
        matrix = matrix @ matrix.T / 1e6
    elapsed = time.perf_counter() - started
    if total < 0 or not np.isfinite(matrix).all():  # keep the work live
        raise RuntimeError("reference loop went wrong")
    return elapsed


def reference_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed, benchmark-owned loop (host speed probe).

    Timed before and after every run: if it moved between two sets of
    runs, the host changed speed, not the program.
    """
    return median([_reference_once() for _ in range(repeats)]) * 1e3


def write_bytes_slices(path: Path, slices: Sequence[bytes]) -> None:
    """Store byte slices as ``<json offsets line>\\n<payload>``."""
    offsets = [0]
    for piece in slices:
        offsets.append(offsets[-1] + len(piece))
    with open(path, "wb") as handle:
        handle.write(json.dumps(offsets).encode() + b"\n")
        for piece in slices:
            handle.write(piece)


def read_bytes_slices(path: Path) -> List[bytes]:
    with open(path, "rb") as handle:
        offsets = json.loads(handle.readline())
        payload = handle.read()
    return [payload[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def latent_factor_model(rng, n_cols: int, n_factors: int):
    """Loadings and column means of a latent-factor basket generator."""
    loadings = rng.uniform(0.5, 3.0, size=(n_factors, n_cols))
    means = rng.uniform(20.0, 80.0, size=n_cols)
    return loadings, means


def latent_rows(rng, loadings, means, n_rows: int, noise: float):
    """``n_rows`` rows of ``factors @ loadings + means + noise``."""
    factors = rng.normal(0.0, 5.0, size=(n_rows, loadings.shape[0]))
    return factors @ loadings + means + rng.normal(0.0, noise, (n_rows, means.size))
