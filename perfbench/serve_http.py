"""``serve-http``: the query path users wait on.

A model is published into a fresh ``ModelStore`` and served by the
``serve-http`` CLI in its own process.  One generator thread keeps two
``/v1/fill`` requests in flight on two keep-alive connections (a closed
loop: both replies are read before the next pair is sent).  Rows draw
from a fixed pool of hole patterns, smaller than the server's
1,024-entry operator cache, and every request carries an explicit
``timeout_ms``.

``--max-batch-rows`` is pinned to the in-flight count.  With the default
of 64, two in-flight requests never fill a flush, so each one waits for
its deadline minus the flush margin and the benchmark would time the
deadline instead of the server.  Pinned to 2, flushes fire on count.
"""

from __future__ import annotations

import http.client
import json
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    ROOT,
    OpLog,
    SpanLog,
    child_env,
    end_to_end,
    latent_factor_model,
    latent_rows,
    median,
    metric,
    peak_rss_mb_of,
    slot_deadlines,
)

FULL = {
    "cols": 24,
    "factors": 3,
    "train_rows": 20_000,
    "patterns": 64,
    "requests": 4096,
    "cold_starts": 10,
    "tail_rung": 99.0,
    "trace_pairs": 120,
    "layer_pairs": 1000,
    "layer_repeats": 5,
}
SMOKE = {
    "cols": 24,
    "factors": 3,
    "train_rows": 2_000,
    "patterns": 16,
    "requests": 256,
    "cold_starts": 2,
    "tail_rung": 99.0,
    "trace_pairs": 10,
    "layer_pairs": 20,
    "layer_repeats": 1,
}

IN_FLIGHT = 2
SERVER_FLAGS = ["--max-batch-rows", str(IN_FLIGHT)]
TIMEOUT_MS = 1000
NOISE = 0.5
START_TIMEOUT_S = 60.0
HEADERS = {"Content-Type": "application/json"}


class Inputs:
    """Everything generated before timing starts."""

    def __init__(self, workdir: Path, seed: int, size: dict) -> None:
        from repro import BatchFiller, RatioRuleModel
        from repro.store import ModelStore

        rng = np.random.default_rng(seed)
        loadings, means = latent_factor_model(rng, size["cols"], size["factors"])
        train = latent_rows(rng, loadings, means, size["train_rows"], NOISE)
        self.model = RatioRuleModel().fit(train)
        self.template = workdir / "store-template"
        ModelStore(self.template).publish(self.model)
        self.patterns = hole_patterns(rng, size["cols"], size["patterns"])
        rows = latent_rows(rng, loadings, means, size["requests"], NOISE)
        for row, index in zip(rows, rng.integers(0, len(self.patterns), len(rows))):
            row[list(self.patterns[index])] = np.nan
        self.rows = rows
        offline = BatchFiller(self.model).fill_batch(rows)
        self.expected = offline.filled
        self.version = offline.version
        self.fingerprint = offline.fingerprint
        self.bodies = [
            json.dumps(
                {
                    "row": [None if np.isnan(v) else float(v) for v in row],
                    "timeout_ms": TIMEOUT_MS,
                }
            ).encode()
            for row in rows
        ]
        self.workdir = workdir
        self._copies = 0

    def fresh_store(self) -> Path:
        """A private copy of the published store (made outside timing)."""
        self._copies += 1
        path = self.workdir / f"store-{self._copies}"
        shutil.copytree(self.template, path)
        return path

    def check(self, index: int, status: int, body: bytes) -> tuple:
        """Bit-identity with the offline ``fill_batch`` at the same version."""
        if status != 200:
            return False, f"HTTP {status}: {body[:200]!r}"
        try:
            reply = json.loads(body)
            filled = np.asarray(reply["filled"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"request {index}: unreadable reply ({exc})"
        if filled.tobytes() != self.expected[index].tobytes():
            return False, f"request {index}: fill differs from offline fill_batch"
        if (reply["version"], reply["fingerprint"]) != (self.version, self.fingerprint):
            return False, f"request {index}: served version {reply['version']}"
        return True, ""


def hole_patterns(rng, n_cols: int, n_patterns: int) -> List[tuple]:
    """``n_patterns`` distinct hole patterns of one to three holes."""
    patterns: Dict[tuple, None] = {}
    while len(patterns) < n_patterns:
        n_holes = int(rng.integers(1, 4))
        patterns[tuple(sorted(rng.choice(n_cols, n_holes, replace=False)))] = None
    return list(patterns)


class Server:
    """One ``serve-http`` CLI process and the two client connections."""

    def __init__(self, store: Path, log_path: Path) -> None:
        self.launched = time.perf_counter()
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http", "--store", str(store)]
            + ["--port", "0"]
            + SERVER_FLAGS,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                if not selector.select(timeout=START_TIMEOUT_S):
                    raise RuntimeError("serve-http did not report its port")
            line = self.proc.stdout.readline()
            port = int(line.split("http://")[1].split(":")[1].split()[0])
        except (RuntimeError, IndexError, ValueError) as exc:
            self.stop()
            raise RuntimeError(f"serve-http failed to start: {exc}") from None
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            for _ in range(IN_FLIGHT)
        ]

    def pair(self, indices: List[int], bodies: List[bytes]) -> List[tuple]:
        """Send one request per connection, then read every reply.

        Returns ``(index, status, body, sent_at, done_at)`` per request.
        """
        sent = []
        for conn, index in zip(self.conns, indices):
            sent.append(time.perf_counter())
            conn.request("POST", "/v1/fill", body=bodies[index], headers=HEADERS)
        replies = []
        for conn, index, sent_at in zip(self.conns, indices, sent):
            response = conn.getresponse()
            body = response.read()
            replies.append((index, response.status, body, sent_at, time.perf_counter()))
        return replies

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        for conn in getattr(self, "conns", []):
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def coalesced_rows(replies: List[tuple]) -> List[int]:
    """``coalesced_rows`` of every readable HTTP 200 reply."""
    rows = []
    for _, status, body, _, _ in replies:
        if status != 200:
            continue
        try:
            rows.append(json.loads(body)["coalesced_rows"])
        except (ValueError, KeyError):
            continue
    return rows


def next_pair(counter: int, n_requests: int) -> List[int]:
    return [(counter * IN_FLIGHT + k) % n_requests for k in range(IN_FLIGHT)]


def cold_start(inputs: Inputs, slot: int, deadline: float) -> dict:
    """Launch a server, time it to the first correct reply, then load it."""
    server = Server(inputs.fresh_store(), inputs.workdir / f"server-{slot}.log")
    try:
        first = server.pair(next_pair(slot, len(inputs.rows)), inputs.bodies)
        setup_s = first[0][4] - server.launched
        replies = []
        counter = slot + 1
        loop_started = time.perf_counter()
        while not replies or time.monotonic() < deadline:
            indices = next_pair(counter, len(inputs.rows))
            replies.extend(server.pair(indices, inputs.bodies))
            counter += 1
        busy = time.perf_counter() - loop_started
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setup_s": setup_s,
        "setup": first,
        "replies": replies,
        "busy": busy,
        "peak_rss_mb": peak,
    }


def account(inputs: Inputs, slots: List[dict]) -> OpLog:
    ops = OpLog()
    for slot in slots:
        for index, status, body, _, _ in slot["setup"]:
            ops.record(*inputs.check(index, status, body))
        for index, status, body, sent_at, done_at in slot["replies"]:
            ops.measured(*inputs.check(index, status, body), done_at - sent_at, 1)
        ops.busy += slot["busy"]
    return ops


def run_timed(ctx) -> dict:
    inputs = Inputs(ctx.workdir, ctx.seed, ctx.size)
    start = time.monotonic()
    deadlines = slot_deadlines(start, ctx.seconds, ctx.size["cold_starts"])
    slots = [cold_start(inputs, k, deadline) for k, deadline in enumerate(deadlines)]
    ops = account(inputs, slots)
    if ctx.smoke:
        index, status, body, sent_at, done_at = slots[0]["replies"][0]
        reply = json.loads(body)
        reply["filled"][0] = float(np.nextafter(reply["filled"][0], np.inf))
        perturbed = (index, status, json.dumps(reply).encode(), sent_at, done_at)
        broken = [dict(s) for s in slots]
        broken[0]["replies"] = [perturbed] + slots[0]["replies"][1:]
        ctx.perturbation_caught(account(inputs, broken).failed == ops.failed + 1)
    setups = [s["setup_s"] for s in slots]
    peak_rss = [s["peak_rss_mb"] for s in slots]
    rung = ctx.size["tail_rung"]
    metrics = end_to_end(ops, setups, peak_rss, rung, ctx.details)
    return {"ops": ops, "metrics": metrics}


def _coalescer_pass(inputs: Inputs, size: dict, log: SpanLog, ops: OpLog):
    """The HTTP pass's rows through an in-process coalescer, two in flight."""
    from repro import BatchFiller, ModelRegistry
    from repro.serve.http import DeadlineCoalescer
    from repro.store import ModelStore

    filler = BatchFiller(ModelRegistry(store=ModelStore(inputs.fresh_store())))
    coalescer = DeadlineCoalescer(filler, max_batch_rows=IN_FLIGHT)
    barrier = threading.Barrier(IN_FLIGHT)
    results: List[tuple] = []

    def client(lane: int) -> None:
        for counter in range(size["layer_pairs"]):
            index = next_pair(counter, len(inputs.rows))[lane]
            barrier.wait(timeout=30)
            with log.span("serve.coalescer.fill"):
                try:
                    outcome = coalescer.fill(inputs.rows[index], TIMEOUT_MS / 1e3)
                except Exception as exc:  # counted as a failed operation
                    results.append((index, None, repr(exc)))
                    continue
            results.append((index, outcome.filled, outcome.version))

    coalescer.start()
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(IN_FLIGHT)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        coalescer.stop()
    for index, filled, version in results:
        expected = inputs.expected[index].tobytes()
        ok = filled is not None and filled.tobytes() == expected
        ok = ok and version == inputs.version
        ops.record(ok, f"coalesced fill {index}: {version}")
    return filler.cache.stats()


def run_traced(ctx, log: SpanLog) -> dict:
    """Per-layer budget of one request, timed from outside each public call."""
    from repro import BatchFiller
    from repro.core.reconstruction import compute_fill_operator
    from repro.store import ModelStore

    size = ctx.size
    inputs = Inputs(ctx.workdir, ctx.seed, size)
    ops = OpLog()
    server = Server(inputs.fresh_store(), inputs.workdir / "server-traced.log")
    traced: List[float] = []
    plain: List[float] = []
    try:
        replies = server.pair(next_pair(0, len(inputs.rows)), inputs.bodies)
        setup_s = replies[0][4] - server.launched
        for counter in range(1, 2 * size["trace_pairs"] + 1):
            indices = next_pair(counter, len(inputs.rows))
            if counter % 2:
                with log.span("serve-http.pair"):
                    pair = server.pair(indices, inputs.bodies)
                traced.extend(done - sent for _, _, _, sent, done in pair)
            else:
                pair = server.pair(indices, inputs.bodies)
                plain.extend(done - sent for _, _, _, sent, done in pair)
            replies.extend(pair)
    finally:
        server.stop()
    for index, status, body, _, _ in replies:
        ops.record(*inputs.check(index, status, body))
    flush_rows = coalesced_rows(replies) or [0]
    request_s = median(traced)

    stats = _coalescer_pass(inputs, size, log, ops)
    fill_s = median(log.durations("serve.coalescer.fill"))

    warm = BatchFiller(inputs.model)
    warm.fill_batch(inputs.rows)
    batch_rows = max(1, round(sum(flush_rows) / len(flush_rows)))
    for counter in range(size["layer_pairs"]):
        start = (counter * batch_rows) % (len(inputs.rows) - batch_rows)
        with log.span("serve.batch.fill_batch"):
            warm.fill_batch(inputs.rows[start : start + batch_rows])
    batch_s = median(log.durations("serve.batch.fill_batch"))

    rules = inputs.model.rules_matrix
    for pattern in inputs.patterns:
        with log.span("core.reconstruction.compute_fill_operator"):
            compute_fill_operator(list(pattern), rules, rules.shape[0])
    operator_s = median(log.durations("core.reconstruction.compute_fill_operator"))

    for _ in range(size["layer_repeats"]):
        store = ModelStore(inputs.fresh_store())
        with log.span("store.load"):
            store.load(version=inputs.version)
    load_s = median(log.durations("store.load"))

    lookups = stats["hits"] + stats["misses"]
    misses_per_request = stats["misses"] / max(1, lookups)
    http_self_s = request_s - fill_s
    ctx.details.update(
        serve_http_request_p50_ms=request_s * 1e3,
        serve_http_traced_setup_s=setup_s,
        serve_cache_stats=stats,
    )
    values = {
        "serve.http.self_ms": (http_self_s * 1e3, "ms", http_self_s, request_s),
        "serve.coalescer.fill_p50_ms": (fill_s * 1e3, "ms", fill_s, request_s),
        "serve.batch.fill_batch_p50_us": (batch_s * 1e6, "us", batch_s, request_s),
        "core.reconstruction.operator_p50_us": (
            operator_s * 1e6,
            "us",
            operator_s * misses_per_request,
            request_s,
        ),
        # The store is read once per cold start: its share is of set-up.
        "store.load_ms": (load_s * 1e3, "ms", load_s, setup_s),
    }
    metrics = {}
    for name, (value, unit, layer_s, whole_s) in values.items():
        metrics[name] = metric(value, unit)
        metrics[name + "_share"] = metric(layer_s / whole_s, "fraction")
    metrics["serve.coalescer.rows_per_flush"] = metric(
        sum(flush_rows) / len(flush_rows), "rows"
    )
    metrics["serve.coalescer.deadline_flush_share"] = metric(
        sum(rows < IN_FLIGHT for rows in flush_rows) / len(flush_rows), "fraction"
    )
    hit_share = stats["hits"] / max(1, lookups)
    metrics["serve.cache.hit_share"] = metric(hit_share, "fraction")
    metrics["trace.overhead_share.serve-http"] = metric(
        request_s / median(plain) - 1.0, "fraction"
    )
    return {"ops": ops, "metrics": metrics}
