"""Command-line interface: ``ratio-rules`` (or ``python -m repro``).

Subcommands
-----------
``fit``
    Mine Ratio Rules from a CSV or row-store file and print (or save)
    them.
``rules``
    Pretty-print the rules of a saved model (Table-2-style table,
    histograms, narratives).
``fill``
    Fill the missing cells of a CSV file (empty cells or ``nan`` are
    holes) using a saved model.
``serve-batch``
    Fill a CSV of incomplete rows through the cached, batched serving
    layer (``repro.serve``): rows are grouped by hole pattern, each
    pattern's operator is computed once and cached, and ``--stats``
    reports cache traffic and latency percentiles.
``serve-http``
    Serve a saved model over HTTP (``repro.serve.http``): POST
    ``/v1/fill`` / ``/v1/whatif`` / ``/v1/outlier`` / ``/v1/recommend``
    plus ``GET /v1/models`` and ``/healthz``, with concurrent
    single-row requests coalesced into micro-batches by deadline;
    ``--stats`` reports queue depth, flush sizes, coalesce latency,
    and shed counts.
``pipeline``
    Continuously ingest a CSV (optionally tailing it as it grows),
    detect drift against the published model, and refresh it with
    atomic hot-swap (``repro.pipeline``); ``--stats`` reports rows
    ingested, drift scores, and refresh latency.
``ge``
    Evaluate the guessing error of a model against a test file, with
    the col-avgs comparison.
``outliers``
    Flag suspicious rows and cells of a data file against a saved model.
``clean``
    Impute NaN holes and repair corrupted cells of a CSV file.
``whatif``
    Evaluate a what-if scenario (``--set attr=value`` /
    ``--scale attr=factor``) against a saved model.
``experiment``
    Run one of the paper-reproduction experiments (``fig6``, ``fig7``,
    ``fig8``, ``fig9+fig11``, ``fig12``, ``table2``) or ``all``.
``generate``
    Materialize one of the simulated datasets to CSV.
``obs``
    Observability utilities: ``obs dump`` pretty-prints a span trace
    written by ``--trace`` or a metrics JSON scrape.

The ``fit``, ``serve-batch``, and ``pipeline`` subcommands accept
``--trace TRACE.json`` (enable span tracing for the run and dump the
span tree on exit) and ``--metrics-port PORT`` (expose a Prometheus
``/metrics`` + ``/metrics.json`` endpoint for the duration of the
run -- most useful with long-running ``pipeline --follow``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.linalg.eigen import BACKENDS

__all__ = ["main", "build_parser"]


def _add_obs_arguments(sub: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to a subcommand."""
    sub.add_argument(
        "--trace",
        metavar="TRACE.json",
        default=None,
        help="enable span tracing for this run and write the "
        "span dump here (pretty-print with 'obs dump')",
    )
    sub.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics (and /metrics.json) "
        "endpoint on 127.0.0.1:PORT for the duration of "
        "the run (0 picks a free port)",
    )


def _add_store_arguments(sub: argparse.ArgumentParser) -> None:
    """Attach the shared durable-model-store flags to a subcommand."""
    sub.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="mount a durable model store at DIR: every "
        "publish is crash-safe on disk, restarts recover "
        "the latest version without a refit, and other "
        "processes sharing DIR observe publishes",
    )
    sub.add_argument(
        "--tenant",
        metavar="NAME",
        default=None,
        help="store namespace to serve/publish (requires "
        "--store; default: the 'default' namespace)",
    )
    sub.add_argument(
        "--keep-last",
        type=int,
        default=None,
        metavar="N",
        help="retention: keep at most N versions per tenant "
        "(requires --store; default: keep everything)",
    )


def _add_ingest_arguments(sub: argparse.ArgumentParser) -> None:
    """Attach the flags 'pipeline' and 'watch run' share: how the CSV is
    tailed and batched, how refits solve, and when the run stops."""
    sub.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for appended rows after end-of-file "
        "(Ctrl-C to stop; default: stop at end-of-file)",
    )
    sub.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="sleep between empty polls in --follow mode",
    )
    sub.add_argument(
        "--batch-rows",
        type=int,
        default=1024,
        metavar="N",
        help="rows polled per step",
    )
    sub.add_argument(
        "--block-rows",
        type=int,
        default=4096,
        metavar="N",
        help="accumulator fold granularity (match the offline fit's "
        "block size for bit-identical refits)",
    )
    sub.add_argument(
        "--cutoff",
        default=None,
        help="rules to keep (same forms as 'fit --cutoff')",
    )
    sub.add_argument(
        "--backend",
        default="numpy",
        choices=BACKENDS,
        help="eigensolver backend for refits",
    )
    sub.add_argument(
        "--on-bad-row",
        default="raise",
        choices=["raise", "skip"],
        help="what to do with a corrupt CSV row: abort the run with "
        "file/byte context (raise, default) or drop it and count it "
        "in the metrics (skip)",
    )
    sub.add_argument(
        "--min-rows",
        type=int,
        default=256,
        metavar="N",
        help="rows since last refresh required before the next one",
    )
    sub.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop after N polls (bounded runs)",
    )
    sub.add_argument(
        "--stats",
        action="store_true",
        help="print the run's telemetry on exit",
    )


def _open_store(args: argparse.Namespace):
    """Build the ``ModelStore`` requested by ``--store``/``--tenant``.

    Returns ``(store, namespace)`` -- both ``None`` when ``--store`` was
    not given -- or raises ``ValueError`` with a user-facing message.
    """
    if getattr(args, "store", None) is None:
        if getattr(args, "tenant", None) is not None:
            raise ValueError("--tenant requires --store")
        if getattr(args, "keep_last", None) is not None:
            raise ValueError("--keep-last requires --store")
        return None, None
    from repro.store import DEFAULT_NAMESPACE, ModelStore

    store = ModelStore(args.store, keep_last=args.keep_last)
    return store, args.tenant or DEFAULT_NAMESPACE


def _store_registry(store, namespace):
    """A :class:`~repro.serve.ModelRegistry` mounted on ``store``."""
    from repro.serve import ModelRegistry

    return ModelRegistry(store=store, namespace=namespace)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ratio-rules",
        description="Ratio Rules data mining (VLDB 1998 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fit = subparsers.add_parser("fit", help="mine Ratio Rules from a data file")
    fit.add_argument("data", help="input .csv or row-store file")
    fit.add_argument(
        "--cutoff",
        default=None,
        help="rules to keep: an integer k, a float energy "
        "threshold in (0,1], or 'paper'/'scree'/'kaiser' "
        "(default: paper's 85%% rule)",
    )
    fit.add_argument(
        "--backend",
        default="numpy",
        choices=BACKENDS,
        help="eigensolver backend",
    )
    fit.add_argument(
        "--save",
        metavar="MODEL.npz",
        default=None,
        help="save the fitted model",
    )
    fit.add_argument(
        "--stats",
        action="store_true",
        help="print scan/solve telemetry (rows/sec, blocks, "
        "merge counts, timings) after fitting",
    )
    fit.add_argument(
        "--executor",
        default="auto",
        choices=["auto", "serial", "thread", "process"],
        help="scan fabric: 'process' parallelizes the scan "
        "across CPU cores via the out-of-core engine "
        "(default: auto)",
    )
    fit.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="scan pool width (default: serial for --executor "
        "auto, all cores for an explicit parallel executor)",
    )
    fit.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempt a failed scan chunk up to N times "
        "with exponential backoff (default: 0, fail fast)",
    )
    fit.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt deadline for a chunk scan on pooled "
        "executors; a late chunk counts as a fault",
    )
    fit.add_argument(
        "--on-bad-chunk",
        default="raise",
        choices=["raise", "skip"],
        help="what to do with a chunk that exhausts its "
        "retries: abort the fit (raise, default) or "
        "quarantine it and fit on the surviving data "
        "(skip; losses are itemized under --stats)",
    )
    fit.add_argument(
        "--checkpoint",
        metavar="SCAN.ckpt",
        default=None,
        help="persist each finished chunk's partial "
        "accumulator here so an interrupted fit can be "
        "resumed without rescanning",
    )
    fit.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists (the "
        "resumed model is exactly the uninterrupted one)",
    )
    fit.add_argument(
        "--target-chunks",
        type=int,
        default=None,
        metavar="N",
        help="plan the scan into N chunks (default: adaptive -- "
        "one per worker, over-chunked for load balance on "
        "large files)",
    )
    fit.add_argument(
        "--min-chunk-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="adaptive chunk-sizing floor: never plan chunks "
        "smaller than this payload (default: 4 MiB)",
    )
    fit.add_argument(
        "--no-shm-handoff",
        action="store_true",
        help="disable the shared-memory handoff of partial "
        "statistics from process workers (debugging aid; "
        "partials are pickled back instead)",
    )
    _add_obs_arguments(fit)

    rules = subparsers.add_parser("rules", help="print the rules of a saved model")
    rules.add_argument("model", help="model .npz produced by 'fit --save'")
    rules.add_argument(
        "--table",
        action="store_true",
        help="print the Table-2-style loading table only",
    )
    rules.add_argument(
        "--json",
        action="store_true",
        help="emit the rules as JSON for downstream tooling",
    )

    fill = subparsers.add_parser("fill", help="fill missing cells of a CSV file")
    fill.add_argument("model", help="model .npz produced by 'fit --save'")
    fill.add_argument("data", help="CSV file; empty or 'nan' cells are holes")
    fill.add_argument(
        "--output",
        default=None,
        help="write the completed CSV here (default: stdout)",
    )

    serve_batch = subparsers.add_parser(
        "serve-batch",
        help="fill incomplete rows through the cached serving layer",
    )
    serve_batch.add_argument(
        "model",
        nargs="?",
        default=None,
        help="model .npz produced by 'fit --save' "
        "(optional with --store: the tenant's "
        "latest stored version is served)",
    )
    serve_batch.add_argument("data", help="CSV file; empty or 'nan' cells are holes")
    _add_store_arguments(serve_batch)
    serve_batch.add_argument(
        "--output",
        default=None,
        help="write the completed CSV here (default: stdout)",
    )
    serve_batch.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="serve the file in batches of N rows "
        "(default: one batch; smaller batches "
        "exercise the operator cache across calls)",
    )
    serve_batch.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        metavar="N",
        help="operator-cache capacity (LRU; default 1024)",
    )
    serve_batch.add_argument(
        "--underdetermined",
        default="truncate",
        choices=["truncate", "min-norm"],
        help="policy for under-specified rows (CASE 3)",
    )
    serve_batch.add_argument(
        "--stats",
        action="store_true",
        help="print serving telemetry (cache hit/miss/"
        "eviction, group sizes, latency percentiles)",
    )
    _add_obs_arguments(serve_batch)

    serve_http = subparsers.add_parser(
        "serve-http",
        help="serve a saved model over HTTP with request coalescing",
    )
    serve_http.add_argument(
        "model",
        nargs="?",
        default=None,
        help="model .npz produced by 'fit --save' "
        "(optional with --store: the tenant's "
        "latest stored version is served)",
    )
    _add_store_arguments(serve_http)
    serve_http.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_http.add_argument(
        "--port",
        type=int,
        default=8090,
        metavar="PORT",
        help="listen port (0 picks a free port; "
        "default 8090)",
    )
    serve_http.add_argument(
        "--max-batch-rows",
        type=int,
        default=64,
        metavar="N",
        help="flush the coalescing queue as soon as N "
        "requests are waiting (default 64)",
    )
    serve_http.add_argument(
        "--flush-margin-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="flush this many milliseconds before the "
        "earliest queued deadline, leaving the "
        "margin for the batch compute (default 5)",
    )
    serve_http.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help="admission bound: shed requests with 429 + "
        "Retry-After once N are queued (default 256)",
    )
    serve_http.add_argument(
        "--default-timeout-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="per-request deadline applied when the "
        "request body carries no timeout_ms "
        "(default 1000)",
    )
    serve_http.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        metavar="N",
        help="operator-cache capacity (LRU; default 1024)",
    )
    serve_http.add_argument(
        "--underdetermined",
        default="truncate",
        choices=["truncate", "min-norm"],
        help="policy for under-specified rows (CASE 3)",
    )
    serve_http.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for a bounded time then exit "
        "(default: serve until Ctrl-C)",
    )
    serve_http.add_argument(
        "--stats",
        action="store_true",
        help="print HTTP serving telemetry (queue depth, "
        "flush sizes, coalesce latency, shed "
        "counts) on shutdown",
    )
    _add_obs_arguments(serve_http)

    pipeline = subparsers.add_parser(
        "pipeline",
        help="continuously ingest a CSV and refresh the model on drift",
    )
    pipeline.add_argument("data", help="CSV file to ingest (may keep growing)")
    _add_ingest_arguments(pipeline)
    pipeline.add_argument(
        "--decay",
        type=float,
        default=1.0,
        help="per-row forgetting factor in (0,1]; 1.0 "
        "remembers the whole stream (default)",
    )
    pipeline.add_argument(
        "--min-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="publish-cadence floor",
    )
    pipeline.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="force a refresh after N rows even without "
        "drift (default: never)",
    )
    pipeline.add_argument(
        "--ge-ratio",
        type=float,
        default=1.25,
        help="GE1 degradation factor that counts as drift",
    )
    pipeline.add_argument(
        "--angle-threshold",
        type=float,
        default=15.0,
        metavar="DEGREES",
        help="rule-angle drift threshold",
    )
    pipeline.add_argument(
        "--reservoir",
        type=int,
        default=512,
        metavar="N",
        help="holdout reservoir capacity for the GE signal",
    )
    pipeline.add_argument(
        "--save",
        metavar="MODEL.npz",
        default=None,
        help="save the final published model",
    )
    _add_store_arguments(pipeline)
    _add_obs_arguments(pipeline)

    watch = subparsers.add_parser(
        "watch",
        help="always-on anomaly/cleaning daemon in front of the pipeline",
    )
    watch_sub = watch.add_subparsers(dest="watch_command", required=True)
    watch_run = watch_sub.add_parser(
        "run",
        help="tail a CSV, score each row against the live model, and "
        "pass/clean/quarantine it before the accumulator",
    )
    watch_run.add_argument("data", help="CSV file to watch (may keep growing)")
    watch_run.add_argument(
        "--model",
        metavar="MODEL.npz",
        default=None,
        help="seed model to score against from the first row "
        "(default: bootstrap from the stream itself)",
    )
    watch_run.add_argument(
        "--quarantine",
        metavar="PATH",
        default=None,
        help="append-only quarantine JSONL "
        "(default: <data>.quarantine.jsonl)",
    )
    watch_run.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="append structured events to this JSONL file",
    )
    watch_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the stdout event sink",
    )
    watch_run.add_argument(
        "--status-file",
        metavar="PATH",
        default=None,
        help="write a live status snapshot here after every poll "
        "(read it with 'ratio-rules watch status')",
    )
    watch_run.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="final status rendering on exit",
    )
    watch_run.add_argument(
        "--clean-sigmas",
        type=float,
        default=4.0,
        metavar="Z",
        help="residual z-score above which a row is repaired",
    )
    watch_run.add_argument(
        "--quarantine-sigmas",
        type=float,
        default=8.0,
        metavar="Z",
        help="residual z-score above which a row is quarantined",
    )
    watch_run.add_argument(
        "--min-calibration-rows",
        type=int,
        default=64,
        metavar="N",
        help="rows observed before scoring starts",
    )
    _add_ingest_arguments(watch_run)
    _add_store_arguments(watch_run)
    _add_obs_arguments(watch_run)
    watch_status = watch_sub.add_parser(
        "status",
        help="render a status snapshot written by 'watch run --status-file'",
    )
    watch_status.add_argument(
        "status_file",
        help="status JSON written by 'watch run --status-file'",
    )
    watch_status.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format",
    )

    ge = subparsers.add_parser("ge", help="guessing error of a model on test data")
    ge.add_argument("model", help="model .npz produced by 'fit --save'")
    ge.add_argument("data", help="complete test .csv or row-store file")
    ge.add_argument("--holes", type=int, default=1, help="h, simultaneous holes")
    ge.add_argument(
        "--max-hole-sets",
        type=int,
        default=200,
        help="cap on evaluated hole sets",
    )

    outliers = subparsers.add_parser(
        "outliers", help="flag outlier rows/cells against a saved model"
    )
    outliers.add_argument("model", help="model .npz produced by 'fit --save'")
    outliers.add_argument("data", help="complete .csv or row-store file to audit")
    outliers.add_argument(
        "--sigmas",
        type=float,
        default=2.0,
        help="flagging threshold in standard deviations",
    )
    outliers.add_argument(
        "--limit",
        type=int,
        default=10,
        help="max outliers listed per kind",
    )

    clean = subparsers.add_parser(
        "clean", help="impute holes and repair corrupted cells of a CSV file"
    )
    clean.add_argument("model", help="model .npz produced by 'fit --save'")
    clean.add_argument("data", help="CSV file; empty or 'nan' cells are holes")
    clean.add_argument("output", help="where to write the cleaned CSV")
    clean.add_argument(
        "--repair-sigmas",
        type=float,
        default=None,
        help="also repair cells deviating this many sigmas "
        "(default: impute only)",
    )

    whatif = subparsers.add_parser(
        "whatif", help="evaluate a what-if scenario against a saved model"
    )
    whatif.add_argument("model", help="model .npz produced by 'fit --save'")
    whatif.add_argument(
        "--set",
        dest="fixed",
        action="append",
        default=[],
        metavar="ATTR=VALUE",
        help="pin an attribute to an absolute value",
    )
    whatif.add_argument(
        "--scale",
        dest="scaled",
        action="append",
        default=[],
        metavar="ATTR=FACTOR",
        help="multiply an attribute's baseline by a factor",
    )

    stability = subparsers.add_parser(
        "stability", help="bootstrap stability of a model's rules"
    )
    stability.add_argument("model", help="model .npz produced by 'fit --save'")
    stability.add_argument(
        "data",
        help="the training data file the model was fitted on",
    )
    stability.add_argument(
        "--resamples",
        type=int,
        default=30,
        help="bootstrap resamples",
    )

    verify = subparsers.add_parser(
        "verify", help="check row-store / partition integrity (CRC32)"
    )
    verify.add_argument("target", help="a .rr file or a partition directory")

    inspect = subparsers.add_parser(
        "inspect", help="summarize a data file before mining"
    )
    inspect.add_argument("data", help=".csv, .csv.gz, .npz or row-store file")
    inspect.add_argument(
        "--top-correlations",
        type=int,
        default=5,
        help="strongest attribute pairs to list",
    )

    compare = subparsers.add_parser(
        "compare", help="compare two saved models (drift report)"
    )
    compare.add_argument("model_a", help="baseline model .npz")
    compare.add_argument("model_b", help="candidate model .npz")
    compare.add_argument(
        "--angle-threshold",
        type=float,
        default=15.0,
        help="drift threshold on the largest principal "
        "angle, in degrees",
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a paper-reproduction experiment"
    )
    experiment.add_argument(
        "id",
        help="experiment id (fig6, fig7, fig8, fig9+fig11, fig12, table2) or 'all'",
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--markdown",
        metavar="REPORT.md",
        default=None,
        help="also write a markdown reproduction report",
    )

    generate = subparsers.add_parser(
        "generate", help="materialize a simulated dataset to CSV"
    )
    generate.add_argument("dataset", choices=["nba", "baseball", "abalone"])
    generate.add_argument("output", help="output .csv path")
    generate.add_argument("--seed", type=int, default=0)

    obs = subparsers.add_parser(
        "obs", help="observability utilities (trace/metrics dumps)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_dump = obs_sub.add_parser(
        "dump",
        help="pretty-print a span trace (--trace output) or a metrics "
             "JSON scrape (/metrics.json)",
    )
    obs_dump.add_argument("path", help="trace JSON written by --trace, or metrics JSON")

    return parser


def _parse_cutoff(text: Optional[str]):
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _load_csv_with_holes(path: str):
    """Read a CSV where empty cells or 'nan' mark holes."""
    import csv

    from repro.io.schema import TableSchema

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        schema = TableSchema.from_names(name.strip() for name in header)
        rows = []
        for record in reader:
            if not record:
                continue
            rows.append(
                [float(cell) if cell.strip() else float("nan") for cell in record]
            )
    return np.asarray(rows, dtype=np.float64), schema


class _ObsSession:
    """Per-invocation observability scope behind ``--trace`` /
    ``--metrics-port``.

    Entering the session turns tracing on (when ``--trace`` was given)
    and starts the ``/metrics`` endpoint (when ``--metrics-port`` was
    given) over a private registry; exiting dumps the span tree and
    stops the endpoint.  Commands call :meth:`register` with their
    metrics records so the endpoint can scrape them live.  With
    neither flag present every method is a no-op.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path = getattr(args, "trace", None)
        self.metrics_port = getattr(args, "metrics_port", None)
        self._server = None

    def __enter__(self) -> "_ObsSession":
        if self.trace_path is not None:
            from repro.obs import get_tracer, set_tracing

            get_tracer().clear()
            set_tracing(True)
        if self.metrics_port is not None:
            from repro.obs import MetricsRegistry, MetricsServer

            self._server = MetricsServer(
                MetricsRegistry(), port=self.metrics_port
            )
            bound = self._server.start()
            print(
                f"metrics endpoint: http://127.0.0.1:{bound}/metrics",
                file=sys.stderr,
            )
        return self

    def register(self, record) -> None:
        """Expose a metrics record on the ``/metrics`` endpoint."""
        if self._server is None or record is None:
            return
        from repro.obs import register_record

        register_record(self._server.registry, record)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.trace_path is not None:
            from repro.obs import dump_spans, get_tracer, set_tracing

            set_tracing(False)
            n_spans = dump_spans(self.trace_path)
            get_tracer().clear()
            print(
                f"trace: wrote {n_spans} span(s) to {self.trace_path} "
                f"(pretty-print with 'ratio-rules obs dump')",
                file=sys.stderr,
            )
        if self._server is not None:
            self._server.stop()
            self._server = None


def _print_stats(title: str, record) -> None:
    """One ``--stats`` block: a blank line, the underlined title, the record."""
    print()
    print(title)
    print("-" * len(title))
    print(record.render())


def _obs_register(args: argparse.Namespace, record) -> None:
    """Register a metrics record with the run's observability session."""
    session = getattr(args, "_obs", None)
    if session is not None:
        session.register(record)


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.engine import ScanFaultError
    from repro.core.model import RatioRuleModel
    from repro.core.parallel import fit_sharded

    cutoff = _parse_cutoff(args.cutoff)
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    wants_engine = (
        args.executor != "auto"
        or args.workers is not None
        or args.max_retries > 0
        or args.chunk_timeout is not None
        or args.on_bad_chunk != "raise"
        or args.checkpoint is not None
        or args.target_chunks is not None
        or args.min_chunk_bytes is not None
    )
    if wants_engine:
        # Route through the out-of-core scan engine, which splits the
        # file into chunks, scans them on the requested fabric, and
        # applies the retry/quarantine/checkpoint policy.
        try:
            model = fit_sharded(
                [args.data],
                cutoff=cutoff,
                backend=args.backend,
                executor=args.executor,
                max_workers=args.workers,
                max_retries=args.max_retries,
                chunk_timeout=args.chunk_timeout,
                on_bad_chunk=args.on_bad_chunk,
                checkpoint=args.checkpoint,
                resume=args.resume,
                target_chunks=args.target_chunks,
                min_chunk_bytes=args.min_chunk_bytes,
                shm_handoff=not args.no_shm_handoff,
            )
        except ScanFaultError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if args.checkpoint is not None:
                print(
                    f"note: finished chunks are checkpointed in "
                    f"{args.checkpoint}; rerun with --resume to continue",
                    file=sys.stderr,
                )
            return 3
    else:
        model = RatioRuleModel(cutoff=cutoff, backend=args.backend)
        model.fit(args.data)
    _obs_register(args, model.metrics_)
    if model.metrics_ is not None and model.metrics_.n_quarantined:
        print(
            f"warning: quarantined {model.metrics_.n_quarantined} bad "
            f"chunk(s) ({model.metrics_.rows_quarantined} row(s) / "
            f"{model.metrics_.bytes_quarantined} byte(s) skipped); the "
            f"model was fitted on the surviving data",
            file=sys.stderr,
        )
    print(
        f"Mined {model.k} Ratio Rules from {model.n_rows_} rows x "
        f"{model.schema_.width} attributes "
        f"({model.rules_.total_energy_fraction():.1%} of variance)."
    )
    print()
    print(model.describe())
    if args.stats and model.metrics_ is not None:
        _print_stats("Scan statistics", model.metrics_)
    if args.save:
        model.save(args.save)
        print(f"\nModel saved to {args.save}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.core.interpret import interpret_rules, loading_table
    from repro.core.model import RatioRuleModel

    model = RatioRuleModel.load(args.model)
    if args.json:
        print(model.rules_.to_json())
        return 0
    if args.table:
        print(loading_table(model.rules_))
        return 0
    print(loading_table(model.rules_))
    print()
    for interpretation in interpret_rules(model.rules_):
        print(interpretation.narrative())
    return 0


def _cmd_fill(args: argparse.Namespace) -> int:
    from repro.core.model import RatioRuleModel
    from repro.io.csv_format import save_csv_matrix

    model = RatioRuleModel.load(args.model)
    matrix, schema = _load_csv_with_holes(args.data)
    if schema.names != model.schema_.names:
        print(
            f"error: column mismatch between model ({model.schema_.names}) "
            f"and data ({schema.names})",
            file=sys.stderr,
        )
        return 2
    n_holes = int(np.isnan(matrix).sum())
    filled = model.fill(matrix)
    if args.output:
        save_csv_matrix(args.output, filled, schema)
        print(f"Filled {n_holes} holes; wrote {args.output}")
    else:
        print(",".join(schema.names))
        for row in filled:
            print(",".join(f"{value:g}" for value in row))
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.core.model import RatioRuleModel
    from repro.io.csv_format import save_csv_matrix
    from repro.serve import BatchFiller, ModelRegistry

    try:
        store, tenant = _open_store(args)
        if args.model is None and store is None:
            raise ValueError("provide a model file, --store, or both")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if store is not None:
        # Serve out of the durable tier: recover the tenant's latest
        # stored version; a model file, if also given, is published
        # into the store first (and becomes that latest version).
        registry = ModelRegistry(store=store, namespace=tenant)
        if args.model is not None:
            registry.publish(
                RatioRuleModel.load(args.model), allow_schema_change=True
            )
        if registry.latest_version == 0:
            print(
                f"error: tenant {tenant!r} has no published models in "
                f"store {args.store}",
                file=sys.stderr,
            )
            return 2
        source = registry
        model = registry.current().model
    else:
        model = RatioRuleModel.load(args.model)
        source = model
    matrix, schema = _load_csv_with_holes(args.data)
    if schema.names != model.schema_.names:
        print(
            f"error: column mismatch between model ({model.schema_.names}) "
            f"and data ({schema.names})",
            file=sys.stderr,
        )
        return 2
    if args.batch_size is not None and args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2

    filler = BatchFiller(
        source,
        cache_entries=args.cache_entries,
        underdetermined=args.underdetermined,
    )
    _obs_register(args, filler.metrics)
    if store is not None:
        _obs_register(args, store.metrics)
    batch_size = args.batch_size or max(len(matrix), 1)
    pieces = []
    for start in range(0, len(matrix), batch_size):
        result = filler.fill_batch(matrix[start:start + batch_size])
        pieces.append(result.filled)
    filled = np.vstack(pieces) if pieces else matrix
    n_holes = int(np.isnan(matrix).sum())

    if args.output:
        save_csv_matrix(args.output, filled, schema)
        print(
            f"Served {len(matrix)} row(s) ({n_holes} hole(s) filled) from "
            f"model version {filler.registry.latest_version}; "
            f"wrote {args.output}"
        )
    else:
        print(",".join(schema.names))
        for row in filled:
            print(",".join(f"{value:g}" for value in row))
    if args.stats:
        _print_stats("Serving statistics", filler.metrics)
        if store is not None:
            _print_stats("Model store statistics", store.metrics)
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import threading

    from repro.core.model import RatioRuleModel
    from repro.serve.http import HttpApiServer

    try:
        store, tenant = _open_store(args)
        if args.model is None and store is None:
            raise ValueError("provide a model file, --store, or both")
        model = (
            RatioRuleModel.load(args.model)
            if args.model is not None
            else None
        )
        server = HttpApiServer(
            model,
            store=store,
            tenant=tenant,
            host=args.host,
            port=args.port,
            max_batch_rows=args.max_batch_rows,
            flush_margin=args.flush_margin_ms / 1e3,
            queue_limit=args.queue_limit,
            default_timeout_ms=args.default_timeout_ms,
            cache_entries=args.cache_entries,
            underdetermined=args.underdetermined,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _obs_register(args, server.metrics)
    _obs_register(args, server.filler.metrics)
    if store is not None:
        _obs_register(args, store.metrics)
    bound = server.start()
    # Testing hook: expose the live server on the namespace so an
    # in-process harness can discover the ephemeral port.
    args._server = server
    where = (
        f"tenant {tenant!r} of store {args.store}"
        if store is not None
        else f"model version {server.registry.latest_version}"
    )
    print(
        f"serving Ratio Rules API on http://{args.host}:{bound} "
        f"({where}; Ctrl-C to stop)"
    )
    stop = getattr(args, "_stop_event", None)
    if stop is None:
        stop = threading.Event()
    try:
        stop.wait(timeout=args.duration)
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down", file=sys.stderr)
    finally:
        server.stop()
    if args.stats:
        _print_stats("HTTP serving statistics", server.metrics)
        if store is not None:
            _print_stats("Model store statistics", store.metrics)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        CSVTailSource,
        DriftDetector,
        IngestionPipeline,
        RefreshPolicy,
    )

    try:
        store, tenant = _open_store(args)
        source = CSVTailSource(
            args.data, follow=args.follow, on_bad_row=args.on_bad_row
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policy = RefreshPolicy(
        min_rows=args.min_rows,
        min_interval_seconds=args.min_interval,
        max_rows=args.max_rows,
    )
    detector = DriftDetector(
        reservoir_capacity=args.reservoir,
        ge_ratio=args.ge_ratio,
        angle_threshold_degrees=args.angle_threshold,
    )
    pipeline = IngestionPipeline(
        source,
        cutoff=_parse_cutoff(args.cutoff),
        backend=args.backend,
        block_rows=args.block_rows,
        batch_rows=args.batch_rows,
        decay=args.decay,
        policy=policy,
        detector=detector,
        registry=(
            None
            if store is None
            else _store_registry(store, tenant)
        ),
    )
    _obs_register(args, pipeline.metrics)
    if store is not None:
        _obs_register(args, store.metrics)
    registry = pipeline.registry
    last_version = 0

    def report_refreshes() -> None:
        nonlocal last_version
        if registry.latest_version > last_version:
            snapshot = registry.current()
            metrics = pipeline.metrics
            print(
                f"published version {snapshot.version} "
                f"({metrics.last_refresh_reason}): "
                f"{snapshot.model.k} rule(s) over "
                f"{snapshot.model.n_rows_:,} row(s), "
                f"fingerprint {snapshot.fingerprint}"
            )
            last_version = snapshot.version

    try:
        while True:
            empty_before = pipeline.metrics.n_empty_polls
            alive = pipeline.step()
            report_refreshes()
            if not alive:
                break
            if args.max_batches is not None and (
                pipeline.metrics.n_batches + pipeline.metrics.n_empty_polls
                >= args.max_batches
            ):
                break
            went_idle = pipeline.metrics.n_empty_polls > empty_before
            if args.follow and went_idle and args.poll_interval > 0.0:
                import time as _time

                _time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        print("\ninterrupted; finishing up", file=sys.stderr)
    if pipeline.metrics.rows_since_refresh > 0 or registry.latest_version == 0:
        try:
            pipeline.refresh_now(
                reason="initial" if registry.latest_version == 0 else "final"
            )
            report_refreshes()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.save:
        registry.current().model.save(args.save)
        print(f"Model saved to {args.save}")
    if args.stats:
        _print_stats("Pipeline statistics", pipeline.metrics)
    return 0


def _cmd_watch_run(args: argparse.Namespace) -> int:
    from repro.pipeline import CSVTailSource, RefreshPolicy
    from repro.serve.registry import ModelRegistry
    from repro.watch import (
        JsonlSink,
        NotificationManager,
        RoutingPolicy,
        RowQuarantine,
        StdoutSink,
        WatchDaemon,
        format_status,
    )

    try:
        store, tenant = _open_store(args)
        source = CSVTailSource(
            args.data, follow=args.follow, on_bad_row=args.on_bad_row
        )
        routing = RoutingPolicy(
            clean_sigmas=args.clean_sigmas,
            quarantine_sigmas=args.quarantine_sigmas,
            min_calibration_rows=args.min_calibration_rows,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = (
        ModelRegistry() if store is None else _store_registry(store, tenant)
    )
    if args.model is not None:
        from repro.core.model import RatioRuleModel

        if registry.latest_version == 0:
            registry.publish(RatioRuleModel.load(args.model))
        else:
            print(
                f"note: registry already serves version "
                f"{registry.latest_version}; ignoring --model",
                file=sys.stderr,
            )
    sinks = []
    if not args.quiet:
        sinks.append(StdoutSink())
    if args.events is not None:
        sinks.append(JsonlSink(args.events))
    quarantine_path = (
        args.quarantine
        if args.quarantine is not None
        else f"{args.data}.quarantine.jsonl"
    )
    daemon = WatchDaemon(
        source,
        quarantine=RowQuarantine(quarantine_path),
        policy=routing,
        registry=registry,
        cutoff=_parse_cutoff(args.cutoff),
        backend=args.backend,
        block_rows=args.block_rows,
        batch_rows=args.batch_rows,
        refresh_policy=RefreshPolicy(min_rows=args.min_rows),
    )
    daemon.notifier = NotificationManager(sinks, metrics=daemon.metrics)
    _obs_register(args, daemon.metrics)
    _obs_register(args, daemon.pipeline.metrics)
    if store is not None:
        _obs_register(args, store.metrics)

    def write_status() -> None:
        if args.status_file is not None:
            daemon.status().save(args.status_file)

    import time as _time

    daemon.start(
        max_batches=args.max_batches,
        idle_sleep=max(args.poll_interval, 0.0),
    )
    try:
        while daemon.running:
            write_status()
            _time.sleep(0.05)
    except KeyboardInterrupt:
        print("\ninterrupted; finishing up", file=sys.stderr)
    finally:
        daemon.stop()
    daemon.notifier.close()
    write_status()
    if args.stats:
        _print_stats("Watch statistics", daemon.metrics)
        _print_stats("Pipeline statistics", daemon.pipeline.metrics)
    if args.format == "json":
        print(format_status(daemon.status(), "json"))
    else:
        print()
        print(format_status(daemon.status(), "text"))
    return 0


def _cmd_watch_status(args: argparse.Namespace) -> int:
    import json

    from repro.watch import WatchStatus, format_status

    try:
        status = WatchStatus.load(args.status_file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_status(status, args.format))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    if args.watch_command == "run":
        return _cmd_watch_run(args)
    return _cmd_watch_status(args)


def _cmd_ge(args: argparse.Namespace) -> int:
    from repro.baselines.column_average import ColumnAverageBaseline
    from repro.core.guessing_error import guessing_error
    from repro.core.model import RatioRuleModel
    from repro.io.matrix_reader import open_matrix

    model = RatioRuleModel.load(args.model)
    reader = open_matrix(args.data)
    test_matrix = reader.read_matrix()

    baseline = ColumnAverageBaseline()
    baseline.means_ = model.means_
    baseline.schema_ = model.schema_
    baseline.n_rows_ = model.n_rows_

    report_rr = guessing_error(
        model, test_matrix, h=args.holes, max_hole_sets=args.max_hole_sets
    )
    report_col = guessing_error(
        baseline,
        test_matrix,
        h=args.holes,
        hole_sets=report_rr.hole_sets,
    )
    print(f"GE{args.holes} (Ratio Rules, k={model.k}): {report_rr.value:.4f}")
    print(f"GE{args.holes} (col-avgs):              {report_col.value:.4f}")
    if report_col.value > 0:
        print(f"RR / col-avgs: {100.0 * report_rr.value / report_col.value:.1f}%")
    return 0


def _cmd_outliers(args: argparse.Namespace) -> int:
    from repro.core.model import RatioRuleModel
    from repro.core.outliers import detect_cell_outliers, detect_row_outliers
    from repro.io.matrix_reader import open_matrix

    model = RatioRuleModel.load(args.model)
    matrix = open_matrix(args.data).read_matrix()
    names = model.schema_.names

    row_outliers = detect_row_outliers(model, matrix, n_sigmas=args.sigmas)
    print(f"Row outliers (> {args.sigmas:g} sigma off the rule hyper-plane): "
          f"{len(row_outliers)}")
    for outlier in row_outliers[: args.limit]:
        print(f"  row {outlier.row:5d}  residual {outlier.residual:12.4g}  "
              f"z = {outlier.z_score:.2f}")

    cell_outliers = detect_cell_outliers(model, matrix, n_sigmas=args.sigmas)
    print(f"\nCell outliers (> {args.sigmas:g} sigma reconstruction error): "
          f"{len(cell_outliers)}")
    for outlier in cell_outliers[: args.limit]:
        print(f"  row {outlier.row:5d}  {names[outlier.column]:<20} "
              f"actual {outlier.actual:12.4g}  predicted {outlier.predicted:12.4g}  "
              f"z = {outlier.z_score:+.2f}")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    from repro.core.cleaning import impute_missing, repair_corrupted
    from repro.core.model import RatioRuleModel
    from repro.io.csv_format import save_csv_matrix

    model = RatioRuleModel.load(args.model)
    matrix, schema = _load_csv_with_holes(args.data)
    if schema.names != model.schema_.names:
        print(
            f"error: column mismatch between model ({model.schema_.names}) "
            f"and data ({schema.names})",
            file=sys.stderr,
        )
        return 2
    imputation = impute_missing(model, matrix)
    cleaned = imputation.cleaned
    print(f"Imputed {imputation.n_repairs} missing cell(s).")
    if args.repair_sigmas is not None:
        repair = repair_corrupted(model, cleaned, n_sigmas=args.repair_sigmas)
        cleaned = repair.cleaned
        print(f"Repaired {repair.n_repairs} corrupted cell(s) "
              f"(threshold {args.repair_sigmas:g} sigma).")
        for row, column, old, new in repair.repairs[:10]:
            print(f"  row {row:5d}  {schema[column].name:<20} "
                  f"{old:12.4g} -> {new:12.4g}")
    save_csv_matrix(args.output, cleaned, schema)
    print(f"Wrote {args.output}")
    return 0


def _parse_assignments(pairs, *, label: str):
    parsed = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: {label} expects ATTR=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            parsed[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"error: non-numeric value in {pair!r}") from None
    return parsed


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.core.model import RatioRuleModel
    from repro.core.whatif import Scenario, evaluate_scenario

    model = RatioRuleModel.load(args.model)
    fixed = _parse_assignments(args.fixed, label="--set")
    scaled = _parse_assignments(args.scaled, label="--scale")
    if not fixed and not scaled:
        print("error: provide at least one --set or --scale", file=sys.stderr)
        return 2
    try:
        result = evaluate_scenario(model, Scenario(fixed=fixed, scaled=scaled))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = dict(zip(model.schema_.names, model.means_))
    print(f"Scenario result ({result.case}):")
    for name in model.schema_.names:
        marker = "  (assumed)" if name in result.specified else ""
        delta = result[name] - baseline[name]
        print(f"  {name:<24} {result[name]:12.4g}  ({delta:+.4g} vs baseline){marker}")
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.core.model import RatioRuleModel
    from repro.core.stability import bootstrap_stability
    from repro.io.matrix_reader import open_matrix

    model = RatioRuleModel.load(args.model)
    matrix = open_matrix(args.data).read_matrix()
    if matrix.shape[1] != model.schema_.width:
        print(
            f"error: data has {matrix.shape[1]} columns, model expects "
            f"{model.schema_.width}",
            file=sys.stderr,
        )
        return 2
    report = bootstrap_stability(model, matrix, n_resamples=args.resamples)
    print(report.describe())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.io.partitioned import PartitionedReader
    from repro.io.rowstore import RowStore, RowStoreError

    target = Path(args.target)
    if target.is_dir():
        try:
            reader = PartitionedReader(target)
        except RowStoreError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        failures = 0
        for shard in reader.shard_paths():
            try:
                verified = RowStore.verify(shard)
            except RowStoreError as exc:
                print(f"FAIL  {shard.name}: {exc}")
                failures += 1
                continue
            status = "OK   " if verified else "OK?  "  # '?' = legacy, no trailer
            print(f"{status} {shard.name}")
        print(
            f"{reader.n_shards} shard(s), {reader.n_rows} rows; "
            f"{failures} failure(s)"
        )
        return 1 if failures else 0

    try:
        verified = RowStore.verify(target)
    except RowStoreError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    if verified:
        print(f"OK: {target} (checksum verified)")
    else:
        print(f"OK: {target} (no checksum trailer; length consistent)")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.covariance import covariance_single_pass
    from repro.io.matrix_reader import open_matrix
    from repro.linalg.eigen import solve_eigensystem

    reader = open_matrix(args.data)
    scatter, means, n_rows = covariance_single_pass(reader)
    names = reader.schema.names
    n_cols = len(names)
    stds = np.sqrt(np.clip(np.diag(scatter), 0, None) / max(n_rows - 1, 1))

    print(f"{args.data}: {n_rows} rows x {n_cols} columns\n")
    name_width = max(len(n) for n in names)
    print(f"{'column':<{name_width}}  {'mean':>12}  {'stddev':>12}")
    for j, name in enumerate(names):
        print(f"{name:<{name_width}}  {means[j]:>12.4g}  {stds[j]:>12.4g}")

    # Strongest correlations.
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.outer(stds, stds) * max(n_rows - 1, 1)
        correlation = np.where(denom > 0, scatter / denom, 0.0)
    pairs = []
    for i in range(n_cols):
        for j in range(i + 1, n_cols):
            pairs.append(
                (abs(correlation[i, j]), correlation[i, j], names[i], names[j])
            )
    pairs.sort(reverse=True)
    if pairs:
        print(f"\nStrongest correlations (top {args.top_correlations}):")
        for _mag, value, name_a, name_b in pairs[: args.top_correlations]:
            print(f"  {name_a} ~ {name_b}: {value:+.3f}")

    # Energy curve and the 85% suggestion.
    eigen = solve_eigensystem(scatter)
    fractions = eigen.energy_fractions()
    suggested = int(np.searchsorted(fractions, 0.85 - 1e-12) + 1)
    curve = "  ".join(
        f"k={k + 1}:{fractions[k]:.0%}" for k in range(min(n_cols, 6))
    )
    print(f"\nEigenvalue energy: {curve}")
    print(f"Suggested cutoff (85% rule, Eq. 1): k = {suggested}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_models
    from repro.core.model import RatioRuleModel

    model_a = RatioRuleModel.load(args.model_a)
    model_b = RatioRuleModel.load(args.model_b)
    try:
        comparison = compare_models(model_a, model_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(comparison.describe())
    return 1 if comparison.is_drifted(
        angle_threshold_degrees=args.angle_threshold
    ) else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import get_experiment, list_experiments
    from repro.experiments.report import render_markdown

    if args.id == "all":
        ids = list(list_experiments())
    else:
        ids = [args.id]
    exit_code = 0
    results = []
    for experiment_id in ids:
        run = get_experiment(experiment_id)
        result = run(seed=args.seed)
        results.append(result)
        print(result.render())
        print()
        if not result.all_claims_upheld():
            exit_code = 1
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(render_markdown(results))
        print(f"Markdown report written to {args.markdown}")
    return exit_code


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.io.csv_format import save_csv_matrix

    dataset = load_dataset(args.dataset, seed=args.seed)
    save_csv_matrix(args.output, dataset.matrix, dataset.schema)
    print(
        f"Wrote {dataset.n_rows} x {dataset.n_cols} {args.dataset} matrix "
        f"to {args.output}"
    )
    return 0


def _render_metrics_dump(payload: dict) -> str:
    """Flat ``name{labels} value`` rendering of a metrics JSON scrape."""
    lines = []
    for family in payload.get("families", []):
        for sample in family.get("samples", []):
            labels = sample.get("labels") or {}
            label_text = (
                "{"
                + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                + "}"
                if labels
                else ""
            )
            lines.append(f"{family['name']}{label_text} {sample['value']:g}")
        for histogram in family.get("histograms", []):
            labels = histogram.get("labels") or {}
            label_text = (
                " " + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                if labels
                else ""
            )
            lines.append(
                f"{family['name']}{label_text} histogram: "
                f"count {histogram['count']}, sum {histogram['sum']:g}"
            )
            for bucket in histogram.get("buckets", []):
                lines.append(f"  le {bucket['le']:>10}: {bucket['count']}")
    return "\n".join(lines)


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.tracing import render_span_tree

    try:
        with open(args.path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if isinstance(payload, dict) and "spans" in payload:
            print(render_span_tree(payload))
            return 0
        if isinstance(payload, dict) and "families" in payload:
            print(_render_metrics_dump(payload))
            return 0
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    print(
        f"error: {args.path} is neither a span trace (expected a 'spans' "
        f"key) nor a metrics scrape (expected a 'families' key)",
        file=sys.stderr,
    )
    return 2


_COMMANDS = {
    "fit": _cmd_fit,
    "rules": _cmd_rules,
    "fill": _cmd_fill,
    "serve-batch": _cmd_serve_batch,
    "serve-http": _cmd_serve_http,
    "pipeline": _cmd_pipeline,
    "watch": _cmd_watch,
    "ge": _cmd_ge,
    "outliers": _cmd_outliers,
    "clean": _cmd_clean,
    "whatif": _cmd_whatif,
    "inspect": _cmd_inspect,
    "stability": _cmd_stability,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "generate": _cmd_generate,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with _ObsSession(args) as session:
        args._obs = session
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
