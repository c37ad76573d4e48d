"""Tests for the CLI observability surface.

Covers the shared ``--trace`` / ``--metrics-port`` flags (parser
defaults, trace-file production, endpoint announcement, global-state
hygiene) and the ``obs dump`` pretty-printer for both payload kinds.
"""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.model import RatioRuleModel
from repro.io.csv_format import save_csv_matrix
from repro.io.schema import TableSchema
from repro.obs import MetricsRegistry, get_tracer, register_scan_metrics, to_json
from repro.obs.metrics import ScanMetrics
from tests.conftest import no_leaked_servers

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_servers():
    """Every metrics endpoint a test module starts is stopped by its end."""
    with no_leaked_servers():
        yield


SCHEMA = TableSchema.from_names(["a", "b", "c"])


@pytest.fixture
def train_csv(tmp_path, rng):
    factor = rng.normal(5.0, 2.0, size=150)
    matrix = np.outer(factor, [1.0, 2.0, 3.0]) + rng.normal(0, 0.05, (150, 3))
    path = tmp_path / "train.csv"
    save_csv_matrix(path, matrix, SCHEMA)
    return path


@pytest.fixture
def holey_csv(tmp_path, train_csv, rng):
    matrix = np.loadtxt(train_csv, delimiter=",", skiprows=1)[:20]
    matrix[rng.random(matrix.shape) < 0.3] = np.nan
    path = tmp_path / "requests.csv"
    save_csv_matrix(path, matrix, SCHEMA)
    return path


@pytest.fixture
def model_file(tmp_path, train_csv):
    matrix = np.loadtxt(train_csv, delimiter=",", skiprows=1)
    path = tmp_path / "model.npz"
    RatioRuleModel(cutoff=1).fit(matrix, SCHEMA).save(path)
    return path


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "d.csv"],
            ["serve-batch", "m.npz", "d.csv"],
            ["pipeline", "d.csv"],
        ],
    )
    def test_obs_flags_default_off(self, argv):
        args = build_parser().parse_args(argv)
        assert args.trace is None
        assert args.metrics_port is None

    def test_obs_dump_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "dump"])

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestTraceFlag:
    def test_fit_writes_trace_file(self, train_csv, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            [
                "fit",
                str(train_csv),
                "--executor",
                "serial",
                "--trace",
                str(trace),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "trace: wrote" in err
        assert str(trace) in err
        payload = json.loads(trace.read_text())
        names = {span["name"] for span in payload["spans"]}
        assert "engine.scan" in names
        assert "scan.chunk" in names

    def test_serve_batch_writes_trace_file(
        self, model_file, holey_csv, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(
            [
                "serve-batch",
                str(model_file),
                str(holey_csv),
                "--output",
                str(tmp_path / "out.csv"),
                "--trace",
                str(trace),
            ]
        ) == 0
        names = {
            span["name"] for span in json.loads(trace.read_text())["spans"]
        }
        assert any(name.startswith("serve.") for name in names)

    def test_trace_leaves_global_tracer_clean(self, train_csv, tmp_path):
        main(
            [
                "fit",
                str(train_csv),
                "--executor",
                "serial",
                "--trace",
                str(tmp_path / "trace.json"),
            ]
        )
        tracer = get_tracer()
        assert not tracer.enabled
        assert tracer.spans() == []

    def test_without_flag_no_trace_side_effects(self, train_csv, capsys):
        assert main(["fit", str(train_csv)]) == 0
        assert "trace:" not in capsys.readouterr().err
        assert get_tracer().spans() == []


class TestMetricsPortFlag:
    def test_fit_announces_endpoint_on_stderr(self, train_csv, capsys):
        assert main(
            ["fit", str(train_csv), "--metrics-port", "0"]
        ) == 0
        err = capsys.readouterr().err
        assert "metrics endpoint: http://127.0.0.1:" in err
        # An ephemeral port was bound, not the literal 0.
        port = int(err.split("127.0.0.1:")[1].split("/")[0])
        assert port != 0

    def test_endpoint_stops_after_run(self, train_csv, capsys):
        import urllib.error
        import urllib.request

        assert main(
            ["fit", str(train_csv), "--metrics-port", "0"]
        ) == 0
        err = capsys.readouterr().err
        url = "http://" + err.split("http://")[1].split()[0]
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=1)


class TestObsDump:
    def test_dump_renders_span_trace(self, train_csv, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(
            [
                "fit",
                str(train_csv),
                "--executor",
                "serial",
                "--trace",
                str(trace),
            ]
        )
        capsys.readouterr()
        assert main(["obs", "dump", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "engine.scan" in out
        assert "scan.chunk" in out

    def test_dump_renders_metrics_scrape(self, tmp_path, capsys):
        registry = MetricsRegistry()
        register_scan_metrics(registry, ScanMetrics(n_rows=123))
        path = tmp_path / "metrics.json"
        path.write_text(to_json(registry))
        assert main(["obs", "dump", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_scan_n_rows" in out
        assert "123" in out

    def test_dump_missing_file_is_error(self, tmp_path, capsys):
        assert main(["obs", "dump", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dump_invalid_json_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        assert main(["obs", "dump", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dump_unrecognized_payload_is_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"something": "else"}))
        assert main(["obs", "dump", str(path)]) == 2
        assert "neither a span trace" in capsys.readouterr().err


class TestSessionRegistration:
    """``_ObsSession.register`` exposes any of the six records."""

    #: Record type -> a field family its scrape must hold.
    FAMILIES = {
        "ScanMetrics": "repro_scan_n_rows",
        "PipelineMetrics": "repro_pipeline_rows_ingested",
        "ServeMetrics": "repro_serve_n_batches",
        "ServeHttpMetrics": "repro_serve_http_n_requests",
        "StoreMetrics": "repro_store_n_publishes",
        "WatchMetrics": "repro_watch_rows_seen",
    }

    def _scrape(self, session):
        import urllib.request

        with urllib.request.urlopen(session._server.url, timeout=10) as reply:
            return reply.read().decode("utf-8")

    def test_every_record_type_reaches_the_endpoint(self, capsys):
        import argparse

        import repro.obs.metrics as metrics
        from repro.cli import _ObsSession

        args = argparse.Namespace(trace=None, metrics_port=0)
        with _ObsSession(args) as session:
            session.register(None)
            assert self._scrape(session) == "\n"  # None stays a no-op
            for type_name in self.FAMILIES:
                session.register(getattr(metrics, type_name)())
            text = self._scrape(session)
        for type_name, family in self.FAMILIES.items():
            assert f"# TYPE {family} counter" in text, type_name
            assert f"# HELP {family} {type_name} field" in text, type_name

    def test_register_without_endpoint_is_a_no_op(self):
        import argparse

        from repro.cli import _ObsSession

        args = argparse.Namespace(trace=None, metrics_port=None)
        with _ObsSession(args) as session:
            session.register(ScanMetrics())
            session.register(None)
            assert session._server is None
