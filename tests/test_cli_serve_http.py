"""Tests for the ``serve-http`` CLI subcommand."""

import threading
import time

import numpy as np
import pytest

from repro.cli import _cmd_serve_http, build_parser, main
from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema
from repro.serve import BatchFiller

from tests.conftest import no_leaked_servers
from tests.serve.conftest import http_get, http_post

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_servers():
    """Every server and coalescer a test module starts is stopped by its end."""
    with no_leaked_servers():
        yield


SCHEMA = TableSchema.from_names(["a", "b", "c"])


@pytest.fixture
def train_matrix(rng):
    factor = rng.normal(5.0, 2.0, size=120)
    return np.outer(factor, [1.0, 2.0, 3.0]) + rng.normal(0, 0.05, (120, 3))


@pytest.fixture
def model_file(tmp_path, train_matrix):
    path = tmp_path / "model.npz"
    RatioRuleModel(cutoff=1).fit(train_matrix, SCHEMA).save(path)
    return path


class _RunningServer:
    """Drives ``_cmd_serve_http`` on a thread via its testing hooks
    (``_stop_event`` to end the serve loop, ``_server`` to discover
    the ephemeral port)."""

    def __init__(self, argv):
        self.args = build_parser().parse_args(argv)
        self.args._stop_event = threading.Event()
        self.exit_code = None
        self._thread = threading.Thread(target=self._run)

    def _run(self):
        self.exit_code = _cmd_serve_http(self.args)

    def __enter__(self):
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while not hasattr(self.args, "_server"):
            assert time.monotonic() < deadline, "server never came up"
            assert self._thread.is_alive(), "serve-http exited early"
            time.sleep(0.005)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.args._stop_event.set()
        self._thread.join(timeout=10.0)

    @property
    def url(self):
        return self.args._server.url


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve-http", "m.npz"])
        assert args.command == "serve-http"
        assert args.host == "127.0.0.1"
        assert args.port == 8090
        assert args.max_batch_rows == 64
        assert args.flush_margin_ms == 5.0
        assert args.queue_limit == 256
        assert args.default_timeout_ms == 1000.0
        assert args.cache_entries == 1024
        assert args.underdetermined == "truncate"
        assert args.duration is None
        assert args.stats is False

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-http", "m.npz", "--underdetermined", "zero"]
            )


class TestServeHttp:
    def test_serves_fill_requests_matching_offline(
        self, model_file, train_matrix, capsys
    ):
        model = RatioRuleModel.load(model_file)
        offline = BatchFiller(model).fill_batch(
            np.array([[np.nan, 4.0, 6.0]])
        )
        with _RunningServer(
            ["serve-http", str(model_file), "--port", "0"]
        ) as server:
            status, body, _ = http_post(
                server.url + "/v1/fill", {"row": [None, 4.0, 6.0]}
            )
            assert status == 200
            assert body["filled"] == [float(v) for v in offline.filled[0]]
            assert body["version"] == 1
            status, health, _ = http_get(server.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
        assert server.exit_code == 0
        out = capsys.readouterr().out
        assert "serving Ratio Rules API on http://127.0.0.1:" in out
        assert "model version 1" in out

    def test_stats_flag_renders_metrics(self, model_file, capsys):
        with _RunningServer(
            ["serve-http", str(model_file), "--port", "0", "--stats"]
        ) as server:
            status, _, _ = http_post(
                server.url + "/v1/fill", {"row": [None, 4.0, 6.0]}
            )
            assert status == 200
        assert server.exit_code == 0
        assert "HTTP serving statistics" in capsys.readouterr().out

    def test_duration_bounds_the_serve_loop(self, model_file, capsys):
        assert main(
            [
                "serve-http",
                str(model_file),
                "--port",
                "0",
                "--duration",
                "0.05",
            ]
        ) == 0
        assert "serving Ratio Rules API" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-batch-rows", "0"),
            ("--queue-limit", "0"),
            ("--flush-margin-ms", "-1"),
            ("--default-timeout-ms", "0"),
        ],
    )
    def test_invalid_tuning_is_an_error(
        self, model_file, flag, value, capsys
    ):
        assert main(["serve-http", str(model_file), flag, value]) == 2
        assert "error:" in capsys.readouterr().err
