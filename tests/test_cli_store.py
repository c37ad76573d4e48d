"""Tests for the ``--store``/``--tenant``/``--keep-last`` CLI flags.

The durable tier's command-line surface: ``serve-batch`` and
``serve-http`` can mount a :class:`~repro.store.ModelStore` instead of
(or in addition to) a model file, and ``pipeline`` can publish every
refresh durably into a tenant namespace.
"""

import threading
import time

import numpy as np
import pytest

from repro.cli import _cmd_serve_http, build_parser, main
from repro.core.model import RatioRuleModel
from repro.io.csv_format import save_csv_matrix
from repro.io.schema import TableSchema
from repro.serve import ModelRegistry
from repro.store import DEFAULT_NAMESPACE, ModelStore

from tests.conftest import no_leaked_servers
from tests.serve.conftest import http_get, http_post

pytestmark = [pytest.mark.serve, pytest.mark.store]


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


@pytest.fixture
def holey_csv(tmp_path, train_matrix, rng):
    matrix = train_matrix[:20].copy()
    matrix[rng.random(matrix.shape) < 0.3] = np.nan
    path = tmp_path / "requests.csv"
    save_csv_matrix(path, matrix, SCHEMA)
    return path


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-batch", "m.npz", "d.csv"],
            ["serve-http", "m.npz"],
            ["pipeline", "d.csv"],
        ],
    )
    def test_store_flags_default_off(self, argv):
        args = build_parser().parse_args(argv)
        assert args.store is None
        assert args.tenant is None
        assert args.keep_last is None

    def test_store_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve-batch",
                "--store", "s",
                "--tenant", "acme/sales",
                "--keep-last", "3",
                "d.csv",
            ]
        )
        assert args.store == "s"
        assert args.tenant == "acme/sales"
        assert args.keep_last == 3
        # With a store the model positional becomes optional.
        assert args.model == "d.csv" or args.data == "d.csv"


class TestServeBatchStore:
    def test_model_file_is_published_into_the_store(
        self, model_file, holey_csv, store_dir, capsys
    ):
        assert main(
            [
                "serve-batch",
                str(model_file),
                str(holey_csv),
                "--store", str(store_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("a,b,c")
        assert ModelStore(store_dir).versions(DEFAULT_NAMESPACE) == [1]

    def test_serves_from_store_without_a_model_file(
        self, model_file, holey_csv, store_dir, tmp_path, capsys
    ):
        ModelStore(store_dir).publish(
            RatioRuleModel.load(model_file), namespace="acme"
        )
        out_path = tmp_path / "filled.csv"
        assert main(
            [
                "serve-batch",
                str(holey_csv),
                "--store", str(store_dir),
                "--tenant", "acme",
                "--output", str(out_path),
            ]
        ) == 0
        assert "model version 1" in capsys.readouterr().out
        assert out_path.exists()

    def test_store_only_run_matches_model_file_run(
        self, model_file, holey_csv, store_dir, tmp_path, capsys
    ):
        from_file = tmp_path / "file.csv"
        from_store = tmp_path / "store.csv"
        assert main(
            [
                "serve-batch", str(model_file), str(holey_csv),
                "--output", str(from_file),
            ]
        ) == 0
        ModelStore(store_dir).publish(RatioRuleModel.load(model_file))
        assert main(
            [
                "serve-batch", str(holey_csv),
                "--store", str(store_dir),
                "--output", str(from_store),
            ]
        ) == 0
        assert from_file.read_text() == from_store.read_text()

    def test_keep_last_trims_history(
        self, model_file, holey_csv, store_dir, train_matrix, capsys
    ):
        for cutoff in (1, 2, 1):
            store = ModelStore(store_dir)
            store.publish(
                RatioRuleModel(cutoff=cutoff).fit(train_matrix, SCHEMA)
            )
        assert main(
            [
                "serve-batch",
                str(model_file),
                str(holey_csv),
                "--store", str(store_dir),
                "--keep-last", "2",
            ]
        ) == 0
        assert ModelStore(store_dir).versions(DEFAULT_NAMESPACE) == [3, 4]

    def test_stats_include_the_store_section(
        self, model_file, holey_csv, store_dir, capsys
    ):
        assert main(
            [
                "serve-batch",
                str(model_file),
                str(holey_csv),
                "--store", str(store_dir),
                "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving statistics" in out
        assert "Model store statistics" in out

    def test_empty_tenant_is_an_error(self, holey_csv, store_dir, capsys):
        assert main(
            ["serve-batch", str(holey_csv), "--store", str(store_dir)]
        ) == 2
        err = capsys.readouterr().err
        assert "has no published models" in err

    def test_tenant_requires_store(self, model_file, holey_csv, capsys):
        assert main(
            [
                "serve-batch", str(model_file), str(holey_csv),
                "--tenant", "acme",
            ]
        ) == 2
        assert "--tenant requires --store" in capsys.readouterr().err

    def test_keep_last_requires_store(self, model_file, holey_csv, capsys):
        assert main(
            [
                "serve-batch", str(model_file), str(holey_csv),
                "--keep-last", "2",
            ]
        ) == 2
        assert "--keep-last requires --store" in capsys.readouterr().err

    def test_no_model_and_no_store_is_an_error(self, holey_csv, capsys):
        assert main(["serve-batch", str(holey_csv)]) == 2
        assert "provide a model file, --store, or both" in (
            capsys.readouterr().err
        )


class _RunningServer:
    """Drives ``_cmd_serve_http`` on a thread via its testing hooks."""

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


class TestServeHttpStore:
    def test_serves_tenants_from_the_store(
        self, model_file, store_dir, capsys
    ):
        model = RatioRuleModel.load(model_file)
        ModelStore(store_dir).publish(model, namespace="acme/sales")
        with _RunningServer(
            [
                "serve-http",
                "--store", str(store_dir),
                "--tenant", "acme/sales",
                "--port", "0",
                "--stats",
            ]
        ) as server:
            status, body, _ = http_post(
                server.url + "/v1/fill",
                {"row": [None, 4.0, 6.0], "timeout_ms": 2000},
            )
            assert status == 200
            assert body["fingerprint"] == model.fingerprint()
            status, listing, _ = http_get(server.url + "/v1/tenants")
            assert status == 200
            assert listing["default"] == "acme/sales"
        assert server.exit_code == 0
        out = capsys.readouterr().out
        assert f"tenant 'acme/sales' of store {store_dir}" in out
        assert "Model store statistics" in out

    def test_model_file_seeds_the_store(
        self, model_file, store_dir, capsys
    ):
        with _RunningServer(
            [
                "serve-http",
                str(model_file),
                "--store", str(store_dir),
                "--port", "0",
            ]
        ):
            pass
        registry = ModelRegistry(store=ModelStore(store_dir))
        assert registry.current().fingerprint == (
            RatioRuleModel.load(model_file).fingerprint()
        )

    def test_no_model_and_no_store_is_an_error(self, capsys):
        assert main(["serve-http"]) == 2
        assert "provide a model file, --store, or both" in (
            capsys.readouterr().err
        )

    def test_tenant_requires_store(self, model_file, capsys):
        assert main(
            ["serve-http", str(model_file), "--tenant", "acme"]
        ) == 2
        assert "--tenant requires --store" in capsys.readouterr().err


class TestPipelineStore:
    def test_refreshes_publish_durably(
        self, tmp_path, store_dir, train_matrix, capsys
    ):
        data = tmp_path / "stream.csv"
        save_csv_matrix(data, train_matrix, SCHEMA)
        assert main(
            [
                "pipeline",
                str(data),
                "--cutoff", "1",
                "--min-rows", "32",
                "--store", str(store_dir),
                "--tenant", "acme/sales",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "published version" in out
        # The publishes landed in the store; a cold registry (a whole
        # new serving process) recovers them without refitting.
        store = ModelStore(store_dir)
        versions = store.versions("acme/sales")
        assert versions and versions[-1] == len(versions)
        registry = ModelRegistry(store=store, namespace="acme/sales")
        assert registry.latest_version == versions[-1]
        assert registry.current().model.schema_.names == SCHEMA.names

    def test_tenant_requires_store(self, tmp_path, capsys):
        data = tmp_path / "stream.csv"
        data.write_text("a,b,c\n1,2,3\n")
        assert main(["pipeline", str(data), "--tenant", "acme"]) == 2
        assert "--tenant requires --store" in capsys.readouterr().err
