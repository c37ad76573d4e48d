"""Tests for ``ratio-rules watch run`` / ``watch status``."""

from __future__ import annotations

import argparse
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.model import RatioRuleModel
from repro.io.schema import TableSchema
from repro.watch import JsonlSink, RowQuarantine, WatchStatus

from tests.conftest import make_regime_matrix

pytestmark = pytest.mark.watch

COLUMNS = ["bread", "milk", "butter"]
OUTLIER_ROW = [5.0, 500.0, -300.0]


def write_stream_csv(path, matrix):
    with open(path, "w") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def seed_model_file(tmp_path):
    train = make_regime_matrix(0, n_rows=400)
    model = RatioRuleModel(cutoff=1).fit(
        train, TableSchema.from_names(COLUMNS)
    )
    path = tmp_path / "seed.npz"
    model.save(path)
    return path


@pytest.fixture
def stream_csv(tmp_path):
    clean = make_regime_matrix(1, n_rows=300)
    matrix = np.vstack(
        [clean[:200], np.array([OUTLIER_ROW]), clean[200:]]
    )
    path = tmp_path / "stream.csv"
    write_stream_csv(path, matrix)
    return path


#: The flags 'pipeline' and 'watch run' share.
INGEST_FLAGS = (
    "--follow",
    "--poll-interval",
    "--batch-rows",
    "--block-rows",
    "--cutoff",
    "--backend",
    "--on-bad-row",
    "--min-rows",
    "--max-batches",
    "--stats",
)


def _subparser(parser, *names):
    """The parser of the subcommand path ``names`` under ``parser``."""
    for name in names:
        (action,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parser = action.choices[name]
    return parser


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["watch", "run", "data.csv"])
        assert args.watch_command == "run"
        assert args.clean_sigmas == 4.0
        assert args.quarantine_sigmas == 8.0
        assert args.format == "text"
        assert not args.follow

    def test_status_requires_a_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch", "status"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch"])

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["watch", "status", "s.json", "--format", "yaml"]
            )

    @pytest.mark.parametrize("flag", INGEST_FLAGS)
    def test_ingest_flags_match_pipeline(self, flag):
        parser = build_parser()
        pipeline = _subparser(parser, "pipeline")
        watch_run = _subparser(parser, "watch", "run")

        def declared(sub):
            action = sub._option_string_actions[flag]
            return (action.dest, action.default, action.choices, action.type)

        assert declared(pipeline) == declared(watch_run)
        dest = pipeline._option_string_actions[flag].dest
        assert getattr(parser.parse_args(["pipeline", "d.csv"]), dest) == getattr(
            parser.parse_args(["watch", "run", "d.csv"]), dest
        )


class TestWatchRun:
    def test_quarantines_and_reports(
        self, tmp_path, stream_csv, seed_model_file, capsys
    ):
        events = tmp_path / "events.jsonl"
        quarantine = tmp_path / "quarantine.jsonl"
        status_file = tmp_path / "status.json"
        rc = main(
            [
                "watch",
                "run",
                str(stream_csv),
                "--model",
                str(seed_model_file),
                "--quarantine",
                str(quarantine),
                "--events",
                str(events),
                "--status-file",
                str(status_file),
                "--clean-sigmas",
                "8",
                "--quarantine-sigmas",
                "8",
                "--batch-rows",
                "100",
                "--min-calibration-rows",
                "64",
                "--stats",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "watch-started" in out
        assert "row-quarantined" in out
        assert "Watch statistics" in out
        # The outlier is preserved bit-exactly in the quarantine.
        records = RowQuarantine(quarantine).read_all()
        assert len(records) == 1
        np.testing.assert_array_equal(
            RowQuarantine.decode_values(records[0]), OUTLIER_ROW
        )
        # Exactly one structured quarantine event in the JSONL sink.
        kinds = [e.kind for e in JsonlSink.read_events(events)]
        assert kinds.count("row-quarantined") == 1
        # The status file is a loadable snapshot of the finished run.
        status = WatchStatus.load(status_file)
        assert status.watch_metrics["rows_quarantined"] == 1
        assert status.model_version >= 1

    def test_quiet_suppresses_stdout_events(
        self, tmp_path, stream_csv, seed_model_file, capsys
    ):
        rc = main(
            [
                "watch",
                "run",
                str(stream_csv),
                "--model",
                str(seed_model_file),
                "--quarantine",
                str(tmp_path / "q.jsonl"),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[watch]" not in out  # no stdout event sink
        assert "state" in out  # the final status block still prints

    def test_json_format_prints_machine_status(
        self, tmp_path, stream_csv, seed_model_file, capsys
    ):
        rc = main(
            [
                "watch",
                "run",
                str(stream_csv),
                "--model",
                str(seed_model_file),
                "--quarantine",
                str(tmp_path / "q.jsonl"),
                "--quiet",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        payload = json.loads(lines[-1])
        assert payload["watch_metrics"]["rows_seen"] == 301

    def test_bootstraps_without_a_seed_model(
        self, tmp_path, stream_csv, capsys
    ):
        rc = main(
            [
                "watch",
                "run",
                str(stream_csv),
                "--quarantine",
                str(tmp_path / "q.jsonl"),
                "--min-rows",
                "100",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "version" in capsys.readouterr().out

    def test_missing_csv_is_a_clean_error(self, tmp_path, capsys):
        rc = main(
            [
                "watch",
                "run",
                str(tmp_path / "nope.csv"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_thresholds_are_a_clean_error(
        self, tmp_path, stream_csv, capsys
    ):
        rc = main(
            [
                "watch",
                "run",
                str(stream_csv),
                "--clean-sigmas",
                "9",
                "--quarantine-sigmas",
                "8",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestWatchStatusCommand:
    def test_renders_text_and_json(self, tmp_path, capsys):
        status = WatchStatus(
            running=False,
            model_version=2,
            watch_metrics={"rows_seen": 10, "rows_quarantined": 1},
        )
        path = tmp_path / "status.json"
        status.save(path)
        assert main(["watch", "status", str(path)]) == 0
        assert "version 2" in capsys.readouterr().out
        assert (
            main(["watch", "status", str(path), "--format", "json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_version"] == 2

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["watch", "status", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        path.write_text("{not json")
        rc = main(["watch", "status", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
