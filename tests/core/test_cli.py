"""Tests for the command-line interface."""

import numpy as np
import pytest

import repro.service
from repro.cli import build_parser, main
from repro.core.framework import Repository
from repro.service import QueryService, supervisor


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_ptile_defaults(self):
        args = build_parser().parse_args(["demo-ptile"])
        assert args.n == 40 and args.dim == 2 and args.theta == (0.2, 0.6)

    def test_demo_pref_args(self):
        args = build_parser().parse_args(["demo-pref", "--k", "3", "--tau", "0.5"])
        assert args.k == 3 and args.tau == 0.5

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lake-stats", "--family", "fractal"])

    def test_serve_engine_defaults_to_kd(self):
        assert build_parser().parse_args(["serve"]).engine == "kd"
        assert build_parser().parse_args(["serve", "--engine", "kd"]).engine == "kd"

    @pytest.mark.parametrize("engine", ["columnar", "rangetree"])
    def test_serve_refuses_every_other_engine(self, engine, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", engine])
        assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["snapshot", "build", "out.snap"], ["demo-mutation"]]
    )
    def test_commands_that_only_passed_an_engine_on_take_none(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--engine", "kd"])
        assert "unrecognized arguments: --engine kd" in capsys.readouterr().err

    def test_workers_help_says_worker_0_only_starts_as_the_writer(self, capsys):
        """After a writer death the supervisor promotes a sibling, so the
        help may not call worker 0 the writer."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "worker 0 starts as the writer" in text
        assert "lowest live sibling is promoted" in text
        assert "single writer" not in text


class TestCommands:
    def test_demo_ptile_runs_and_reports_recall(self, capsys):
        code = main(
            ["demo-ptile", "--n", "10", "--dim", "1", "--median-size", "150",
             "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recall" in out and "Ptile demo" in out

    def test_demo_pref_runs(self, capsys):
        code = main(
            ["demo-pref", "--n", "8", "--dim", "2", "--median-size", "150",
             "--k", "3", "--tau", "0.5", "--eps", "0.2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Pref demo" in out and "net directions" in out

    def test_lake_stats(self, capsys):
        code = main(["lake-stats", "--n", "4", "--dim", "2", "--median-size", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "synthetic lake" in out
        assert out.count("\n") >= 7  # header + 4 rows + separators


class TestServeFromSnapshot:
    """``serve --snapshot FILE --trace --slow-log MS`` on a file that was
    saved without either: the banner and the served service must agree."""

    @pytest.fixture()
    def snap(self, tmp_path):
        rng = np.random.default_rng(3)
        lake = [rng.uniform(size=(60, 1)) for _ in range(6)]
        path = tmp_path / "plain.snap"
        with QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, eps=0.2,
            sample_size=8, seed=3,
        ) as service:
            service.save(path)
        return str(path)

    @pytest.fixture()
    def served(self, monkeypatch):
        """What ``cmd_serve`` hands to ``serve`` instead of blocking on it."""
        got = []
        monkeypatch.setattr(
            repro.service, "serve", lambda service, **kw: got.append(service)
        )
        return got

    def test_flags_reach_the_loaded_service(self, snap, served, capsys):
        assert main(["serve", "--snapshot", snap, "--trace", "--slow-log", "5"]) == 0
        (service,) = served
        assert service.observability.tracing is True
        assert service.observability.slow_log.threshold_ms == 5.0
        assert service.stats()["observability"]["slow_query_threshold_ms"] == 5.0
        out = capsys.readouterr().out
        assert "tracing every batch" in out
        assert "slow-query log on: threshold 5.0 ms" in out

    def test_no_flags_keep_the_files_settings_and_a_quiet_banner(
        self, snap, served, capsys
    ):
        assert main(["serve", "--snapshot", snap]) == 0
        (service,) = served
        assert service.observability.tracing is False
        assert service.observability.slow_log.threshold_ms is None
        out = capsys.readouterr().out
        assert "tracing every batch" not in out and "slow-query log on" not in out

    def test_forked_workers_say_the_flags_do_not_reach_them(
        self, snap, monkeypatch, capsys
    ):
        monkeypatch.setattr(supervisor, "serve_forked", lambda *a, **kw: None)
        code = main(
            ["serve", "--snapshot", snap, "--workers", "2", "--trace",
             "--slow-log", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "--trace / --slow-log do not reach forked workers" in captured.err
        assert "tracing every batch" not in captured.out
        assert "slow-query log on" not in captured.out
