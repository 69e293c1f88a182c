"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_parses(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_screen_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.recipe == "supreme"
        assert args.n_val == 24
        assert args.seed == 0

    def test_clean_budget_flag(self):
        args = build_parser().parse_args(["clean", "--budget", "5", "--recipe", "bank"])
        assert args.budget == 5
        assert args.recipe == "bank"

    def test_unknown_recipe_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", "--recipe", "imagenet"])

    def test_executor_flags_default_off(self):
        for command in ("screen", "clean"):
            args = build_parser().parse_args([command])
            assert args.n_jobs == 1
            assert args.backend == "auto"

    def test_executor_flags_parse(self):
        args = build_parser().parse_args(["clean", "--n-jobs", "4"])
        assert args.n_jobs == 4
        args = build_parser().parse_args(
            ["csv-screen", "--input", "x.csv", "--label", "y", "--n-jobs", "-1"]
        )
        assert args.n_jobs == -1

    def test_backend_flag_parses(self):
        for backend in ("auto", "sequential", "batch", "incremental"):
            args = build_parser().parse_args(["screen", "--backend", backend])
            assert args.backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", "--backend", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "sharded"],
            ["--tile-rows", "16"],
            ["--tile-candidates", "1024"],
        ],
    )
    def test_retired_sharded_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", *argv])

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen"],
            ["clean"],
            ["csv-screen", "--input", "x.csv", "--label", "y"],
            ["query"],
        ],
    )
    def test_no_cache_is_a_serve_flag_only(self, argv):
        # Only the served broker keeps a result cache worth switching off.
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--no-cache"])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8970
        assert args.recipe is None
        assert args.window_ms == 10.0
        assert args.max_batch == 16
        assert args.max_pending == 256
        assert args.ttl == 30.0
        assert args.backend == "auto"

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--recipe", "bank",
                "--dataset-name", "mine", "--window-ms", "2.5",
                "--max-batch", "64", "--max-pending", "8",
                "--backend", "incremental", "--n-jobs", "-1", "--no-cache",
            ]
        )
        assert args.port == 0 and args.recipe == "bank"
        assert args.dataset_name == "mine"
        assert args.window_ms == 2.5 and args.max_batch == 64
        assert args.max_pending == 8 and args.backend == "incremental"
        assert args.n_jobs == -1 and args.no_cache is True

    @pytest.mark.parametrize("flag", ["--max-batch", "--max-pending"])
    def test_serve_knobs_must_be_positive(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, "0"])
        assert f"{flag} must be a positive integer" in capsys.readouterr().err

    def test_serve_window_rejects_negative_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--window-ms", "-5"])
        assert "--window-ms must be >= 0" in capsys.readouterr().err
        assert build_parser().parse_args(["serve", "--window-ms", "0"]).window_ms == 0.0

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_ttl_must_be_positive_at_parse_time(self, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--ttl", value])
        assert "--ttl must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--window-ms", "--ttl"])
    @pytest.mark.parametrize("value", ["soon", "nan", "NaN"])
    def test_serve_float_flags_reject_non_numbers(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, value])
        assert f"{flag} must be a number" in capsys.readouterr().err

    def test_serve_rejects_unknown_recipe(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--recipe", "imagenet"])

    def test_serve_command_boots_and_answers(self):
        """`repro serve` end to end: boot on an ephemeral port as a
        subprocess, register nothing, hit /healthz, shut down."""
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.service import ServiceClient

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            assert match, f"no listen line in {line!r}"
            client = ServiceClient(match.group(1))
            assert client.wait_until_ready(timeout=15)["status"] == "ok"
            assert client.datasets() == []
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                raise


class TestSqlCommand:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(
            "age,height,cls\n"
            "32,170,1\n"
            "29,,0\n"
            ",180,1\n",
            encoding="utf-8",
        )
        return str(path)

    def test_sql_parser_defaults(self):
        args = build_parser().parse_args(
            ["sql", "--input", "x.csv", "--label", "cls", "--query", "SELECT * FROM T"]
        )
        assert args.engine == "auto"
        assert args.url is None
        assert args.limit == 20

    def test_sql_engine_choices(self):
        for engine in ("auto", "vectorized", "naive"):
            args = build_parser().parse_args(
                ["sql", "--input", "x.csv", "--label", "cls",
                 "--query", "SELECT * FROM T", "--engine", engine]
            )
            assert args.engine == engine
        for retired in ("gpu", "rowwise"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sql", "--input", "x.csv", "--label", "cls",
                     "--query", "SELECT * FROM T", "--engine", retired]
                )

    def test_sql_runs_and_reports_engine(self, csv_path, capsys):
        code = main(
            ["sql", "--input", csv_path, "--label", "cls",
             "--query", "SELECT age FROM people WHERE age < 30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: vectorized" in out
        assert "certain answers" in out

    def test_sql_engines_agree_on_output(self, csv_path, capsys):
        base = ["sql", "--input", csv_path, "--label", "cls",
                "--query", "SELECT age FROM t WHERE age < 30"]
        outputs = []
        for engine in ("vectorized", "naive"):
            assert main([*base, "--engine", engine]) == 0
            out = capsys.readouterr().out
            outputs.append(out[out.index("certain answers"):])
        assert outputs[0] == outputs[1]

    def test_sql_incapable_engine_is_exit_2(self, csv_path, capsys):
        # A self-join of a table with a NULL age scans one incomplete table
        # on both sides; only `naive` can serve it.
        code = main(
            ["sql", "--input", csv_path, "--label", "cls", "--engine", "vectorized",
             "--query", "SELECT a.age FROM t a JOIN t b ON a.age = b.age"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("plan error: ")
        assert "cannot serve" in err

    def test_sql_bad_query_is_exit_2(self, csv_path, capsys):
        code = main(
            ["sql", "--input", csv_path, "--label", "cls", "--query", "DELETE FROM t"]
        )
        assert code == 2
        assert "SQL error" in capsys.readouterr().err

    def test_sql_against_a_running_service(self, csv_path, capsys):
        from repro.service import DatasetRegistry, make_service

        server = make_service(DatasetRegistry())
        try:
            local = ["sql", "--input", csv_path, "--label", "cls",
                     "--query", "SELECT age FROM people WHERE age < 30"]
            assert main(local) == 0
            reference = capsys.readouterr().out
            assert main([*local, "--url", server.url]) == 0
            served = capsys.readouterr().out
            assert f"served by {server.url}" in served
            # Same certain/possible sections either way.
            assert served[served.index("certain answers"):] == (
                reference[reference.index("certain answers"):]
            )
        finally:
            server.close()


class TestFlagValidation:
    """Non-positive executor knobs must be rejected at parse time."""

    @pytest.mark.parametrize("value", ["0", "-2", "-100"])
    def test_n_jobs_rejects_zero_and_other_negatives(self, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", "--n-jobs", value])
        assert "--n-jobs must be a positive integer or -1" in capsys.readouterr().err

    def test_n_jobs_keeps_the_all_cpus_sentinel(self):
        args = build_parser().parse_args(["screen", "--n-jobs", "-1"])
        assert args.n_jobs == -1

    def test_n_jobs_rejects_non_integers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["screen", "--n-jobs", "two"])
        assert "--n-jobs must be an integer" in capsys.readouterr().err



class TestCommands:
    def test_demo_prints_figure6(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "[6, 2]" in out
        assert "None" in out

    def test_screen_reports_fraction(self, capsys):
        code = main(
            ["screen", "--n-train", "40", "--n-val", "8", "--n-test", "20", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "validation points certainly predicted" in out

    def test_clean_with_zero_budget(self, capsys):
        code = main(
            [
                "clean",
                "--n-train", "40",
                "--n-val", "8",
                "--n-test", "20",
                "--budget", "0",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CPClean: cleaned 0 rows" in out
        assert "RandomClean" in out

    def test_clean_small_run_end_to_end(self, capsys):
        code = main(
            ["clean", "--n-train", "40", "--n-val", "6", "--n-test", "20", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val CP'ed 100%" in out

    def test_executor_flags_do_not_change_results(self, capsys):
        base_args = ["--n-train", "40", "--n-val", "8", "--n-test", "20", "--seed", "1"]
        assert main(["screen", *base_args]) == 0
        reference = capsys.readouterr().out
        assert main(["screen", *base_args, "--n-jobs", "2"]) == 0
        assert capsys.readouterr().out == reference

    def test_backend_choice_does_not_change_results(self, capsys):
        base_args = ["--n-train", "40", "--n-val", "8", "--n-test", "20", "--seed", "1"]
        assert main(["screen", *base_args]) == 0
        reference = capsys.readouterr().out
        for backend in ("sequential", "batch", "incremental"):
            assert main(["screen", *base_args, "--backend", backend]) == 0
            assert capsys.readouterr().out == reference, backend

    def test_clean_backend_choice_does_not_change_results(self, capsys):
        base_args = [
            "--n-train", "40", "--n-val", "6", "--n-test", "20",
            "--seed", "1", "--budget", "3",
        ]
        assert main(["clean", *base_args]) == 0
        reference = capsys.readouterr().out
        assert main(["clean", *base_args, "--backend", "incremental"]) == 0
        assert capsys.readouterr().out == reference

    def test_batch_row_blocks_do_not_change_results(self, capsys, monkeypatch):
        from repro.core import batch_engine, planner

        base_args = ["--n-train", "40", "--n-val", "8", "--n-test", "20", "--seed", "1"]
        assert main(["screen", *base_args]) == 0
        reference = capsys.readouterr().out
        # One test point per executed block and per kernel call.
        monkeypatch.setattr(planner, "DENSE_BLOCK_BYTES", 1)
        monkeypatch.setattr(batch_engine, "PAIRWISE_BLOCK_BYTES", 1)
        blocked = [*base_args, "--backend", "batch"]
        assert main(["screen", *blocked]) == 0
        assert capsys.readouterr().out == reference
        assert main(["screen", *blocked, "--n-jobs", "2"]) == 0
        assert capsys.readouterr().out == reference
