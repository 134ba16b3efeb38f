"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.protocol == "mixed"
        assert args.sites == 4

    def test_sweep_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_arguments(self):
        args = build_parser().parse_args(["sweep", "--experiment", "e2", "--sizes", "1", "3"])
        assert args.experiment == "e2"
        assert args.sizes == [1, 3]


class TestRunCommand:
    @pytest.mark.parametrize("protocol", ["2PL", "T/O", "PA", "mixed", "dynamic"])
    def test_run_each_method(self, protocol, capsys):
        exit_code = main(
            [
                "run",
                "--protocol", protocol,
                "--sites", "2",
                "--items", "16",
                "--transactions", "30",
                "--arrival-rate", "20",
                "--seed", "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mean_system_time" in captured.out
        assert "serializable" in captured.out

    def test_run_with_switching_and_no_semi_locks(self, capsys):
        exit_code = main(
            [
                "run",
                "--protocol", "mixed",
                "--sites", "2",
                "--items", "12",
                "--transactions", "30",
                "--switch-after", "2",
                "--no-semi-locks",
                "--seed", "6",
            ]
        )
        assert exit_code == 0
        assert "committed" in capsys.readouterr().out


class TestSweepCommand:
    def test_e1_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e1",
                "--rates", "10", "30",
                "--sites", "2",
                "--items", "16",
                "--transactions", "25",
                "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "2PL" in out and "PA" in out
        assert "mean_system_time" in out

    def test_e3_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e3",
                "--sites", "2",
                "--items", "16",
                "--transactions", "25",
                "--arrival-rate", "30",
                "--seed", "8",
            ]
        )
        assert exit_code == 0
        assert "protocol" in capsys.readouterr().out

    def test_e6_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e6",
                "--sites", "2",
                "--items", "16",
                "--transactions", "25",
                "--seed", "9",
            ]
        )
        assert exit_code == 0
        assert "enforcement" in capsys.readouterr().out

    def test_e7_sweep(self, capsys):
        exit_code = main(["sweep", "--experiment", "e7"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stl_prime_dp" in out and "naive_calls" in out

    def test_e8_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e8",
                "--sites", "2",
                "--items", "16",
                "--transactions", "25",
                "--seed", "9",
            ]
        )
        assert exit_code == 0
        assert "switching" in capsys.readouterr().out

    def test_e9_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e9",
                "--scenarios", "mix-flip",
                "--transactions", "40",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "post_drift_mean_system_time" in out
        assert "adaptive" in out and "frozen" in out

    def test_e10_sweep(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e10",
                "--scenarios", "site-blackout",
                "--transactions", "40",
                "--jobs", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "one-phase" in out and "two-phase" in out
        assert "lost_writes" in out and "atomic" in out

    def test_run_accepts_the_commit_flag(self, capsys):
        exit_code = main(
            [
                "run",
                "--commit", "two-phase",
                "--sites", "2",
                "--items", "16",
                "--transactions", "20",
                "--protocol", "2PL",
                "--seed", "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "commit_protocol" in out and "two-phase" in out

    def test_sweep_with_jobs_matches_serial_output(self, capsys):
        argv = [
            "sweep",
            "--experiment", "e1",
            "--rates", "10", "30",
            "--sites", "2",
            "--items", "16",
            "--transactions", "25",
            "--seed", "7",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sweep_accepts_access_pattern_and_arrival_process(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--experiment", "e1",
                "--rates", "20",
                "--sites", "2",
                "--items", "16",
                "--transactions", "25",
                "--access-pattern", "zipfian",
                "--arrival-process", "bursty",
                "--seed", "4",
            ]
        )
        assert exit_code == 0
        assert "mean_system_time" in capsys.readouterr().out


class TestScenarioCommand:
    def test_list_scenarios(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "zipf-hotspot" in out
        assert "bursty-arrivals" in out

    def test_missing_name_is_a_usage_error(self, capsys):
        assert main(["scenario"]) == 2
        assert "scenario" in capsys.readouterr().out

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert main(["scenario", "no-such-profile"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    # The acceptance criterion: at least four of the new named scenarios run
    # end-to-end through the CLI and pass the serializability audit.
    @pytest.mark.parametrize(
        "name",
        ["zipf-hotspot", "read-mostly-analytics", "bursty-arrivals", "site-skewed",
         "bimodal-churn", "hotspot-migration", "mix-flip", "load-ramp"],
    )
    def test_named_scenarios_run_serializable(self, name, capsys):
        exit_code = main(
            ["scenario", name, "--transactions", "30", "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert name in out
        assert "yes" in out  # the serializable column

    def test_scenario_jobs_output_byte_identical(self, capsys):
        argv = ["scenario", "site-skewed", "--transactions", "30", "--replications", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_scenario_windows_file(self, tmp_path, capsys):
        path = tmp_path / "windows.txt"
        argv = [
            "scenario", "mix-flip",
            "--transactions", "40",
            "--replications", "2",
            "--windows", str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        content = path.read_text(encoding="utf-8")
        assert "mix-flip · replication 0" in content
        assert "mix-flip · replication 1" in content
        assert "restart_probability" in content and "share_2PL" in content

    def test_scenario_windows_file_byte_identical_across_jobs(self, tmp_path, capsys):
        serial, parallel = tmp_path / "serial.txt", tmp_path / "parallel.txt"
        base = ["scenario", "load-ramp", "--transactions", "40", "--replications", "2"]
        assert main(base + ["--windows", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--windows", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()


class TestStoreFlags:
    def test_resume_without_store_is_a_usage_error(self, capsys):
        argv = ["sweep", "--experiment", "e3", "--transactions", "10", "--resume"]
        assert main(argv) == 2
        assert "--store" in capsys.readouterr().err

    def test_force_without_store_is_a_usage_error(self, capsys):
        argv = ["sweep", "--experiment", "e3", "--transactions", "10", "--force"]
        assert main(argv) == 2
        assert "--store" in capsys.readouterr().err

    def test_resume_with_missing_store_file_fails_fast(self, tmp_path, capsys):
        argv = [
            "sweep", "--experiment", "e3", "--transactions", "10",
            "--store", str(tmp_path / "absent.jsonl"), "--resume",
        ]
        assert main(argv) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resume_contradicts_force(self, tmp_path, capsys):
        argv = [
            "sweep", "--experiment", "e3", "--transactions", "10",
            "--store", str(tmp_path / "runs.jsonl"), "--resume", "--force",
        ]
        assert main(argv) == 2
        assert "contradicts" in capsys.readouterr().err

    def test_sweep_store_roundtrip_and_accounting(self, tmp_path, capsys):
        store_path = tmp_path / "runs.jsonl"
        argv = [
            "sweep", "--experiment", "e3", "--transactions", "20",
            "--sites", "2", "--items", "16", "--store", str(store_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert store_path.exists()
        assert "3 executed" in cold.err
        assert main(argv + ["--resume"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical table
        assert "3 reused" in warm.err
        assert "0 executed" in warm.err

    def test_force_reexecutes_cached_points(self, tmp_path, capsys):
        store_path = tmp_path / "runs.jsonl"
        argv = [
            "sweep", "--experiment", "e3", "--transactions", "20",
            "--sites", "2", "--items", "16", "--store", str(store_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        forced = capsys.readouterr()
        assert forced.out == first.out
        assert "3 executed" in forced.err
        assert "3 forced" in forced.err

    def test_scenario_store_roundtrip(self, tmp_path, capsys):
        store_path = tmp_path / "runs.jsonl"
        argv = [
            "scenario", "site-skewed", "--transactions", "30",
            "--replications", "2", "--store", str(store_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "2 executed" in cold.err
        assert main(argv + ["--jobs", "2"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "2 reused" in warm.err


class TestStoreCommand:
    def test_stats_and_table(self, tmp_path, capsys):
        store_path = tmp_path / "runs.jsonl"
        assert main(
            [
                "sweep", "--experiment", "e3", "--transactions", "20",
                "--sites", "2", "--items", "16", "--store", str(store_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["store", "stats", str(store_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out
        assert "3" in stats_out
        assert main(["store", "table", str(store_path)]) == 0
        table_out = capsys.readouterr().out
        assert "2PL" in table_out
        assert "T/O" in table_out
        assert "PA" in table_out
        assert "committed" in table_out

    def test_missing_store_file_is_an_error(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err
