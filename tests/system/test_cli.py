"""Command-line interface."""

import pytest

from repro.analysis.experiments import get_experiment
from repro.cli import _ignored_flags, _parse_cluster, build_parser, main
from repro.common.errors import ConfigurationError


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


class TestIgnoredFlagNote:
    """``sweep`` names the flags an experiment does not read, on stderr only."""

    @pytest.mark.parametrize(
        "experiment, flags, ignored",
        [
            ("e1", ["--arrival-rate", "5", "--rates", "10"], ["--arrival-rate"]),
            ("e2", ["--min-size", "1", "--sizes", "2"], ["--min-size"]),
            ("e3", ["--min-size", "1", "--hotspot", "0.3"], ["--min-size", "--hotspot"]),
            ("e4", ["--arrival-rate", "5", "--sizes", "2"], ["--arrival-rate", "--sizes"]),
            ("e5", ["--arrival-rate", "5"], ["--arrival-rate"]),
            ("e6", ["--no-semi-locks", "--seed", "3"], ["--no-semi-locks"]),
            ("e7", ["--sites", "3", "--jobs", "2"], ["--sites", "--jobs"]),
            ("e8", ["--switch-after", "3", "--hotspot", "0.2"], ["--switch-after", "--hotspot"]),
            ("e9", ["--sites", "2", "--seed", "3", "--transactions", "9"], ["--sites", "--seed"]),
            ("e10", ["--commit", "two-phase", "--scenarios", "x"], ["--commit"]),
            ("e11", ["--audit", "streaming", "--jobs", "2"], ["--audit"]),
            ("e12", ["--store", "runs.jsonl", "--commit", "presumed-abort"], ["--store"]),
        ],
    )
    def test_note_names_the_ignored_flags(self, experiment, flags, ignored):
        args = build_parser().parse_args(["sweep", "--experiment", experiment, *flags])
        assert _ignored_flags(args, get_experiment(experiment)) == ignored

    def test_flags_at_their_defaults_are_not_named(self):
        args = build_parser().parse_args(["sweep", "--experiment", "e9", "--sites", "4"])
        assert _ignored_flags(args, get_experiment("e9")) == []

    def test_note_goes_to_stderr_and_stdout_is_unchanged(self, capsys):
        argv = ["sweep", "--experiment", "e3", "--sites", "2", "--transactions", "20"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--min-size", "1", "--read-fraction", "0.2"]) == 0
        noted = capsys.readouterr()
        assert noted.out == plain.out
        assert plain.err == ""
        assert noted.err == "note: e3 ignores --min-size, --read-fraction\n"

    def test_e12_refuses_an_explicit_one_phase_commit(self, capsys):
        argv = ["sweep", "--experiment", "e12", "--commit", "one-phase", "--transactions", "5"]
        assert main(argv) == 2
        assert "one-phase" in capsys.readouterr().err


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


class TestClusterAddresses:
    BAD = "127.0.0.1:99999,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003"

    def test_serve_rejects_a_port_out_of_range(self, capsys):
        assert main(["serve", "--site", "0", "--cluster", self.BAD]) == 2
        assert "port must be in 1-65535" in capsys.readouterr().err

    def test_drive_rejects_a_port_out_of_range(self, capsys):
        assert main(["drive", "--cluster", self.BAD.replace(":99999", ":0")]) == 2
        assert "'127.0.0.1:0': port must be in 1-65535" in capsys.readouterr().err

    def test_parses_sites_in_order_with_int_ports(self):
        assert _parse_cluster("127.0.0.1:7000, localhost:7001") == {
            0: ("127.0.0.1", 7000),
            1: ("localhost", 7001),
        }

    def test_host_may_contain_colons(self):
        assert _parse_cluster("::1:7000") == {0: ("::1", 7000)}

    @pytest.mark.parametrize("port", [1, 65535])
    def test_port_range_ends_are_accepted(self, port):
        assert _parse_cluster(f"h:{port}") == {0: ("h", port)}

    @pytest.mark.parametrize("port", ["0", "65536", "99999"])
    def test_port_outside_range_is_rejected(self, port):
        with pytest.raises(ConfigurationError, match="port must be in 1-65535"):
            _parse_cluster(f"h:7000,h:{port}")

    @pytest.mark.parametrize("part", ["h", "h:", ":7000", "h:70a0", "h:-1", ""])
    def test_malformed_address_is_rejected(self, part):
        with pytest.raises(ConfigurationError, match="malformed cluster address"):
            _parse_cluster(f"h:7000,{part}")
