"""Resumability end-to-end: interrupted runs, warm stores, byte-identical tables."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import run_experiment
from repro.analysis.replications import replication_tasks, run_tasks
from repro.analysis.tables import rows_to_table
from repro.common.config import SystemConfig, WorkloadConfig
from repro.store import ResultStore

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def tiny_system():
    return SystemConfig(num_sites=2, num_items=16, deadlock_detection_period=0.1, seed=1)


@pytest.fixture(scope="module")
def tiny_workload():
    return WorkloadConfig(
        arrival_rate=25.0, num_transactions=12, min_size=1, max_size=3, seed=2
    )


class TestResumeProducesIdenticalTables:
    def test_interrupted_parallel_sweep_resumes_byte_identical(
        self, tmp_path, tiny_system, tiny_workload
    ):
        rates = (10.0, 30.0)
        params = {"system": tiny_system, "workload": tiny_workload, "rates": rates}
        fresh_rows = run_experiment("e1", params)
        fresh_table = rows_to_table(fresh_rows)

        # Interrupted run: only a prefix of the sweep made it into the store
        # before the (simulated) kill, and the final append was cut short.
        store = ResultStore(tmp_path / "runs.jsonl")
        run_experiment("e1", {**params, "rates": rates[:1]}, store=store)
        raw = store.path.read_bytes()
        store.path.write_bytes(raw[: len(raw) - 40])  # truncate mid-record

        resumed_store = ResultStore(tmp_path / "runs.jsonl")
        assert resumed_store.corrupt_lines == 1
        resumed_rows = run_experiment("e1", params, jobs=2, store=resumed_store)
        assert rows_to_table(resumed_rows) == fresh_table
        # The lost (truncated) point was re-run, the intact ones were reused.
        assert resumed_store.hits == 2
        assert resumed_store.appended == 4

    def test_warm_store_rerun_executes_zero_tasks(
        self, tmp_path, tiny_system, tiny_workload, monkeypatch
    ):
        rates = (10.0, 30.0)
        store = ResultStore(tmp_path / "runs.jsonl")
        params = {"system": tiny_system, "workload": tiny_workload, "rates": rates}
        first = run_experiment("e1", params, store=store)

        def explode(task):
            raise AssertionError("a warm re-run must not execute any simulation task")

        monkeypatch.setattr("repro.analysis.replications.execute_task", explode)
        warm_store = ResultStore(tmp_path / "runs.jsonl")
        again = run_experiment("e1", params, store=warm_store)
        assert rows_to_table(again) == rows_to_table(first)
        assert warm_store.appended == 0
        assert warm_store.hits == len(rates) * 3

    def test_replicated_scenario_resume_matches_serial(
        self, tmp_path, tiny_system, tiny_workload
    ):
        tasks = replication_tasks(tiny_system, tiny_workload, protocol="PA", seeds=(0, 1, 2))
        serial = run_tasks(tasks)
        store = ResultStore(tmp_path / "runs.jsonl")
        run_tasks(tasks[:2], store=store)  # partial first attempt
        resumed = run_tasks(tasks, store=ResultStore(store.path), jobs=2)
        assert resumed == serial


class TestResumeAfterSigkill:
    def test_sigkilled_cli_sweep_resumes_to_byte_identical_tables(self, tmp_path):
        """Kill a parallel sweep with SIGKILL, resume it, compare with serial.

        Whatever progress the killed process managed to persist — none, some
        points, or a torn final line — the resumed run must emit exactly the
        table a fresh serial run produces.
        """
        store_path = tmp_path / "runs.jsonl"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        arguments = [
            sys.executable,
            "-m",
            "repro.cli",
            "sweep",
            "--experiment",
            "e1",
            "--rates",
            "10",
            "30",
            "--transactions",
            "60",
            "--sites",
            "2",
            "--items",
            "16",
        ]
        fresh = subprocess.run(
            arguments, env=env, capture_output=True, text=True, check=True
        )

        victim = subprocess.Popen(
            arguments + ["--jobs", "2", "--store", str(store_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(0.35)  # long enough for some sweep points, short enough for a mid-run kill
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait()

        resumed = subprocess.run(
            arguments + ["--jobs", "2", "--store", str(store_path)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert resumed.stdout == fresh.stdout
        assert "store:" in resumed.stderr

        # And a third run over the now-complete store executes nothing.
        warm = subprocess.run(
            arguments + ["--store", str(store_path), "--resume"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert warm.stdout == fresh.stdout
        assert " 0 executed" in warm.stderr
