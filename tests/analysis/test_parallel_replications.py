"""The parallel replication engine: determinism and parity with serial runs."""

import pytest

from repro.analysis.experiments import all_experiments, run_experiment
from repro.analysis.replications import SimulationTask, run_tasks
from repro.analysis.tables import rows_to_table
from repro.common.config import SystemConfig, WorkloadConfig
from repro.store import ResultStore
from repro.workload.scenarios import Scenario

TINY_SYSTEM = SystemConfig(
    num_sites=2, num_items=16, deadlock_detection_period=0.1, restart_delay=0.02, seed=1
)
TINY_WORKLOAD = WorkloadConfig(
    arrival_rate=25.0, num_transactions=25, min_size=1, max_size=4, compute_time=0.002, seed=2
)


@pytest.fixture(scope="module")
def tiny_system():
    return TINY_SYSTEM


@pytest.fixture(scope="module")
def tiny_workload():
    return TINY_WORKLOAD


class TestRunTasks:
    def test_results_arrive_in_task_order(self, tiny_system, tiny_workload):
        tasks = [
            SimulationTask(
                system=tiny_system,
                workload=tiny_workload.with_overrides(num_transactions=count),
            )
            for count in (5, 10, 15, 20)
        ]
        summaries = run_tasks(tasks, jobs=3)
        assert [summary["committed"] for summary in summaries] == [5, 10, 15, 20]

    def test_parallel_summaries_bit_identical_to_serial(self, tiny_system, tiny_workload):
        tasks = [
            SimulationTask(
                system=tiny_system.with_overrides(seed=seed),
                workload=tiny_workload.with_overrides(seed=seed + 1),
                protocol=protocol,
            )
            for seed in (0, 1)
            for protocol in ("2PL", "T/O", "PA")
        ]
        assert run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=4)

    def test_summary_carries_audit_fields(self, tiny_system, tiny_workload):
        (summary,) = run_tasks([SimulationTask(system=tiny_system, workload=tiny_workload)])
        assert set(summary["protocol_stats"]) == {"2PL", "T/O", "PA"}
        assert "non_2pl_deadlock_victims" in summary
        assert "deadlocks_found" in summary

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []


def _scenario(**mode):
    return Scenario(
        name="tiny", description="", system=TINY_SYSTEM, workload=TINY_WORKLOAD, **mode
    )


class TestReplicatedParity:
    def test_replicated_scenario_parallel_equals_serial(self):
        serial = _scenario(protocol="2PL").run(seeds=(0, 1, 2), jobs=1)
        parallel = _scenario(protocol="2PL").run(seeds=(0, 1, 2), jobs=3)
        assert serial == parallel

    def test_rendered_tables_byte_identical(self):
        """The acceptance criterion: --jobs N tables match --jobs 1 byte for byte."""
        def rows(jobs):
            return [
                _scenario(protocol=protocol).run(seeds=(0, 1), jobs=jobs).as_row()
                for protocol in ("2PL", "T/O", "PA")
            ]

        assert rows_to_table(rows(1)).encode() == rows_to_table(rows(4)).encode()

    def test_dynamic_selection_parity(self):
        serial = _scenario(dynamic_selection=True).run(seeds=(0, 1), jobs=1)
        parallel = _scenario(dynamic_selection=True).run(seeds=(0, 1), jobs=2)
        assert serial == parallel


#: Every simulation-backed experiment at a small size: the first scenario of
#: its suite, one replication seed.
SMALL = {
    "system": TINY_SYSTEM,
    "workload": TINY_WORKLOAD,
    "rates": (15.0,),
    "sizes": (1, 3),
    "transactions": 25,
    "seeds": (0,),
}


@pytest.mark.parametrize(
    "experiment",
    [experiment for experiment in all_experiments() if experiment.points is not None],
    ids=lambda experiment: experiment.id,
)
def test_serial_parallel_and_warm_store_rows_are_identical(experiment, tmp_path, monkeypatch):
    params = {**SMALL, "scenarios": experiment.params.get("scenarios", ())[:1]}
    serial = run_experiment(experiment.id, params)
    store = ResultStore(tmp_path / "runs.jsonl")
    assert run_experiment(experiment.id, params, jobs=2, store=store) == serial
    assert store.appended > 0

    def explode(task):
        raise AssertionError("a warm re-run must not execute any simulation task")

    monkeypatch.setattr("repro.analysis.replications.execute_task", explode)
    warm = ResultStore(store.path)
    assert run_experiment(experiment.id, params, store=warm) == serial
    assert warm.appended == 0 and warm.misses == 0
    assert warm.hits == store.appended
