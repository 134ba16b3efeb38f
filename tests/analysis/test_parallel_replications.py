"""The parallel replication engine: determinism and parity with serial runs."""

import pytest

from repro.analysis.experiments import (
    correctness_audit,
    semilock_ablation,
    sweep_arrival_rate,
)
from repro.analysis.replications import (
    SimulationTask,
    run_replicated,
    run_tasks,
)
from repro.analysis.tables import rows_to_table
from repro.common.config import SystemConfig, WorkloadConfig


@pytest.fixture(scope="module")
def tiny_system():
    return SystemConfig(num_sites=2, num_items=16, deadlock_detection_period=0.1,
                        restart_delay=0.02, seed=1)


@pytest.fixture(scope="module")
def tiny_workload():
    return WorkloadConfig(arrival_rate=25.0, num_transactions=25, min_size=1, max_size=4,
                          compute_time=0.002, seed=2)


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


class TestReplicatedParity:
    def test_run_replicated_parallel_equals_serial(self, tiny_system, tiny_workload):
        serial = run_replicated(tiny_system, tiny_workload, protocol="2PL",
                                seeds=(0, 1, 2), jobs=1)
        parallel = run_replicated(tiny_system, tiny_workload, protocol="2PL",
                                  seeds=(0, 1, 2), jobs=3)
        assert serial == parallel

    def test_rendered_tables_byte_identical(self, tiny_system, tiny_workload):
        """The acceptance criterion: --jobs N tables match --jobs 1 byte for byte."""
        def rows(jobs):
            return [
                run_replicated(
                    tiny_system, tiny_workload, protocol=protocol, seeds=(0, 1), jobs=jobs
                ).as_row()
                for protocol in ("2PL", "T/O", "PA")
            ]

        assert rows_to_table(rows(1)).encode() == rows_to_table(rows(4)).encode()

    def test_dynamic_selection_parity(self, tiny_system, tiny_workload):
        serial = run_replicated(tiny_system, tiny_workload, dynamic_selection=True,
                                seeds=(0, 1), jobs=1)
        parallel = run_replicated(tiny_system, tiny_workload, dynamic_selection=True,
                                  seeds=(0, 1), jobs=2)
        assert serial == parallel


class TestExperimentParity:
    def test_sweep_arrival_rate_parity(self, tiny_system, tiny_workload):
        serial = sweep_arrival_rate([10.0, 30.0], system=tiny_system,
                                    workload=tiny_workload, jobs=1)
        parallel = sweep_arrival_rate([10.0, 30.0], system=tiny_system,
                                      workload=tiny_workload, jobs=4)
        assert serial == parallel

    def test_correctness_audit_parity(self, tiny_system, tiny_workload):
        serial = correctness_audit(arrival_rates=(15.0,), system=tiny_system,
                                   workload=tiny_workload, jobs=1)
        parallel = correctness_audit(arrival_rates=(15.0,), system=tiny_system,
                                     workload=tiny_workload, jobs=3)
        assert serial == parallel
        assert all(row["serializable"] for row in serial)

    def test_semilock_ablation_parity(self, tiny_system, tiny_workload):
        serial = semilock_ablation(arrival_rate=20.0, system=tiny_system,
                                   workload=tiny_workload, jobs=1)
        parallel = semilock_ablation(arrival_rate=20.0, system=tiny_system,
                                     workload=tiny_workload, jobs=2)
        assert serial == parallel
