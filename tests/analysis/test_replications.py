"""Replicated runs and confidence-interval aggregation."""

import pytest

from repro.analysis.replications import (
    AGGREGATED_METRICS,
    run_replicated,
)
from repro.common.config import SystemConfig, WorkloadConfig


@pytest.fixture(scope="module")
def tiny_system():
    return SystemConfig(num_sites=2, num_items=16, deadlock_detection_period=0.1,
                        restart_delay=0.02, seed=1)


@pytest.fixture(scope="module")
def tiny_workload():
    return WorkloadConfig(arrival_rate=25.0, num_transactions=25, min_size=1, max_size=4,
                          compute_time=0.002, seed=2)


class TestRunReplicated:
    def test_aggregates_all_expected_metrics(self, tiny_system, tiny_workload):
        result = run_replicated(tiny_system, tiny_workload, protocol="2PL", seeds=(0, 1, 2))
        assert result.replications == 3
        assert set(result.metrics) == set(AGGREGATED_METRICS)
        assert result.all_serializable
        assert result.all_committed

    def test_confidence_interval_brackets_the_mean(self, tiny_system, tiny_workload):
        result = run_replicated(tiny_system, tiny_workload, protocol="PA", seeds=(0, 1, 2))
        metric = result.metric("mean_system_time")
        assert metric.halfwidth >= 0.0
        assert metric.samples == 3
        assert metric.mean > 0

    def test_label_defaults(self, tiny_system, tiny_workload):
        replicated = run_replicated(tiny_system, tiny_workload, protocol="t/o", seeds=(0,))
        assert replicated.label == "T/O"
        assert run_replicated(tiny_system, tiny_workload, seeds=(0,)).label == "mixed"
        assert (
            run_replicated(tiny_system, tiny_workload, dynamic_selection=True, seeds=(0,)).label
            == "dynamic"
        )

    def test_requires_at_least_one_seed(self, tiny_system, tiny_workload):
        with pytest.raises(ValueError):
            run_replicated(tiny_system, tiny_workload, seeds=())

    def test_as_row_contains_mean_and_halfwidth_columns(self, tiny_system, tiny_workload):
        row = run_replicated(tiny_system, tiny_workload, protocol="2PL", seeds=(0, 1)).as_row()
        assert "mean_system_time" in row
        assert "mean_system_time_hw" in row
        assert row["replications"] == 2

    def test_different_seeds_produce_spread(self, tiny_system, tiny_workload):
        result = run_replicated(tiny_system, tiny_workload, protocol="2PL", seeds=(0, 1, 2, 3))
        assert result.metric("mean_system_time").stdev >= 0.0
