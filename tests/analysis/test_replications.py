"""Replicated runs and confidence-interval aggregation."""

import pytest

from repro.analysis.replications import AGGREGATED_METRICS
from repro.common.config import SystemConfig, WorkloadConfig
from repro.workload.scenarios import Scenario


@pytest.fixture(scope="module")
def tiny():
    """A replicated run of a tiny two-site configuration under one protocol."""

    def run(protocol, seeds):
        return Scenario(
            name="tiny",
            description="",
            system=SystemConfig(
                num_sites=2, num_items=16, deadlock_detection_period=0.1,
                restart_delay=0.02, seed=1,
            ),
            workload=WorkloadConfig(
                arrival_rate=25.0, num_transactions=25, min_size=1, max_size=4,
                compute_time=0.002, seed=2,
            ),
            protocol=protocol,
        ).run(seeds=seeds)

    return run


class TestRunReplicated:
    def test_aggregates_all_expected_metrics(self, tiny):
        result = tiny("2PL", (0, 1, 2))
        assert result.replications == 3
        assert set(result.metrics) == set(AGGREGATED_METRICS)
        assert result.all_serializable
        assert result.all_committed
        assert result.label == "tiny"
        assert len(result.summaries) == 3

    def test_confidence_interval_brackets_the_mean(self, tiny):
        metric = tiny("PA", (0, 1, 2)).metrics["mean_system_time"]
        assert metric.halfwidth >= 0.0
        assert metric.samples == 3
        assert metric.mean > 0

    def test_requires_at_least_one_seed(self, tiny):
        with pytest.raises(ValueError):
            tiny(None, ())

    def test_as_row_contains_mean_and_halfwidth_columns(self, tiny):
        row = tiny("2PL", (0, 1)).as_row()
        assert "mean_system_time" in row
        assert "mean_system_time_hw" in row
        assert row["replications"] == 2

    def test_different_seeds_produce_spread(self, tiny):
        assert tiny("2PL", (0, 1, 2, 3)).metrics["mean_system_time"].stdev >= 0.0
