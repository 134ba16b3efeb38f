"""The named scenario registry and its end-to-end behaviour."""

import pytest

from repro.common.errors import ConfigurationError
from repro.workload.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
)

#: Scenarios that must exist for the CLI examples and DESIGN.md to hold.
EXPECTED_SCENARIOS = (
    "uniform-baseline",
    "zipf-hotspot",
    "read-mostly-analytics",
    "bursty-arrivals",
    "site-skewed",
    "bimodal-churn",
)

#: The fault-scenario family behind E10 (two-phase commit + site failures).
FAULT_SCENARIOS = (
    "site-blackout",
    "flaky-links",
    "crash-storm",
)


class TestRegistry:
    def test_expected_scenarios_registered(self):
        names = [scenario.name for scenario in all_scenarios()]
        for name in EXPECTED_SCENARIOS:
            assert name in names

    def test_descriptions_present(self):
        for scenario in all_scenarios():
            assert scenario.description

    def test_get_scenario_roundtrip(self):
        for scenario in all_scenarios():
            assert get_scenario(scenario.name).name == scenario.name

    def test_unknown_scenario_rejected_with_known_names(self):
        with pytest.raises(ConfigurationError, match="zipf-hotspot"):
            get_scenario("definitely-not-a-scenario")

    def test_scenario_rejects_protocol_and_dynamic_together(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", description="y", protocol="PA", dynamic_selection=True)

    def test_configured_overrides_do_not_mutate_the_registry(self):
        scenario = get_scenario("zipf-hotspot")
        shrunk = scenario.configured(transactions=10, arrival_rate=5.0)
        assert shrunk.workload.num_transactions == 10
        assert shrunk.workload.arrival_rate == 5.0
        assert get_scenario("zipf-hotspot").workload.num_transactions == 300

    def test_configured_without_overrides_returns_self(self):
        scenario = get_scenario("site-skewed")
        assert scenario.configured() is scenario


class TestScenarioRuns:
    @pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
    def test_every_scenario_runs_and_is_serializable(self, name):
        result = get_scenario(name).configured(transactions=30).run(seeds=(0,))
        assert result.label == name
        assert result.all_serializable
        assert result.all_committed

    @pytest.mark.parametrize("name", FAULT_SCENARIOS)
    def test_fault_scenarios_ride_out_their_failures(self, name):
        scenario = get_scenario(name)
        assert scenario.system.commit.protocol == "two-phase"
        assert scenario.system.faults is not None
        result = scenario.configured(transactions=40).run(seeds=(0,))
        assert result.label == name
        assert result.all_serializable
        assert result.all_committed

    def test_parallel_run_matches_serial_bit_for_bit(self):
        scenario = get_scenario("bursty-arrivals").configured(transactions=40)
        serial = scenario.run(seeds=(0, 1), jobs=1)
        parallel = scenario.run(seeds=(0, 1), jobs=2)
        assert serial == parallel
