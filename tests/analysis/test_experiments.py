"""The experiment registry and the rows its entries produce (small sizes)."""

import pytest

from repro.analysis.experiments import all_experiments, get_experiment, run_experiment
from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError


@pytest.fixture(scope="module")
def tiny():
    return {
        "system": SystemConfig(
            num_sites=2, num_items=16, deadlock_detection_period=0.1, restart_delay=0.02, seed=3
        ),
        "workload": WorkloadConfig(
            arrival_rate=20.0, num_transactions=30, min_size=1, max_size=4,
            compute_time=0.002, seed=4,
        ),
    }


class TestRegistry:
    def test_ids_follow_the_index(self):
        assert [experiment.id for experiment in all_experiments()] == [
            f"e{number}" for number in range(1, 13)
        ]

    def test_unknown_id_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="known experiments"):
            get_experiment("e99")

    @pytest.mark.parametrize("experiment", all_experiments(), ids=lambda e: e.id)
    def test_entry_is_well_formed(self, experiment):
        # Either a grid with a row function, or a plain run; never both.
        assert (experiment.points is None) == (experiment.row is None)
        assert (experiment.points is None) != (experiment.run is None)
        # The bench only sizes parameters the experiment reads.
        assert set(experiment.bench) <= set(experiment.params)
        for field in experiment.overrides:
            assert field.split(".")[0] in experiment.params

    def test_overridden_fields_are_not_read(self):
        e1 = get_experiment("e1")
        assert e1.reads("rates") and e1.reads("workload.min_size")
        assert not e1.reads("workload.arrival_rate")
        assert not e1.reads("scenarios")

    def test_parameters_it_does_not_read_are_ignored(self, tiny):
        rows = run_experiment("e3", {**tiny, "transactions": 10, "rates": (1.0,)})
        assert [row["committed"] for row in rows] == [10, 10, 10]


class TestSweeps:
    def test_arrival_rate_sweep_row_structure(self, tiny):
        rows = run_experiment("e1", {**tiny, "rates": (10.0, 30.0)})
        assert len(rows) == 2 * 3
        for row in rows:
            assert row["serializable"] is True
            assert row["committed"] == tiny["workload"].num_transactions
            assert row["protocol"] in {"2PL", "T/O", "PA"}
            assert row["arrival_rate"] in (10.0, 30.0)

    def test_arrival_rate_sweep_with_dynamic_row(self, tiny):
        rows = run_experiment("e5", {**tiny, "rates": (15.0,)})
        protocols = {row["protocol"] for row in rows}
        assert protocols == {"2PL", "T/O", "PA", "dynamic"}

    def test_transaction_size_sweep(self, tiny):
        rows = run_experiment("e2", {**tiny, "sizes": (1, 3)})
        assert len(rows) == 2 * 3
        assert {row["transaction_size"] for row in rows} == {1, 3}
        assert all(row["serializable"] for row in rows)


class TestScenarioExperiments:
    def test_single_item_write_experiment(self, tiny):
        rows = run_experiment(
            "e3", {"system": tiny["system"], "arrival_rate": 20.0, "transactions": 25}
        )
        assert len(rows) == 3
        by_protocol = {row["protocol"]: row for row in rows}
        # Single-item write-only transactions cannot deadlock under 2PL.
        assert by_protocol["2PL"]["deadlock_aborts"] == 0
        assert all(row["serializable"] for row in rows)

    def test_correctness_audit_upholds_theorems(self, tiny):
        rows = run_experiment("e4", {**tiny, "rates": (25.0,)})
        assert len(rows) == 3
        for row in rows:
            assert row["serializable"] is True
            assert row["pa_restarts"] == 0
            assert row["to_deadlock_aborts"] == 0
            assert row["non_2pl_deadlock_victims"] == 0

    def test_semilock_ablation_reports_both_modes(self, tiny):
        rows = run_experiment("e6", tiny)
        assert {row["enforcement"] for row in rows} == {"semi-locks", "full locking"}
        assert all(row["serializable"] for row in rows)
        assert all("to_mean_system_time" in row for row in rows)

    def test_stl_cost_values_agree(self):
        rows = run_experiment("e7", {"time_steps": (6, 8)})
        assert [row["time_steps"] for row in rows] == [6, 8]
        assert all(row["values_agree"] for row in rows)
        assert rows[0]["naive_calls"] < rows[1]["naive_calls"]


class TestDriftAdaptation:
    """E9: the drift-scenario comparison."""

    @pytest.fixture(scope="class")
    def e9_rows(self):
        return run_experiment(
            "e9", {"scenarios": ("hotspot-migration",), "transactions": 60, "seeds": (0,)}
        )

    def test_row_structure(self, e9_rows):
        policies = [row["policy"] for row in e9_rows]
        assert policies == ["2PL", "T/O", "PA", "adaptive", "frozen"]
        for row in e9_rows:
            assert row["scenario"] == "hotspot-migration"
            assert row["serializable"] is True
            assert row["committed"] == 60
            assert row["post_drift_mean_system_time"] >= 0.0

    def test_unknown_scenario_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            run_experiment(
                "e9", {"scenarios": ("no-such-scenario",), "transactions": 10, "seeds": (0,)}
            )

    def test_seed_folds_count_every_replication(self):
        rows = run_experiment(
            "e9", {"scenarios": ("mix-flip",), "transactions": 20, "seeds": (0, 1)}
        )
        assert all(row["committed"] == 40 for row in rows)


class TestAvailability:
    """E10: the fault-scenario commit-layer comparison."""

    @pytest.fixture(scope="class")
    def e10_rows(self):
        return run_experiment(
            "e10", {"scenarios": ("site-blackout",), "transactions": 80, "seeds": (0,)}
        )

    def test_row_structure(self, e10_rows):
        combos = [(row["commit"], row["protocol"]) for row in e10_rows]
        assert combos == [
            ("one-phase", "2PL"),
            ("one-phase", "T/O"),
            ("one-phase", "PA"),
            ("two-phase", "2PL"),
            ("two-phase", "T/O"),
            ("two-phase", "PA"),
        ]
        for row in e10_rows:
            assert row["scenario"] == "site-blackout"
            assert row["crashes"] >= 1
            assert 0.0 < row["availability"] <= 1.0

    def test_two_phase_keeps_atomicity_one_phase_loses_it(self, e10_rows):
        for row in e10_rows:
            if row["commit"] == "two-phase":
                assert row["atomic"] and row["serializable"]
                assert row["lost_writes"] == 0
                assert row["commit_messages"] > 0
            else:
                assert (
                    row["lost_writes"] > 0
                    or row["divergent_items"] > 0
                    or not row["serializable"]
                )
                assert row["commit_messages"] == 0
