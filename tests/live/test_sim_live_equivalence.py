"""The differential harness: the simulator vs. a real networked cluster.

The same registered scenario — same system configuration, same generated
transaction specs — is run once through the discrete-event simulator and
once against an in-process cluster of site daemons talking real TCP over
localhost.  The two executions must agree on everything the paper's
correctness claims rest on:

* the *set* of committed transactions (timing may reorder restarts, so
  attempt counts can differ; the committed set cannot),
* the audit verdicts — conflict-serializable and replica-convergent,
* 2PC safety: across every site's commit log, each ``(transaction,
  attempt)`` round carries exactly one decision.
"""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.live.daemon import LiveConfigError, live_system
from repro.workload import scenarios as scenario_registry
from repro.workload.scenarios import Scenario


class TestDifferentialEquivalence:
    def test_sim_and_live_agree_on_uniform_baseline(self, live_run, workload, sim_run) -> None:
        system, specs = workload("uniform-baseline", transactions=20)
        sim = sim_run(system, specs)
        live = live_run(system, specs)

        assert live.submitted == len(specs)
        # Identical committed-transaction sets.
        assert set(live.committed_attempts) == set(sim.committed_attempts)
        assert live.committed == sim.committed
        # Identical audit verdicts.
        assert sim.serializable and live.serializable
        assert sim.atomic and live.atomic
        # 2PC decision uniqueness across every site's log.
        assert live.conflicting_decisions() == ()
        # The live run really exchanged protocol traffic over the wire.
        assert live.protocol_messages > 0
        assert live.duration > 0.0

    def test_equivalence_holds_under_presumed_abort(self, live_run, workload, sim_run) -> None:
        system, specs = workload(
            "uniform-baseline", transactions=12, commit="presumed-abort"
        )
        sim = sim_run(system, specs)
        live = live_run(system, specs)
        assert set(live.committed_attempts) == set(sim.committed_attempts)
        assert sim.serializable and live.serializable
        assert sim.atomic and live.atomic
        assert live.conflicting_decisions() == ()

    def test_e12_experiment_reports_equivalence(self) -> None:
        from repro.analysis.experiments import run_experiment

        rows = run_experiment("e12", {"scenarios": ("uniform-baseline",), "transactions": 10})
        assert [row["mode"] for row in rows] == ["sim", "live", "equal"]
        sim_row, live_row, verdict = rows
        assert sim_row["committed_set_digest"] == live_row["committed_set_digest"]
        assert verdict["equivalent"]
        assert sim_row["serializable"] and live_row["serializable"]
        assert live_row["conflicting_2pc_decisions"] == 0


class TestLiveConfigurationGuards:
    def test_one_phase_commit_is_rejected(self) -> None:
        # The implicit one-phase commit has no prepare/vote exchange to run
        # over a real network; live mode refuses it instead of silently
        # running something weaker than the simulator models.
        with pytest.raises(LiveConfigError, match="one-phase"):
            live_system(SystemConfig())

    def test_fault_injection_is_stripped(self) -> None:
        from dataclasses import replace

        from repro.common.config import FaultConfig

        system = SystemConfig()
        system = replace(
            system,
            commit=replace(system.commit, protocol="two-phase"),
            faults=FaultConfig(crash_rate=0.5, horizon=10.0),
        )
        assert live_system(system).faults is None

    def test_dynamic_selection_scenario_is_rejected(self, monkeypatch) -> None:
        from repro.live.cluster import live_setup

        base = scenario_registry.get_scenario("uniform-baseline")
        dynamic = Scenario(
            name="test-dynamic-live",
            description="registry entry used only by this test",
            system=base.system,
            workload=base.workload,
            dynamic_selection=True,
        )
        monkeypatch.setitem(scenario_registry._REGISTRY, dynamic.name, dynamic)
        with pytest.raises(ConfigurationError, match="dynamic"):
            live_setup(dynamic.name, transactions=5)


class TestTunedSystem:
    def test_tuning_changes_only_wall_clock_knobs(self, workload, tuned_system) -> None:
        system, _ = workload("uniform-baseline", transactions=5)
        baseline = tuned_system(system)
        assert baseline.num_sites == system.num_sites
        assert baseline.replication_factor == system.replication_factor
        assert baseline.commit.protocol == "two-phase"
