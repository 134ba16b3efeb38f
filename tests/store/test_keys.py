"""Content-addressed task keys: determinism and sensitivity."""

import pytest

from repro.analysis.replications import SimulationTask
from repro.common.config import (
    CommitConfig,
    CoordinatorCrash,
    DriftConfig,
    DriftSegment,
    FaultConfig,
    ProtocolMix,
    SiteCrash,
    SystemConfig,
    WorkloadConfig,
)
from repro.common.protocol_names import Protocol
from repro.store import ResultStore, canonical_value, task_key, task_payload
from repro.workload.scenarios import get_scenario


@pytest.fixture(scope="module")
def base_task():
    return SimulationTask(
        system=SystemConfig(num_sites=2, num_items=16, seed=3),
        workload=WorkloadConfig(arrival_rate=20.0, num_transactions=10, seed=4),
        protocol="2PL",
    )


class TestTaskKey:
    def test_deterministic_across_calls(self, base_task):
        assert task_key(base_task) == task_key(base_task)

    def test_equal_tasks_share_a_key(self, base_task):
        clone = SimulationTask(
            system=SystemConfig(num_sites=2, num_items=16, seed=3),
            workload=WorkloadConfig(arrival_rate=20.0, num_transactions=10, seed=4),
            protocol="2PL",
        )
        assert task_key(clone) == task_key(base_task)

    def test_protocol_spelling_does_not_matter(self, base_task):
        spelled = SimulationTask(
            system=base_task.system,
            workload=base_task.workload,
            protocol=Protocol.TWO_PHASE_LOCKING,
        )
        assert task_key(spelled) == task_key(base_task)

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 99},
            {"num_items": 17},
            {"restart_delay": 0.5},
            {"protocol_switch_threshold": 2},
            {"audit": "streaming"},
        ],
    )
    def test_system_changes_change_the_key(self, base_task, override):
        changed = SimulationTask(
            system=base_task.system.with_overrides(**override),
            workload=base_task.workload,
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 99},
            {"arrival_rate": 21.0},
            {"num_transactions": 11},
            {"protocol_mix": ProtocolMix.pure(Protocol.PRECEDENCE_AGREEMENT)},
        ],
    )
    def test_workload_changes_change_the_key(self, base_task, override):
        changed = SimulationTask(
            system=base_task.system,
            workload=base_task.workload.with_overrides(**override),
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    def test_mode_changes_change_the_key(self, base_task):
        mixed = SimulationTask(system=base_task.system, workload=base_task.workload)
        dynamic = SimulationTask(
            system=base_task.system, workload=base_task.workload, dynamic_selection=True
        )
        keys = {task_key(base_task), task_key(mixed), task_key(dynamic)}
        assert len(keys) == 3

    def test_protocol_mix_weight_order_does_not_matter(self, base_task):
        forward = ProtocolMix(
            {Protocol.TWO_PHASE_LOCKING: 1.0, Protocol.TIMESTAMP_ORDERING: 2.0}
        )
        backward = ProtocolMix(
            {Protocol.TIMESTAMP_ORDERING: 2.0, Protocol.TWO_PHASE_LOCKING: 1.0}
        )
        first = SimulationTask(
            system=base_task.system,
            workload=base_task.workload.with_overrides(protocol_mix=forward),
        )
        second = SimulationTask(
            system=base_task.system,
            workload=base_task.workload.with_overrides(protocol_mix=backward),
        )
        assert task_key(first) == task_key(second)


def _adaptive_drift_task() -> SimulationTask:
    """A fully pinned E9-style task: drifting workload + adaptive selection."""
    return SimulationTask(
        system=SystemConfig(num_sites=2, num_items=16, seed=3),
        workload=WorkloadConfig(
            arrival_rate=20.0,
            num_transactions=10,
            drift=DriftConfig(
                mode="smooth",
                segments=(
                    DriftSegment(at=0.3, hotspot_probability=0.6, hotspot_center=0.2),
                    DriftSegment(at=0.7, hotspot_center=0.8),
                ),
            ),
            seed=4,
        ),
        dynamic_selection=True,
        selection_mode="adaptive",
    )


class TestAdaptiveDriftKeys:
    """E9 configurations must key distinctly and stably."""

    #: Golden digest of ``_adaptive_drift_task()``.  If this assertion ever
    #: fails, the canonical task encoding changed: bump ``KEY_SCHEMA`` so
    #: stale stores invalidate themselves, then re-pin.  (Re-pinned for
    #: KEY_SCHEMA v8: the parallel engine's two fields left ``SystemConfig``.)
    GOLDEN_KEY = "43ff547d542f8f205fde6b6c127e49fc7b30791e0880fa1b8dc93cf9d046650a"

    def test_adaptive_drift_key_is_stable_across_processes(self):
        assert task_key(_adaptive_drift_task()) == self.GOLDEN_KEY

    def test_selection_modes_key_distinctly(self):
        base = _adaptive_drift_task()
        keys = {
            task_key(
                SimulationTask(
                    system=base.system,
                    workload=base.workload,
                    dynamic_selection=True,
                    selection_mode=mode,
                )
            )
            for mode in (None, "cumulative", "adaptive", "frozen")
        }
        assert len(keys) == 4

    def test_drift_schedule_changes_the_key(self):
        base = _adaptive_drift_task()
        stationary = SimulationTask(
            system=base.system,
            workload=base.workload.with_overrides(drift=None),
            dynamic_selection=True,
            selection_mode="adaptive",
        )
        assert task_key(stationary) != task_key(base)

    def test_drift_segment_values_change_the_key(self):
        base = _adaptive_drift_task()
        nudged = SimulationTask(
            system=base.system,
            workload=base.workload.with_overrides(
                drift=DriftConfig(
                    mode="smooth",
                    segments=(
                        DriftSegment(at=0.3, hotspot_probability=0.7, hotspot_center=0.2),
                        DriftSegment(at=0.7, hotspot_center=0.8),
                    ),
                )
            ),
            dynamic_selection=True,
            selection_mode="adaptive",
        )
        assert task_key(nudged) != task_key(base)

    def test_drift_payload_round_trips_through_json(self):
        import json

        payload = task_payload(_adaptive_drift_task())
        assert json.loads(json.dumps(payload)) == payload

    def test_registered_drift_scenarios_key_distinctly_per_mode(self):
        keys = set()
        for name in ("hotspot-migration", "mix-flip", "load-ramp"):
            scenario = get_scenario(name)
            for mode in ("adaptive", "frozen"):
                keys.add(
                    task_key(
                        SimulationTask(
                            system=scenario.system,
                            workload=scenario.workload,
                            dynamic_selection=True,
                            selection_mode=mode,
                        )
                    )
                )
        assert len(keys) == 6


class TestCommitFaultKeys:
    """Key-schema v4: the commit layer and fault model are part of every digest."""

    #: Golden v8 digest of the module fixture's ``base_task`` (all-default
    #: commit/fault/audit configuration).  Byte-stability of the new
    #: defaults: if this ever fails, the canonical encoding moved again —
    #: bump ``KEY_SCHEMA`` and re-pin.
    GOLDEN_DEFAULT_KEY = "b3d372eff237c45a14a94cc202bb682faa3166a6b7680f0b3764043fa20f9bf6"

    #: A KEY_SCHEMA v2 digest (the adaptive-drift golden this file pinned
    #: before the v3 schema bump).  Kept to prove that rows addressed by
    #: old-era keys stay inert under v4 lookups.
    V2_ERA_KEY = "06a8cfeac052da4dc0e4fc617039b75ad3b20c829d5429acca0a84dfc22ffd03"

    #: The KEY_SCHEMA v7 digest of ``base_task`` (its payload still carried
    #: the parallel engine's two fields).  Kept to prove v7 rows stay inert
    #: under v8 lookups.
    V7_ERA_KEY = "72728a73fedbcf77ff30dee85a0a191bd99a9c139cb32b815a5b868a48352840"

    def test_default_commit_fault_config_is_byte_stable(self, base_task):
        assert task_key(base_task) == self.GOLDEN_DEFAULT_KEY

    def test_default_payload_names_commit_and_faults(self, base_task):
        payload = task_payload(base_task)
        assert payload["schema"] == 8
        assert payload["system"]["commit"] == {
            "protocol": "one-phase",
            "prepare_timeout": 1.0,
            "termination_protocol": False,
            "termination_timeout": 1.0,
            "termination_backoff": 2.0,
            "checkpoint_interval": None,
        }
        assert payload["system"]["faults"] is None

    def test_commit_protocol_changes_the_key(self, base_task):
        changed = SimulationTask(
            system=base_task.system.with_overrides(
                commit=CommitConfig(protocol="two-phase")
            ),
            workload=base_task.workload,
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    def test_fault_config_changes_the_key(self, base_task):
        changed = SimulationTask(
            system=base_task.system.with_overrides(
                faults=FaultConfig(crashes=(SiteCrash(site=1, at=1.0, duration=0.5),))
            ),
            workload=base_task.workload,
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    def test_prepare_timeout_changes_the_key(self, base_task):
        changed = SimulationTask(
            system=base_task.system.with_overrides(
                commit=CommitConfig(prepare_timeout=2.0)
            ),
            workload=base_task.workload,
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    def test_termination_and_checkpoint_fields_change_the_key(self, base_task):
        for override in (
            CommitConfig(termination_protocol=True),
            CommitConfig(termination_timeout=0.5),
            CommitConfig(checkpoint_interval=2.0),
        ):
            changed = SimulationTask(
                system=base_task.system.with_overrides(commit=override),
                workload=base_task.workload,
                protocol=base_task.protocol,
            )
            assert task_key(changed) != task_key(base_task)

    def test_coordinator_crashes_change_the_key(self, base_task):
        changed = SimulationTask(
            system=base_task.system.with_overrides(
                faults=FaultConfig(
                    coordinator_crashes=(CoordinatorCrash(site=0, at=1.0, duration=2.0),)
                )
            ),
            workload=base_task.workload,
            protocol=base_task.protocol,
        )
        assert task_key(changed) != task_key(base_task)

    def test_warm_resume_on_a_v2_store_misses_cleanly(self, base_task, tmp_path):
        """A store written under the v2 schema serves nothing to v4 lookups.

        v2 keys digested a payload without commit/fault fields, so the same
        logical configuration now addresses a different key: the old rows
        stay inert instead of being served with unspecified commit semantics.
        """
        store = ResultStore(tmp_path / "runs.jsonl")
        store.put(self.V2_ERA_KEY, {"schema": 2}, {"committed": 10})
        assert task_key(base_task) != self.V2_ERA_KEY
        assert store.lookup(task_key(base_task)) is None
        assert store.lookup(self.V2_ERA_KEY) is not None

    def test_warm_resume_on_a_v7_store_misses_cleanly(self, base_task, tmp_path):
        """A store written under the v7 schema serves nothing to v8 lookups."""
        store = ResultStore(tmp_path / "runs.jsonl")
        store.put(self.V7_ERA_KEY, {"schema": 7}, {"committed": 10})
        assert task_key(base_task) != self.V7_ERA_KEY
        assert store.lookup(task_key(base_task)) is None
        assert store.lookup(self.V7_ERA_KEY) is not None

    def test_fault_payload_round_trips_through_json(self, base_task):
        import json

        task = SimulationTask(
            system=base_task.system.with_overrides(
                commit=CommitConfig(protocol="two-phase", prepare_timeout=0.5),
                faults=FaultConfig(
                    crashes=(SiteCrash(site=1, at=1.0, duration=0.5),),
                    crash_rate=0.2,
                    mean_repair_time=0.3,
                    horizon=8.0,
                ),
            ),
            workload=base_task.workload,
        )
        payload = task_payload(task)
        assert json.loads(json.dumps(payload)) == payload


class TestCanonicalValue:
    def test_enums_collapse_to_strings(self):
        assert canonical_value(Protocol.TIMESTAMP_ORDERING) == "T/O"

    def test_mappings_get_string_keys(self):
        value = canonical_value({Protocol.PRECEDENCE_AGREEMENT: 1.0})
        assert value == {"PA": 1.0}

    def test_tuples_become_lists(self):
        assert canonical_value((1, 2, 3)) == [1, 2, 3]

    def test_unknown_types_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_value(object())

    def test_payload_is_json_pure(self, base_task):
        import json

        payload = task_payload(base_task)
        assert json.loads(json.dumps(payload)) == payload
