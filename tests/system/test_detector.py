"""Deadlock detector actor behaviour inside full runs."""

import pytest

from repro.common.config import ProtocolMix, SystemConfig
from repro.common.errors import SimulationError
from repro.common.ids import TransactionId
from repro.common.protocol_names import Protocol
from repro.common.transactions import TransactionSpec
from repro.core.locks import LockTable
from repro.sim.actor import Actor
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.system.coordinator import request_issuer_name
from repro.system.database import DistributedDatabase
from repro.system.detector import DeadlockDetectorActor
from repro.system.runner import run_simulation
from repro.workload.scenarios import get_scenario

from tests.core.test_normality_waits import LOCKER, PROTOCOLS, semilock_cycle


def crossing_transactions():
    """Two 2PL transactions that lock items 0 and 1 in opposite orders.

    With write-all replication disabled (single copies at sites 0 and 1) and
    both transactions arriving at the same instant, each acquires its first
    lock and then waits for the other: a guaranteed deadlock that only the
    detector can break.
    """
    t_a = TransactionSpec(
        tid=TransactionId(0, 1),
        read_items=(),
        write_items=(0, 1),
        protocol=Protocol.TWO_PHASE_LOCKING,
        arrival_time=0.001,
        compute_time=0.001,
    )
    t_b = TransactionSpec(
        tid=TransactionId(1, 1),
        read_items=(),
        write_items=(1, 0),
        protocol=Protocol.TWO_PHASE_LOCKING,
        arrival_time=0.001,
        compute_time=0.001,
    )
    return [t_a, t_b]


class TestDeadlockResolution:
    def test_crossing_2pl_transactions_eventually_commit(self):
        system = SystemConfig(
            num_sites=2, num_items=2, deadlock_detection_period=0.05, restart_delay=0.01, seed=3
        )
        database = DistributedDatabase(system)
        for spec in crossing_transactions():
            database.submit(spec)
        result = database.run()
        assert result.committed == 2
        assert result.serializable
        assert result.deadlocks_found >= 1
        assert result.deadlock_aborts >= 1

    def test_victims_recorded(self):
        system = SystemConfig(
            num_sites=2, num_items=2, deadlock_detection_period=0.05, restart_delay=0.01, seed=3
        )
        database = DistributedDatabase(system)
        for spec in crossing_transactions():
            database.submit(spec)
        result = database.run()
        assert len(result.deadlock_victims) >= 1
        for victim in result.deadlock_victims:
            assert victim in (TransactionId(0, 1), TransactionId(1, 1))

    def test_detection_period_trades_latency(self):
        # A slower detector leaves the deadlocked transactions blocked longer,
        # so their mean system time cannot be smaller than with a fast detector.
        def run_with_period(period):
            system = SystemConfig(
                num_sites=2, num_items=2, deadlock_detection_period=period,
                restart_delay=0.01, seed=3,
            )
            database = DistributedDatabase(system)
            for spec in crossing_transactions():
                database.submit(spec)
            return database.run()

        fast = run_with_period(0.02)
        slow = run_with_period(1.0)
        assert slow.mean_system_time >= fast.mean_system_time

    def test_detector_scans_are_counted_and_charged(self):
        system = SystemConfig(
            num_sites=2, num_items=2, deadlock_detection_period=0.05,
            deadlock_detection_message_cost=3, restart_delay=0.01, seed=3,
        )
        database = DistributedDatabase(system)
        for spec in crossing_transactions():
            database.submit(spec)
        result = database.run()
        assert result.detector_scans >= 1
        assert result.messages_by_kind.get("deadlock-probe", 0) >= 3

    def test_zero_message_cost_supported(self):
        system = SystemConfig(
            num_sites=2, num_items=2, deadlock_detection_period=0.05,
            deadlock_detection_message_cost=0, restart_delay=0.01, seed=3,
        )
        database = DistributedDatabase(system)
        for spec in crossing_transactions():
            database.submit(spec)
        result = database.run()
        assert result.committed == 2
        assert result.messages_by_kind.get("deadlock-probe", 0) == 0


class TestNoFalseVictims:
    def test_pure_pa_run_has_no_deadlock_victims(self, small_system, small_workload):
        workload = small_workload.with_overrides(
            arrival_rate=50.0,
            protocol_mix=ProtocolMix.pure(Protocol.PRECEDENCE_AGREEMENT),
        )
        result = run_simulation(small_system, workload)
        assert result.deadlock_aborts == 0
        assert len(result.deadlock_victims) == 0

    def test_pure_to_run_has_no_deadlock_victims(self, small_system, small_workload):
        workload = small_workload.with_overrides(
            arrival_rate=50.0,
            protocol_mix=ProtocolMix.pure(Protocol.TIMESTAMP_ORDERING),
        )
        result = run_simulation(small_system, workload)
        assert result.deadlock_aborts == 0
        assert len(result.deadlock_victims) == 0


class _VictimInbox(Actor):
    """Stands in for a request issuer: records the abort_victim payloads."""

    def __init__(self, site):
        super().__init__(request_issuer_name(site), site)
        self.victims = []

    def handle(self, message):
        self.victims.append(message.payload)


def detector_over_semilock_cycle():
    """A detector scanning the hand-built wedge; nothing else is scheduled."""
    simulator = Simulator()
    network = Network(simulator, None, RandomStreams(3))
    inbox = _VictimInbox(LOCKER.site)
    network.register(inbox)
    detector = DeadlockDetectorActor(
        simulator, network, semilock_cycle(), {}, PROTOCOLS, message_cost_per_site=0
    )
    return simulator, detector, inbox


class TestNormalityWaitDeadlock:
    """A finished T/O transaction awaiting normality can close a deadlock cycle."""

    def test_scan_aborts_the_2pl_member_of_the_semilock_cycle(self):
        simulator, detector, inbox = detector_over_semilock_cycle()
        detector._scan()
        simulator.run(max_events=1)
        assert detector.victims == (LOCKER,)
        assert inbox.victims == [LOCKER]

    def test_stalled_run_raises_instead_of_rescanning(self, monkeypatch):
        # Without the normality edge the wedge has no cycle: three blocked
        # transactions, no victim, and an empty event list.
        monkeypatch.setattr(LockTable, "awaiting_normal", lambda self: ())
        _simulator, detector, inbox = detector_over_semilock_cycle()
        with pytest.raises(SimulationError, match=r"stalled .* T3\.42") as raised:
            detector._scan()
        assert "T1.39" in str(raised.value) and "T3.41" in str(raised.value)
        assert inbox.victims == []

    def test_blocked_transactions_with_events_pending_are_not_a_stall(self, monkeypatch):
        monkeypatch.setattr(LockTable, "awaiting_normal", lambda self: ())
        simulator, detector, _inbox = detector_over_semilock_cycle()
        simulator.schedule(1.0, lambda: None, label="some-timer")
        detector._scan()
        assert simulator.pending_events == 2   # the timer and the next scan

    @pytest.mark.parametrize("seed", [4059, 9019, 42034, 45013])
    def test_drift_adaptive_wedge_seeds_finish(self, seed):
        # The ledger's drift-adaptive workload (benchmarks/ledger/child.py::resolve)
        # on the four panel seeds that never terminated before the edge existed.
        scenario = get_scenario("hotspot-migration").configured(transactions=500)
        workload = scenario.workload.with_overrides(
            seed=seed,
            protocol_mix=ProtocolMix(
                {Protocol.TWO_PHASE_LOCKING: 1.0, Protocol.PRECEDENCE_AGREEMENT: 1.0}
            ),
        )
        result = run_simulation(
            scenario.system.with_overrides(audit="batch"),
            workload,
            dynamic_selection=True,
            selection_mode="adaptive",
            max_events=200_000,
        )
        assert result.committed == result.submitted == 500
        assert result.serializable and result.atomic
        assert result.protocol_switches == 0
        assert result.deadlock_victims
        assert all(
            result.protocol_of[victim].is_two_phase_locking
            for victim in result.deadlock_victims
        )
