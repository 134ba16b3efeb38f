"""Discrete-event simulator core."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_advances_to_event_times(self):
        simulator = Simulator()
        times = []
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.schedule(0.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [0.5, 1.5]

    def test_schedule_in_past_raises(self):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(2.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [2.0]

    def test_schedule_at_before_now_raises(self):
        simulator = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            simulator.schedule_at(4.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        simulator = Simulator()
        seen = []

        def first():
            seen.append("first")
            simulator.schedule(1.0, lambda: seen.append("second"))

        simulator.schedule(1.0, first)
        simulator.run()
        assert seen == ["first", "second"]
        assert simulator.now == pytest.approx(2.0)


class TestRunControl:
    def test_run_until_limits_the_clock(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append(1))
        simulator.schedule(10.0, lambda: seen.append(2))
        end = simulator.run(until=5.0)
        assert seen == [1]
        assert end == pytest.approx(5.0)
        assert simulator.pending_events == 1

    def test_run_max_events(self):
        simulator = Simulator()
        for i in range(10):
            simulator.schedule(float(i + 1), lambda: None)
        simulator.run(max_events=3)
        assert simulator.events_processed == 3

    def test_stop_inside_callback_halts_the_run(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: (seen.append(1), simulator.stop()))
        simulator.schedule(2.0, lambda: seen.append(2))
        simulator.run()
        assert seen == [1]

    def test_trace_hook_sees_labels(self):
        simulator = Simulator()
        traced = []
        simulator.add_trace_hook(lambda time, label: traced.append((time, label)))
        simulator.schedule(1.0, lambda: None, label="tick")
        simulator.run()
        assert traced == [(1.0, "tick")]

    def test_events_processed_counter(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 2
