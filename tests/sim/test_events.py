"""Event queue behaviour."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while queue:
            queue.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append(1))
        queue.push(1.0, lambda: order.append(2))
        queue.push(1.0, lambda: order.append(3))
        while queue:
            queue.pop().callback()
        assert order == [1, 2, 3]

    def test_priority_breaks_ties_before_sequence(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("low"), priority=1)
        queue.push(1.0, lambda: order.append("high"), priority=0)
        while queue:
            queue.pop().callback()
        assert order == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        event.cancel()
        while queue:
            queue.pop().callback()
        assert fired == ["kept"]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_peek_time_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert not queue

    def test_reserve_sets_aside_the_seqs_of_back_to_back_pushes(self):
        queue = EventQueue()
        assert queue.push(1.0, lambda: None).seq == 0
        assert queue.reserve(3) == 1
        assert queue.push(1.0, lambda: None).seq == 4
        assert queue.reserve(0) == 5
        assert queue.push(1.0, lambda: None).seq == 5

    def test_reserved_seq_ties_as_the_eager_push_would_have(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("before"))
        first = queue.reserve(2)
        queue.push(1.0, lambda: order.append("after"))
        # Pushed last, but its reserved seq sorts it between the two.
        queue.push(1.0, lambda: order.append("reserved"), seq=first + 1)
        while queue:
            queue.pop().callback()
        assert order == ["before", "reserved", "after"]
