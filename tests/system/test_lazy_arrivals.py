"""``load_workload`` keeps one arrival pending, and fires exactly as eager submits.

``load_workload`` reserves the block of event seqs that ``for spec in specs:
submit(spec)`` would have drawn, then pushes one arrival at a time, each as
its predecessor fires.  The run must be indistinguishable from the eager
loop: the same ``(time, label)`` trace event for event, on shuffled input
with equal arrival times, and with arrivals deferred while a coordinator is
down.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis.replications import summarize_run
from repro.sim.events import EventQueue
from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario

#: case -> (scenario, transactions).  coordinator-blackout's transaction
#: manager at site 1 is down from t=1.2 to t=6.0, so its arrivals in that
#: window are deferred.
CASES = {
    "read-mostly-analytics": ("read-mostly-analytics", 80),
    "coordinator-blackout": ("coordinator-blackout", 60),
}


def _shuffled_specs_with_ties(name, transactions):
    """The scenario's specs with arrival times on a coarse grid, shuffled."""
    scenario = get_scenario(name).configured(transactions=transactions)
    specs = TransactionGenerator(scenario.system, scenario.workload).generate()
    # A grid of 0.25 puts ~7 arrivals on each instant at these rates.
    specs = [replace(spec, arrival_time=round(spec.arrival_time * 4) / 4) for spec in specs]
    random.Random(5).shuffle(specs)
    return scenario, specs


def _traced_run(scenario, specs, lazy):
    database = DistributedDatabase(scenario.system)
    trace = []
    database.simulator.add_trace_hook(lambda time, label: trace.append((time, label)))
    if lazy:
        database.load_workload(specs, scenario.workload)
    else:
        for spec in specs:
            database.submit(spec)
    result = database.run(max_events=200_000)
    return trace, result


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_arrivals_fire_the_eager_trace(case):
    scenario, specs = _shuffled_specs_with_ties(*CASES[case])
    times = [spec.arrival_time for spec in specs]
    assert len(set(times)) < len(times) and times != sorted(times)
    lazy_trace, lazy = _traced_run(scenario, specs, lazy=True)
    eager_trace, eager = _traced_run(scenario, specs, lazy=False)
    assert lazy_trace == eager_trace
    assert summarize_run(lazy) == summarize_run(eager)
    assert lazy.committed == lazy.submitted == len(specs)
    deferred = [label for _, label in lazy_trace if label.startswith("arrival-deferred-")]
    if case == "coordinator-blackout":
        assert deferred
    else:
        assert not deferred


@pytest.mark.parametrize("case", sorted(CASES))
def test_at_most_one_arrival_is_pending(case, monkeypatch):
    scenario, specs = _shuffled_specs_with_ties(*CASES[case])
    pending = []
    peak = []
    push = EventQueue.push

    def counting_push(queue, time, callback, *args, label="", **kwargs):
        # Deferred arrivals are ordinary timers, scheduled as they fire.
        if label.startswith("arrival-") and not label.startswith("arrival-deferred-"):
            pending.append(label)
            peak.append(len(pending))
        return push(queue, time, callback, *args, label=label, **kwargs)

    def fired(_time, label):
        if label in pending:
            pending.remove(label)

    monkeypatch.setattr(EventQueue, "push", counting_push)
    database = DistributedDatabase(scenario.system)
    database.simulator.add_trace_hook(fired)
    database.load_workload(specs, scenario.workload)
    assert len(pending) == 1
    result = database.run(max_events=200_000)
    assert result.committed == result.submitted == len(specs)
    assert len(peak) == len(specs) and max(peak) == 1
    assert not pending
