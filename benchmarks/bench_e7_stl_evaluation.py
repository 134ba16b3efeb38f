"""E7 — cost of evaluating the STL' function.

Paper claim (Section 5.1): STL' "can be evaluated efficiently through Dynamic
Programming".  This benchmark times the dynamic program used by the selector
and contrasts it with the naive exponential recursion at the same
discretisation, and also times a full per-transaction selection decision.
"""

import pytest

from benchmarks.conftest import save_table
from repro.analysis.experiments import naive_stl_prime
from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.ids import TransactionId
from repro.common.transactions import TransactionSpec
from repro.selection.parameters import SystemLoadParameters
from repro.selection.selector import STLProtocolSelector
from repro.selection.stl import ThroughputLossModel

LOAD = SystemLoadParameters(
    system_throughput=120.0,
    read_throughput=3.0,
    write_throughput=2.0,
    read_fraction=0.6,
    requests_per_transaction=6.0,
)
SPEC = TransactionSpec(
    tid=TransactionId(0, 1), read_items=(0, 1, 2, 3), write_items=(4, 5)
)


def test_e7_stl_prime_dynamic_program(benchmark, results_dir):
    model = ThroughputLossModel(LOAD, time_steps=32)
    value = benchmark(model.stl_prime, 10.0, 0.5)
    assert value > 0.0
    save_table(
        results_dir,
        "e7_stl_dp_value",
        [{"method": "dynamic program", "time_steps": 32, "stl_prime(10, 0.5)": value}],
    )


def test_e7_stl_prime_naive_recursion(benchmark):
    # Same discretisation as the DP but evaluated by the exponential-time
    # recursion; 14 steps keep the naive variant tractable for timing.
    model = ThroughputLossModel(LOAD, time_steps=14)
    naive, _calls = benchmark(naive_stl_prime, model, 10.0, 0.5)
    reference = model.stl_prime(10.0, 0.5)
    assert naive == pytest.approx(reference, rel=0.05)


def test_e7_full_selection_decision(benchmark):
    selector = STLProtocolSelector.from_configs(
        SystemConfig(num_sites=3, num_items=32),
        WorkloadConfig(arrival_rate=40.0, num_transactions=100),
        exploration_transactions=0,
    )
    selector.choose(SPEC, now=0.0)          # warm the per-class cache

    def decide():
        return selector.breakdown(SPEC)

    breakdown = benchmark(decide)
    assert breakdown.best() in ("2PL", "T/O", "PA")
