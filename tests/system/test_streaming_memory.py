"""Memory-regression gate: a run's memory tracks its open transactions.

A streaming-audit run keeps per-transaction state only while a
transaction is open: the coordinator retires an execution at FINISHED, the
streaming checker and the bounded execution log retire its entries once it
is safe, the metrics fold each outcome into windows, and ``load_workload``
keeps one arrival pending instead of n.  This gate runs the real system —
three registered scenarios under ``--audit streaming``, each at n and 10n
transactions — under tracemalloc and bounds the *marginal* bytes per extra
transaction, both retained after the run and at the peak.  Any change that
brings back per-transaction retention (finished executions kept whole, a
log that stops dropping retired entries, eager arrival events) costs
kilobytes per transaction and fails at once.

The bound is not zero, by design.  A few maps stay O(n) because their
consumers need the whole run:

* each issuer's ``{tid: committed attempt}`` map and the merged
  ``RunResult.committed_attempts`` — the batch audit's committed view and
  the live differential's committed-set digest;
* the protocol registry (``RunResult.protocol_of``) — victim accounting;
* the streaming checker's retirement order — the report's witness.

Together they cost ~0.2–0.3 KB per transaction (dict tables grow in powers
of two, so the figure steps with n).  The value store keeps the last 16
versions of every copy: bounded by the copy count, but still filling at
these sizes, so the gate runs with a history of one (no run reads the
history).  Specs are generated before tracing starts: they are the
caller's, not the system's.

``read-mostly-analytics`` is gated at 0.3 KB retained and 0.4 KB peak per
transaction.  The two fault scenarios run at a sixth of their arrival rate
(at their own rates they are overloaded: the open window grows with the
run, and 10x takes minutes under tracemalloc) and get wider bounds, for two
reasons.  At gate sizes they are still filling state bounded by the
system's size, chiefly the network's per-channel FIFO clocks (one per actor
pair).  And ``coordinator-blackout`` runs presumed-nothing 2PC, whose
decision records are kept forever by that protocol's definition.  Traced
at 500 → 3,000 transactions, ``in-doubt-storm`` reads 257 B retained and
309 B peak per transaction, and ``coordinator-blackout`` (300 → 3,000)
503 B and 597 B.  Before finished transactions retired, all three read
3.8–5.7 KB.
"""

import gc
import tracemalloc

from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario

KB = 1024

#: scenario -> (transactions in the small run, arrival-rate override or None,
#: marginal bytes per transaction the 10x run may keep after it finished,
#: marginal bytes per transaction it may add to the traced peak).
CASES = {
    "read-mostly-analytics": (200, None, 0.3 * KB, 0.4 * KB),
    "in-doubt-storm": (50, 5.0, 0.6 * KB, 1.0 * KB),
    "coordinator-blackout": (30, 5.0, 1.1 * KB, 1.4 * KB),
}


def _traced(name, transactions, arrival_rate):
    """Traced (retained, peak) bytes of one streaming run of ``name``."""
    scenario = get_scenario(name).configured(
        transactions=transactions, arrival_rate=arrival_rate
    )
    system = scenario.system.with_overrides(audit="streaming")
    specs = TransactionGenerator(system, scenario.workload).generate()
    gc.collect()
    tracemalloc.start()
    try:
        database = DistributedDatabase(system)
        database.load_workload(specs, scenario.workload)
        result = database.run()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.serializable and result.atomic, name
    assert result.committed == result.submitted == transactions, name
    return retained, peak


def test_peak_memory_is_flat_across_10x_run_growth():
    # Warm-up run: first use pays import-time and allocator warm-up costs
    # that would otherwise be charged to the small run.
    _traced("read-mostly-analytics", 30, None)
    for name, (transactions, arrival_rate, retained_bound, peak_bound) in CASES.items():
        small_retained, small_peak = _traced(name, transactions, arrival_rate)
        large_retained, large_peak = _traced(name, 10 * transactions, arrival_rate)
        extra = 9 * transactions
        retained = (large_retained - small_retained) / extra
        peak = (large_peak - small_peak) / extra
        assert retained <= retained_bound, (name, retained, small_retained, large_retained)
        assert peak <= peak_bound, (name, peak, small_peak, large_peak)
