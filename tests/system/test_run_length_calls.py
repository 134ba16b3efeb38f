"""Run-length gate for time: Python calls per committed transaction stay flat.

A term that grows with the run — a walk over every transaction ever
submitted on each deadlock scan, a list scanned per commit — makes the cost
per transaction climb with run length.  A wall-clock gate cannot resolve a
few percent on a noisy machine, so this gate counts instead: every Python
function call made inside ``DistributedDatabase.run()`` (event loop, audit
and result assembly), via ``sys.setprofile``.  The count is deterministic,
and the run at 10x the transactions may make at most 5% more calls per
committed transaction than the short one.
"""

import sys

from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario

#: Transactions in the short run; the long run is 10x this.
BASE_TRANSACTIONS = 300

#: Calls per committed transaction at 10x may exceed the short run's by this factor.
CALLS_RATIO_CEILING = 1.05


def _calls_per_committed(transactions):
    scenario = get_scenario("read-mostly-analytics").configured(transactions=transactions)
    specs = TransactionGenerator(scenario.system, scenario.workload).generate()
    database = DistributedDatabase(scenario.system)
    database.load_workload(specs, scenario.workload)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = database.run()
    finally:
        sys.setprofile(None)
    assert result.committed == result.submitted == transactions
    return calls / result.committed


def test_calls_per_transaction_are_flat_across_10x_run_growth():
    short = _calls_per_committed(BASE_TRANSACTIONS)
    long = _calls_per_committed(10 * BASE_TRANSACTIONS)
    assert long <= short * CALLS_RATIO_CEILING, (short, long)
