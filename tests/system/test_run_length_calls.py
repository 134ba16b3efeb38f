"""Run-length gates for time, counted in Python calls.

Calls per committed transaction stay flat with run length; a whole run's
calls per committed transaction, the queue manager's calls per handled
message and the coordinator's calls per handled message stay under fixed
ceilings.

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

from repro.common.config import ProtocolMix
from repro.common.ids import CopyId, TransactionId
from repro.common.protocol_names import Protocol
from repro.core.queue_manager import QueueManager
from repro.system import coordinator
from repro.system.coordinator import RequestIssuerActor
from repro.system.database import DistributedDatabase
from repro.system.queue_manager_actor import QueueManagerActor
from repro.workload.generator import TransactionGenerator
from repro.workload.scenarios import get_scenario

from tests.conftest import make_request

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


#: Python calls made inside ``QueueManagerActor.handle`` per handled message on
#: ``zipf-hotspot`` (2PL+PA, 300 transactions), measured on CPython 3.11.  The
#: count includes what the handler calls out to (network send, execution log,
#: metrics).  The queue manager that sorted its lock table on every grant test
#: and walked every lock after every release made 74.6; with the id types as
#: frozen dataclasses (a Python-level ``__hash__`` on every lookup), 34.6.
QUEUE_MANAGER_CALLS_MEASURED = 24.35

#: The gate: the measured value plus 10%.  It guards the layer's shape — no
#: per-request sort or whole-table walk creeping back — and is not a speed-up
#: claim.
QUEUE_MANAGER_CALLS_CEILING = QUEUE_MANAGER_CALLS_MEASURED * 1.10


def _queue_manager_calls_per_message():
    scenario = get_scenario("zipf-hotspot").configured(transactions=BASE_TRANSACTIONS)
    workload = scenario.workload.with_overrides(
        protocol_mix=ProtocolMix(
            {Protocol.TWO_PHASE_LOCKING: 1.0, Protocol.PRECEDENCE_AGREEMENT: 1.0}
        )
    )
    specs = TransactionGenerator(scenario.system, workload).generate()
    database = DistributedDatabase(scenario.system)
    database.load_workload(specs, workload)
    handle = QueueManagerActor.handle
    handle_code = handle.__code__
    depth = messages = calls = 0

    def count(frame, event, _arg):
        nonlocal depth, messages, calls
        if event == "call":
            if frame.f_code is handle_code:
                depth += 1
                messages += 1
            if depth:
                calls += 1
        elif event == "return" and frame.f_code is handle_code:
            depth -= 1

    sys.setprofile(count)
    try:
        result = database.run()
    finally:
        sys.setprofile(None)
    assert result.committed == result.submitted == BASE_TRANSACTIONS
    return calls / messages


def test_queue_manager_calls_per_message_stay_lean():
    per_message = _queue_manager_calls_per_message()
    assert per_message <= QUEUE_MANAGER_CALLS_CEILING, per_message


#: Python calls per committed transaction over a whole ``run()`` on
#: ``zipf-hotspot`` (2PL+PA, 300 transactions), measured on CPython 3.11:
#: event loop, every actor, the audit and the result assembly.  With the id
#: types as frozen dataclasses (a Python-level ``__hash__`` on every lookup)
#: it was 866; before the coordinator planned once per transaction and the
#: envelope became a tuple, 1,036.
WHOLE_RUN_CALLS_MEASURED = 638.7

#: The gate: the measured value plus 10%.  It guards the per-message constant
#: of every layer at once — no Python-level id hash, per-message record or
#: per-attempt walk creeping back — and is not a speed-up claim.
WHOLE_RUN_CALLS_CEILING = WHOLE_RUN_CALLS_MEASURED * 1.10

#: ``zipf-hotspot``'s T/O-heavy mix: two thirds T/O, the rest split evenly.
#: T/O rejections restart each transaction about four times here, so the
#: per-attempt path weighs as much as the per-message one.
TO_HEAVY = ProtocolMix(
    {
        Protocol.TWO_PHASE_LOCKING: 1.0,
        Protocol.TIMESTAMP_ORDERING: 4.0,
        Protocol.PRECEDENCE_AGREEMENT: 1.0,
    }
)

#: Python calls made by the coordinator per message it handles, on
#: ``zipf-hotspot`` under :data:`TO_HEAVY` (300 transactions), measured on
#: CPython 3.11.  The count covers every call made while a frame of
#: ``repro/system/coordinator.py`` is on the stack — message handlers,
#: arrivals, restart and execution timers, and what they call out to (the
#: commit layer, the network send, metrics).  Translating the spec on every
#: attempt made it 49.1; a frozen-dataclass envelope, 37.1.
COORDINATOR_CALLS_MEASURED = 32.94

#: The gate: the measured value plus 10%.  It guards the coordinator's shape
#: — one plan per transaction, counters instead of walks, a one-call
#: envelope — and is not a speed-up claim.
COORDINATOR_CALLS_CEILING = COORDINATOR_CALLS_MEASURED * 1.10


def _zipf_hotspot(mix):
    scenario = get_scenario("zipf-hotspot").configured(transactions=BASE_TRANSACTIONS)
    workload = scenario.workload.with_overrides(protocol_mix=mix)
    specs = TransactionGenerator(scenario.system, workload).generate()
    database = DistributedDatabase(scenario.system)
    database.load_workload(specs, workload)
    return database


def _whole_run_calls_per_committed():
    database = _zipf_hotspot(
        ProtocolMix({Protocol.TWO_PHASE_LOCKING: 1.0, Protocol.PRECEDENCE_AGREEMENT: 1.0})
    )
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
    assert result.committed == result.submitted == BASE_TRANSACTIONS
    return calls / result.committed


def test_whole_run_calls_per_transaction_stay_lean():
    per_transaction = _whole_run_calls_per_committed()
    assert per_transaction <= WHOLE_RUN_CALLS_CEILING, per_transaction


def _coordinator_calls_per_message():
    database = _zipf_hotspot(TO_HEAVY)
    coordinator_file = coordinator.__file__
    handle_code = RequestIssuerActor.handle.__code__
    depth = messages = calls = 0

    def count(frame, event, _arg):
        nonlocal depth, messages, calls
        if event == "call":
            code = frame.f_code
            if code is handle_code:
                messages += 1
            if depth or code.co_filename == coordinator_file:
                depth += 1
                calls += 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(count)
    try:
        result = database.run()
    finally:
        sys.setprofile(None)
    assert result.committed == result.submitted == BASE_TRANSACTIONS
    assert result.metrics.total_restarts() > 3 * BASE_TRANSACTIONS
    return calls / messages


def test_coordinator_calls_per_message_stay_lean():
    per_message = _coordinator_calls_per_message()
    assert per_message <= COORDINATOR_CALLS_CEILING, per_message


def _queue_manager_steps(readers):
    """Python calls and lines run in ``repro.core`` for one blocked write and one release.

    ``readers`` other transactions hold shared read locks on the copy.
    """
    manager = QueueManager(CopyId(0, 0))
    for seq in range(readers):
        manager.submit(make_request(tid=TransactionId(1, seq), op="r"), 1.0)
    writer = make_request(tid=TransactionId(2, 0), op="w")
    steps = 0

    def trace(frame, event, _arg):
        nonlocal steps
        if "repro/core/" not in frame.f_code.co_filename.replace("\\", "/"):
            return None
        steps += 1
        return trace

    sys.settrace(trace)
    try:
        manager.submit(writer, 2.0)  # waits behind the readers
        manager.release(TransactionId(1, 0), 3.0)  # nothing turns normal or grantable
    finally:
        sys.settrace(None)
    assert len(manager.drain_effects()) == readers  # the readers' grants, nothing more
    return steps


def test_queue_manager_steps_do_not_grow_with_locks_held():
    """A request and a release cost the same with 2 or 40 read locks held.

    Neither the grant test nor the promotion after a release may walk, sort
    or copy the copy's lock table.
    """
    assert _queue_manager_steps(40) == _queue_manager_steps(2)
