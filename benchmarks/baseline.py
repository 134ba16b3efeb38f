"""Record the perf-regression baseline: before/after numbers for the hot paths.

Runs every workload twice — once with the seed data structures
(:mod:`benchmarks.reference_impls`, monkeypatched into the simulator) and once
with the optimised ones — and writes a machine-readable ``BENCH_BASELINE.json``
at the repository root.  Future perf PRs re-run this script and extend the
trajectory instead of guessing.

The script also *asserts* the A/B determinism contract: the optimised
structures must not change a single observable of the simulation — grant /
rejection / back-off counts, commits, simulated end time, and the
serialization witness order all have to match the seed implementation exactly.
A mismatch exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

import repro.core.queue_manager as _queue_manager_module
import repro.sim.simulator as _simulator_module
import repro.system.database as _database_module
import repro.system.detector as _detector_module
from repro.common.config import ProtocolMix, SystemConfig, WorkloadConfig
from repro.common.ids import CopyId, TransactionId
from repro.common.operations import OperationType
from repro.common.protocol_names import Protocol
from repro.core.data_queue import DataQueue, QueuedRequest
from repro.core.precedence import Precedence
from repro.core.serializability import check_serializable
from repro.sim.events import EventQueue
from repro.storage.log import ExecutionLog
from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator

try:
    from benchmarks.reference_impls import (
        ReferenceDataQueue,
        ReferenceDeadlockDetector,
        ReferenceDeadlockDetectorActor,
        ReferenceEventQueue,
        ReferenceQueueManager,
        reference_check_serializable,
    )
except ImportError:  # executed directly: benchmarks/ itself is sys.path[0]
    from reference_impls import (
        ReferenceDataQueue,
        ReferenceDeadlockDetector,
        ReferenceDeadlockDetectorActor,
        ReferenceEventQueue,
        ReferenceQueueManager,
        reference_check_serializable,
    )

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_BASELINE.json"


@contextmanager
def seed_structures():
    """Swap the seed (pre-optimisation) structures into the simulator."""
    saved = (
        _queue_manager_module.DataQueue,
        _simulator_module.EventQueue,
        _database_module.check_serializable,
        _detector_module.DeadlockDetector,
        _database_module.QueueManager,
        _database_module.DeadlockDetectorActor,
    )
    _queue_manager_module.DataQueue = ReferenceDataQueue
    _simulator_module.EventQueue = ReferenceEventQueue
    _database_module.check_serializable = reference_check_serializable
    _detector_module.DeadlockDetector = ReferenceDeadlockDetector
    _database_module.QueueManager = ReferenceQueueManager
    _database_module.DeadlockDetectorActor = ReferenceDeadlockDetectorActor
    try:
        yield
    finally:
        (
            _queue_manager_module.DataQueue,
            _simulator_module.EventQueue,
            _database_module.check_serializable,
            _detector_module.DeadlockDetector,
            _database_module.QueueManager,
            _database_module.DeadlockDetectorActor,
        ) = saved


def timed(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------- #
# Micro: serializability oracle on a large synthetic log
# --------------------------------------------------------------------- #

def make_synthetic_log(
    *,
    num_entries: int,
    num_transactions: int,
    num_copies: int,
    read_fraction: float,
    seed: int,
) -> ExecutionLog:
    """A random execution log shaped like a large committed run."""
    rng = random.Random(seed)
    log = ExecutionLog()
    for index in range(num_entries):
        copy = CopyId(rng.randrange(num_copies), 0)
        transaction = TransactionId(0, rng.randrange(num_transactions) + 1)
        op = (
            OperationType.READ
            if rng.random() < read_fraction
            else OperationType.WRITE
        )
        log.record(copy, transaction, op, Protocol.TWO_PHASE_LOCKING, float(index))
    return log


def bench_oracle(num_entries: int) -> Dict[str, object]:
    log = make_synthetic_log(
        num_entries=num_entries,
        num_transactions=max(num_entries // 66, 10),
        num_copies=16,
        read_fraction=0.6,
        seed=97,
    )
    before_report = reference_check_serializable(log)
    after_report = check_serializable(log)
    assert before_report.serializable == after_report.serializable
    assert before_report.serialization_order == after_report.serialization_order
    # The current oracle checks the reduced graph: same closure, fewer edges.
    assert after_report.conflict_edges <= before_report.conflict_edges
    before = timed(lambda: reference_check_serializable(log), repeats=1)
    after = timed(lambda: check_serializable(log), repeats=3)
    return {
        "entries": num_entries,
        "transactions": len(log.transactions()),
        "copies": len(log.copies()),
        "before_s": round(before, 4),
        "after_s": round(after, 4),
        "speedup": round(before / after, 2),
        "identical_reports": True,
    }


# --------------------------------------------------------------------- #
# Micro: data queue insert / find / head churn
# --------------------------------------------------------------------- #

def _queue_churn_script(queue_factory: Callable[[], object], steps: int) -> None:
    """Sustained grant-loop churn at a queue depth of ~128 entries."""
    queue = queue_factory()
    window: List[TransactionId] = []
    for step in range(steps):
        transaction = TransactionId(0, step + 1)
        precedence = Precedence(
            timestamp=float(step),
            protocol=Protocol.TIMESTAMP_ORDERING,
            site=0,
            transaction=transaction,
        )
        from repro.core.requests import Request
        from repro.common.ids import RequestId

        request = Request(
            request_id=RequestId(transaction, 0, 0),
            transaction=transaction,
            protocol=Protocol.TIMESTAMP_ORDERING,
            op_type=OperationType.WRITE,
            copy=CopyId(0, 0),
            timestamp=float(step),
            backoff_interval=1.0,
            issuer="bench",
        )
        queue.insert(QueuedRequest(request=request, precedence=precedence))
        window.append(transaction)
        queue.head()
        queue.find(request.request_id)
        if len(window) > 128:
            queue.remove_transaction(window.pop(0))


def bench_data_queue(steps: int) -> Dict[str, object]:
    before = timed(lambda: _queue_churn_script(ReferenceDataQueue, steps), repeats=3)
    after = timed(lambda: _queue_churn_script(DataQueue, steps), repeats=3)
    return {
        "steps": steps,
        "sustained_depth": 128,
        "before_s": round(before, 4),
        "after_s": round(after, 4),
        "speedup": round(before / after, 2),
    }


# --------------------------------------------------------------------- #
# Micro: event-list push / cancel / pop churn with a pending-count monitor
# --------------------------------------------------------------------- #

def _event_churn_script(queue_factory: Callable[[], object], events: int) -> int:
    """Timeout-style churn: push, cancel ~60%, poll the pending count, drain."""
    rng = random.Random(3)
    queue = queue_factory()
    handles = []
    pending_sum = 0
    for index in range(events):
        handles.append(queue.push(float(index), lambda: None))
        if rng.random() < 0.6:
            victim = handles[rng.randrange(len(handles))]
            victim.cancel()
        if index % 16 == 0:
            pending_sum += len(queue)  # the simulator's pending_events probe
    while queue:
        queue.pop()
    return pending_sum


def bench_event_queue(events: int) -> Dict[str, object]:
    before = timed(lambda: _event_churn_script(ReferenceEventQueue, events), repeats=3)
    after = timed(lambda: _event_churn_script(EventQueue, events), repeats=3)
    return {
        "events": events,
        "cancel_fraction": 0.6,
        "before_s": round(before, 4),
        "after_s": round(after, 4),
        "speedup": round(before / after, 2),
    }


# --------------------------------------------------------------------- #
# End to end: an E2-scale mixed-protocol run, seed vs optimised structures
# --------------------------------------------------------------------- #

def e2_scale_configs(num_transactions: int) -> Dict[str, object]:
    """The E2 benchmark's largest point (transaction size 8, hot spots).

    Runs a uniform 2PL / T/O / PA mix so the determinism check exercises
    every protocol path: grants, T/O rejections and PA back-offs.
    """
    system = SystemConfig(
        num_sites=3,
        num_items=32,
        replication_factor=1,
        io_time=0.002,
        deadlock_detection_period=0.2,
        restart_delay=0.02,
        seed=17,
    )
    workload = WorkloadConfig(
        arrival_rate=30.0,
        num_transactions=num_transactions,
        min_size=8,
        max_size=8,
        read_fraction=0.6,
        compute_time=0.003,
        hotspot_probability=0.4,
        hotspot_fraction=0.15,
        protocol_mix=ProtocolMix.uniform(),
        seed=23,
    )
    return {"system": system, "workload": workload}


def run_e2_scale(system: SystemConfig, workload: WorkloadConfig) -> Dict[str, object]:
    database = DistributedDatabase(system)
    specs = TransactionGenerator(system, workload).generate()
    database.load_workload(specs, workload)
    start = time.perf_counter()
    result = database.run()
    wall = time.perf_counter() - start
    grants = rejections = backoffs = 0
    for site in range(system.num_sites):
        for copy in database.catalog.copies_at(site):
            manager = database.queue_manager(copy)
            grants += manager.grants_issued
            rejections += manager.rejections
            backoffs += manager.backoffs
    events = database.simulator.events_processed
    return {
        "wall_s": round(wall, 4),
        "events_processed": events,
        "events_per_s": round(events / wall, 1),
        "grants": grants,
        "rejections": rejections,
        "backoffs": backoffs,
        "committed": result.committed,
        "restarts": result.restarts,
        "deadlock_aborts": result.deadlock_aborts,
        "end_time": result.end_time,
        "serializable": result.serializable,
        "witness_order": [str(tid) for tid in result.serializability.serialization_order],
    }


_AB_KEYS = (
    "grants",
    "rejections",
    "backoffs",
    "committed",
    "restarts",
    "deadlock_aborts",
    "end_time",
    "serializable",
    "witness_order",
)


def _ab_pair(system: SystemConfig, workload: WorkloadConfig) -> Dict[str, object]:
    with seed_structures():
        before = run_e2_scale(system, workload)
    after = run_e2_scale(system, workload)
    identical = all(before[key] == after[key] for key in _AB_KEYS)
    witness = before.pop("witness_order")
    after.pop("witness_order")
    return {
        "before": before,
        "after": after,
        "wall_speedup": round(before["wall_s"] / after["wall_s"], 2),
        "event_throughput_ratio": round(
            after["events_per_s"] / before["events_per_s"], 2
        ),
        "identical_results": identical,
        "witness_order_length": len(witness),
    }


def bench_end_to_end(num_transactions: int) -> Dict[str, object]:
    configs = e2_scale_configs(num_transactions)
    result = _ab_pair(configs["system"], configs["workload"])
    result.update({"num_transactions": num_transactions, "transaction_size": 8})
    return result


def bench_pure_protocols(num_transactions: int) -> Dict[str, Dict[str, object]]:
    """Smaller A/B pairs per pure protocol.

    The mixed run happens to produce no T/O rejections or PA back-offs, so
    these legs make sure the determinism contract also covers the rejection
    and back-off decision paths.
    """
    configs = e2_scale_configs(num_transactions)
    results: Dict[str, Dict[str, object]] = {}
    for protocol in (
        Protocol.TWO_PHASE_LOCKING,
        Protocol.TIMESTAMP_ORDERING,
        Protocol.PRECEDENCE_AGREEMENT,
    ):
        workload = configs["workload"].with_overrides(
            num_transactions=num_transactions,
            protocol_mix=ProtocolMix.pure(protocol),
        )
        result = _ab_pair(configs["system"], workload)
        result["num_transactions"] = num_transactions
        results[str(protocol)] = result
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads; smoke-checks the harness without a stable baseline",
    )
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    if args.output is None:
        # Quick runs get their own file so a smoke-check never clobbers the
        # recorded full-scale baseline.
        args.output = (
            DEFAULT_OUTPUT.with_suffix(".quick.json") if args.quick else DEFAULT_OUTPUT
        )

    oracle_entries = 2_000 if args.quick else 10_000
    queue_steps = 500 if args.quick else 4_000
    event_count = 5_000 if args.quick else 40_000
    e2_transactions = 60 if args.quick else 600

    print(f"oracle micro ({oracle_entries} entries) ...", flush=True)
    oracle = bench_oracle(oracle_entries)
    print(f"  {oracle['before_s']}s -> {oracle['after_s']}s ({oracle['speedup']}x)")

    print(f"data queue micro ({queue_steps} steps) ...", flush=True)
    data_queue = bench_data_queue(queue_steps)
    print(f"  {data_queue['before_s']}s -> {data_queue['after_s']}s ({data_queue['speedup']}x)")

    print(f"event list micro ({event_count} events) ...", flush=True)
    events = bench_event_queue(event_count)
    print(f"  {events['before_s']}s -> {events['after_s']}s ({events['speedup']}x)")

    print(f"end-to-end E2-scale A/B ({e2_transactions} transactions) ...", flush=True)
    end_to_end = bench_end_to_end(e2_transactions)
    print(
        f"  wall {end_to_end['before']['wall_s']}s -> {end_to_end['after']['wall_s']}s"
        f" ({end_to_end['wall_speedup']}x), identical={end_to_end['identical_results']}"
    )

    pure_transactions = max(e2_transactions // 3, 40)
    print(f"pure-protocol A/B pairs ({pure_transactions} transactions each) ...", flush=True)
    pure_runs = bench_pure_protocols(pure_transactions)
    for name, run in pure_runs.items():
        print(
            f"  {name}: {run['wall_speedup']}x, identical={run['identical_results']},"
            f" rejections={run['after']['rejections']}, backoffs={run['after']['backoffs']}"
        )

    baseline = {
        "schema": 1,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "micro": {
            "serializability_oracle": oracle,
            "data_queue_churn": data_queue,
            "event_list_churn": events,
        },
        "end_to_end": {
            "e2_scale_mixed_run": end_to_end,
            "pure_protocol_runs": pure_runs,
        },
    }
    args.output.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    failed = [
        name
        for name, run in [("mixed", end_to_end), *pure_runs.items()]
        if not run["identical_results"]
    ]
    if failed:
        print(
            "A/B DETERMINISM CHECK FAILED: optimised structures changed results "
            f"in: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
