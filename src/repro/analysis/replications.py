"""Replicated runs, the parallel execution engine, and confidence intervals.

The paper's performance statements are about expected behaviour, so a single
seeded run is only one sample.  This module runs the same configuration under
several seeds and aggregates the headline metrics with normal-approximation
confidence intervals, which is what the experiment tables should quote when
more than a smoke test is wanted.

It also hosts the **parallel replication engine**: simulations are described
as picklable :class:`SimulationTask` values and executed by
:func:`run_tasks`, serially or across a ``multiprocessing`` pool.  Each task
carries its own seeds and every worker returns a plain summary dictionary, so
results are *bit-identical* to the serial path and are always merged back in
task (i.e. seed/sweep) order — ``jobs`` changes wall-clock time, never a
number (see DESIGN.md, "Key design decisions").

With a :class:`~repro.store.ResultStore` attached, :func:`run_tasks` becomes
**resumable**: each task's content-addressed key is looked up before
dispatch, cached summaries are reused verbatim, and freshly computed
summaries are appended to the store *as workers finish* (not at the end), so
a killed ``jobs=N`` run keeps every completed replication and a re-run only
executes the missing points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.config import SystemConfig, WorkloadConfig
from repro.common.protocol_names import Protocol
from repro.sim.stats import WelfordAccumulator
from repro.store import ResultStore, task_key, task_payload
from repro.system.database import RunResult
from repro.system.runner import run_simulation

if TYPE_CHECKING:  # pragma: no cover - typing only; imported by the pool path
    from multiprocessing.context import BaseContext

#: Metrics aggregated across replications (taken from ``RunResult.summary()``).
AGGREGATED_METRICS = (
    "mean_system_time",
    "throughput",
    "restarts",
    "deadlock_aborts",
    "backoff_rounds",
    "messages_per_transaction",
)

#: Message kinds of the two-phase commit rounds, reported per run so the
#: E10 tables can quote the per-phase communication cost.
COMMIT_MESSAGE_KINDS = ("prepare", "vote", "decide", "status_query", "status_reply")

#: Message kinds of the coordinator-recovery machinery (decision acks of the
#: presumed variants, cooperative-termination peer traffic), reported
#: separately so the pre-refactor ``commit_messages`` table keeps its shape.
RECOVERY_MESSAGE_KINDS = ("ack", "peer_query", "peer_reply")


# --------------------------------------------------------------------------- #
# The parallel execution engine
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SimulationTask:
    """One self-contained simulation: configuration plus protocol mode.

    Tasks are immutable and picklable, so they can cross process boundaries;
    the seeds live inside the configs, making each task independent of
    execution order and worker identity.  ``selection_mode`` picks the
    dynamic selector's estimation mode (``cumulative`` / ``adaptive`` /
    ``frozen``); it is part of the task's content-addressed key.
    """

    system: SystemConfig
    workload: WorkloadConfig
    protocol: Optional[Union[str, Protocol]] = None
    dynamic_selection: bool = False
    selection_mode: Optional[str] = None


def summarize_run(result: RunResult) -> Dict[str, object]:
    """A plain, picklable summary carrying everything the experiments consume.

    Extends ``RunResult.summary()`` with the per-protocol statistics, the
    deadlock-victim breakdown (so audit-style experiments E4/E6 can be
    shaped from worker output without shipping the full ``RunResult``
    between processes), the windowed time series, and — for drifting
    workloads — the drift boundaries plus the post-drift mean system time
    that the E9 comparison quotes.
    """
    row = result.summary()
    row["deadlocks_found"] = result.deadlocks_found
    row["commit_messages"] = {
        kind: result.messages_by_kind.get(kind, 0) for kind in COMMIT_MESSAGE_KINDS
    }
    row["recovery_messages"] = {
        kind: result.messages_by_kind.get(kind, 0) for kind in RECOVERY_MESSAGE_KINDS
    }
    row["commit_times"] = [outcome.commit_time for outcome in result.metrics.outcomes]
    row["windowed"] = result.metrics.windowed_series()
    row["drift_boundaries"] = list(result.drift_boundaries)
    settled = result.drift_boundaries[-1] if result.drift_boundaries else 0.0
    row["post_drift_mean_system_time"] = result.metrics.mean_system_time_after(settled)
    per_protocol: Dict[str, Dict[str, float]] = {}
    for protocol in Protocol:
        stats = result.metrics.protocol_statistics(protocol)
        per_protocol[str(protocol)] = {
            "mean_system_time": stats.mean_system_time,
            "restarts": stats.restarts,
            "deadlock_aborts": stats.deadlock_aborts,
            "committed": stats.committed,
        }
    row["protocol_stats"] = per_protocol
    victims_by_protocol = [result.protocol_of.get(victim) for victim in result.deadlock_victims]
    row["non_2pl_deadlock_victims"] = sum(
        1
        for protocol in victims_by_protocol
        if protocol is not None and not protocol.is_two_phase_locking
    )
    return row


def execute_task(task: SimulationTask) -> Dict[str, object]:
    """Run one task to completion and summarise it (the worker entry point)."""
    result = run_simulation(
        task.system,
        task.workload,
        protocol=task.protocol,
        dynamic_selection=task.dynamic_selection,
        selection_mode=task.selection_mode,
    )
    return summarize_run(result)


def _execute_indexed(item: Tuple[int, SimulationTask]) -> Tuple[int, Dict[str, object]]:
    """Worker entry point that keeps the task's position through a pool."""
    index, task = item
    return index, execute_task(task)


def _pool_context() -> BaseContext:
    import multiprocessing

    # Fork keeps worker start-up cheap, but only Linux forks safely (macOS
    # system frameworks can crash in forked children, which is why CPython
    # moved the macOS default to spawn).  The platform default works
    # everywhere because tasks and summaries are picklable.
    return multiprocessing.get_context("fork" if sys.platform == "linux" else None)


def run_tasks(
    tasks: Sequence[SimulationTask],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """Execute ``tasks`` and return their summaries **in task order**.

    With ``jobs <= 1`` (or a single task) everything runs in-process; larger
    values fan the tasks across a ``multiprocessing`` pool.  Each task is
    fully seeded, workers perform the identical computation the serial path
    would, and results are merged back in input order — so the output is
    bit-identical regardless of ``jobs``.

    ``store`` attaches a :class:`~repro.store.ResultStore`: tasks whose
    content key is already recorded are served from the store without
    running, and every freshly computed summary is appended the moment its
    worker finishes, so an interrupted run resumes losslessly.  ``force``
    re-executes every task even when cached (the fresh summaries are
    appended and supersede the old entries on the next load).  Because
    cached summaries are the JSON round-trip of what the worker returned,
    store-backed output is byte-identical to a cache-cold run.
    """
    tasks = list(tasks)
    jobs = max(1, int(jobs))
    if store is None:
        if len(tasks) <= 1 or jobs == 1:
            return [execute_task(task) for task in tasks]
        with _pool_context().Pool(processes=min(jobs, len(tasks))) as pool:
            return pool.map(execute_task, tasks)

    results: List[Optional[Dict[str, object]]] = [None] * len(tasks)
    pending: List[Tuple[int, SimulationTask, str]] = []
    for index, task in enumerate(tasks):
        key = task_key(task)
        summary = None
        if force:
            if key in store:
                store.forced += 1
        else:
            summary = store.lookup(key)
        if summary is None:
            pending.append((index, task, key))
        else:
            results[index] = summary
    if pending:
        if jobs == 1 or len(pending) == 1:
            for index, task, key in pending:
                summary = execute_task(task)
                store.put(key, task_payload(task), summary)
                # Serve the JSON round-trip so the output cannot depend on
                # whether this run was cache-cold or resumed.
                results[index] = store.get(key)
        else:
            keys = {index: (task, key) for index, task, key in pending}
            with _pool_context().Pool(processes=min(jobs, len(pending))) as pool:
                iterator = pool.imap_unordered(
                    _execute_indexed, [(index, task) for index, task, _ in pending]
                )
                for index, summary in iterator:
                    task, key = keys[index]
                    store.put(key, task_payload(task), summary)
                    results[index] = store.get(key)
    return results  # type: ignore[return-value]  # every slot is filled above


# --------------------------------------------------------------------------- #
# Replicated runs and aggregation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AggregatedMetric:
    """Mean, spread and confidence half-width of one metric across replications."""

    name: str
    mean: float
    stdev: float
    halfwidth: float
    samples: int


@dataclass
class ReplicatedResult:
    """Aggregate of several independent runs of one configuration."""

    label: str
    replications: int
    metrics: Dict[str, AggregatedMetric]
    all_serializable: bool
    all_committed: bool
    #: Raw per-replication summaries in seed order (windowed series included),
    #: for time-series consumers.
    summaries: Tuple[Dict[str, object], ...] = ()

    def as_row(self) -> Dict[str, object]:
        """Flat row for table rendering: ``metric`` and ``metric_hw`` columns."""
        row: Dict[str, object] = {
            "configuration": self.label,
            "replications": self.replications,
            "serializable": self.all_serializable,
        }
        for name, aggregated in self.metrics.items():
            row[name] = aggregated.mean
            row[f"{name}_hw"] = aggregated.halfwidth
        return row


def replication_tasks(
    system: SystemConfig,
    workload: WorkloadConfig,
    *,
    protocol: Optional[Union[str, Protocol]] = None,
    dynamic_selection: bool = False,
    selection_mode: Optional[str] = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> List[SimulationTask]:
    """One task per replication seed; each re-seeds both configurations."""
    return [
        SimulationTask(
            system=system.with_overrides(seed=system.seed + seed),
            workload=workload.with_overrides(seed=workload.seed + seed),
            protocol=protocol,
            dynamic_selection=dynamic_selection,
            selection_mode=selection_mode,
        )
        for seed in seeds
    ]


def aggregate_replications(
    label: str,
    summaries: Sequence[Dict[str, object]],
    expected_transactions: Sequence[int],
    *,
    confidence_z: float = 1.96,
) -> ReplicatedResult:
    """Fold per-replication summaries (in seed order) into one result."""
    accumulators = {name: WelfordAccumulator() for name in AGGREGATED_METRICS}
    all_serializable = True
    all_committed = True
    for summary, expected in zip(summaries, expected_transactions):
        all_serializable = all_serializable and bool(summary["serializable"])
        all_committed = all_committed and summary["committed"] == expected
        for name in AGGREGATED_METRICS:
            accumulators[name].add(float(summary[name]))
    metrics = {
        name: AggregatedMetric(
            name=name,
            mean=accumulator.mean,
            stdev=accumulator.stdev,
            halfwidth=accumulator.confidence_halfwidth(confidence_z),
            samples=accumulator.count,
        )
        for name, accumulator in accumulators.items()
    }
    return ReplicatedResult(
        label=label,
        replications=len(summaries),
        metrics=metrics,
        all_serializable=all_serializable,
        all_committed=all_committed,
        summaries=tuple(summaries),
    )
