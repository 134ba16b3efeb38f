"""Experiment definitions E1-E11 (see DESIGN.md for the index).

Each function runs one of the paper's evaluation scenarios and returns a list
of flat row dictionaries so that benchmarks, examples and the tables under
``benchmarks/results/`` all share the same numbers.  Parameters default to
laptop-scale values; the benchmark scripts shrink them further to keep the
suite fast.

Every simulation-backed experiment accepts ``jobs``: the runs are described
as :class:`~repro.analysis.replications.SimulationTask` values and fanned
across worker processes by :func:`~repro.analysis.replications.run_tasks`,
with rows assembled in sweep order so the tables are bit-identical to a
serial run.  They likewise accept ``store``/``force`` to attach a
:class:`~repro.store.ResultStore`: cached sweep points are reused instead of
re-simulated and fresh points are persisted as they finish, so an
interrupted sweep resumes losslessly and a warm re-run executes nothing
(E7 measures the STL' evaluator directly and takes neither knob).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import dataclasses

from repro.analysis.replications import SimulationTask, run_tasks
from repro.store import ResultStore
from repro.common.config import ProtocolMix, SystemConfig, WorkloadConfig
from repro.common.protocol_names import Protocol
from repro.selection.parameters import SystemLoadParameters
from repro.selection.stl import ThroughputLossModel
from repro.workload.scenarios import (
    DRIFT_SCENARIOS,
    FAULT_SCENARIOS,
    RECOVERY_SCENARIOS,
    get_scenario,
)

#: Commit-protocol variants E11 races (the full 2PC family; one-phase has
#: no prepared state and nothing to recover).
RECOVERY_COMMIT_PROTOCOLS = ("two-phase", "presumed-abort", "presumed-commit")

_ALL_PROTOCOLS = (
    Protocol.TWO_PHASE_LOCKING,
    Protocol.TIMESTAMP_ORDERING,
    Protocol.PRECEDENCE_AGREEMENT,
)

#: Summary keys copied into every standard result row, in column order.
_ROW_METRICS: Tuple[Tuple[str, str], ...] = (
    ("mean_system_time", "mean_system_time"),
    ("throughput", "throughput"),
    ("restarts", "restarts"),
    ("deadlock_aborts", "deadlock_aborts"),
    ("backoff_rounds", "backoff_rounds"),
    ("messages_per_txn", "messages_per_transaction"),
    ("committed", "committed"),
    ("serializable", "serializable"),
)


def _row_from_summary(summary: Dict[str, object], **extra: object) -> Dict[str, object]:
    row: Dict[str, object] = dict(extra)
    for column, key in _ROW_METRICS:
        row[column] = summary[key]
    return row


def sweep_arrival_rate(
    arrival_rates: Sequence[float],
    *,
    protocols: Sequence[Protocol] = _ALL_PROTOCOLS,
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    include_dynamic: bool = False,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E1: mean system time ``S`` versus arrival rate ``lambda`` per protocol."""
    system = system if system is not None else SystemConfig()
    workload = workload if workload is not None else WorkloadConfig()
    tasks: List[SimulationTask] = []
    labels: List[Tuple[float, str]] = []
    for rate in arrival_rates:
        swept = workload.with_overrides(arrival_rate=rate)
        for protocol in protocols:
            tasks.append(SimulationTask(system=system, workload=swept, protocol=protocol))
            labels.append((rate, str(protocol)))
        if include_dynamic:
            tasks.append(SimulationTask(system=system, workload=swept, dynamic_selection=True))
            labels.append((rate, "dynamic"))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    return [
        _row_from_summary(summary, arrival_rate=rate, protocol=label)
        for summary, (rate, label) in zip(summaries, labels)
    ]


def sweep_transaction_size(
    sizes: Sequence[int],
    *,
    protocols: Sequence[Protocol] = _ALL_PROTOCOLS,
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E2: mean system time versus transaction size ``st`` per protocol."""
    system = system if system is not None else SystemConfig()
    workload = workload if workload is not None else WorkloadConfig()
    tasks: List[SimulationTask] = []
    labels: List[Tuple[int, str]] = []
    for size in sizes:
        swept = workload.with_overrides(min_size=size, max_size=size)
        for protocol in protocols:
            tasks.append(SimulationTask(system=system, workload=swept, protocol=protocol))
            labels.append((size, str(protocol)))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    return [
        _row_from_summary(summary, transaction_size=size, protocol=label)
        for summary, (size, label) in zip(summaries, labels)
    ]


def single_item_write_experiment(
    *,
    arrival_rate: float = 40.0,
    num_transactions: int = 300,
    system: Optional[SystemConfig] = None,
    protocols: Sequence[Protocol] = _ALL_PROTOCOLS,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E3: single-item write-only transactions — 2PL cannot deadlock, T/O restarts.

    Section 1 of the paper: "in an environment where each transaction only
    accesses one data item through a write operation, 2PL outperforms T/O
    since no deadlocks may occur".
    """
    system = system if system is not None else SystemConfig()
    workload = WorkloadConfig(
        arrival_rate=arrival_rate,
        num_transactions=num_transactions,
        min_size=1,
        max_size=1,
        read_fraction=0.0,
        hotspot_probability=0.6,
        hotspot_fraction=0.05,
    )
    tasks = [
        SimulationTask(system=system, workload=workload, protocol=protocol)
        for protocol in protocols
    ]
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    return [
        _row_from_summary(summary, protocol=str(protocol))
        for summary, protocol in zip(summaries, protocols)
    ]


def correctness_audit(
    *,
    arrival_rates: Sequence[float] = (10.0, 40.0),
    num_transactions: int = 300,
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E4: mixed-protocol runs audited for Theorems 2-3 and the corollaries.

    For every run the row records whether the execution was conflict
    serializable, whether any pure-PA or pure-T/O deadlock victim appeared
    (there must be none), and how many restarts PA suffered (must be zero).
    """
    system = system if system is not None else SystemConfig()
    base = workload if workload is not None else WorkloadConfig(num_transactions=num_transactions)
    mixes = {
        "mixed": ProtocolMix.uniform(),
        "pure-PA": ProtocolMix.pure(Protocol.PRECEDENCE_AGREEMENT),
        "pure-T/O": ProtocolMix.pure(Protocol.TIMESTAMP_ORDERING),
    }
    tasks: List[SimulationTask] = []
    labels: List[Tuple[float, str]] = []
    for rate in arrival_rates:
        for label, mix in mixes.items():
            swept = base.with_overrides(arrival_rate=rate, protocol_mix=mix)
            tasks.append(SimulationTask(system=system, workload=swept))
            labels.append((rate, label))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    rows: List[Dict[str, object]] = []
    for summary, (rate, label) in zip(summaries, labels):
        protocol_stats = summary["protocol_stats"]
        pa_stats = protocol_stats[str(Protocol.PRECEDENCE_AGREEMENT)]
        to_stats = protocol_stats[str(Protocol.TIMESTAMP_ORDERING)]
        rows.append(
            {
                "arrival_rate": rate,
                "mix": label,
                "serializable": summary["serializable"],
                "pa_restarts": pa_stats["restarts"] + pa_stats["deadlock_aborts"],
                "to_deadlock_aborts": to_stats["deadlock_aborts"],
                "non_2pl_deadlock_victims": summary["non_2pl_deadlock_victims"],
                "deadlocks_found": summary["deadlocks_found"],
                "committed": summary["committed"],
            }
        )
    return rows


def dynamic_vs_static(
    arrival_rates: Sequence[float],
    *,
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E5: STL-based dynamic selection against each static protocol."""
    return sweep_arrival_rate(
        arrival_rates,
        system=system,
        workload=workload,
        include_dynamic=True,
        jobs=jobs,
        store=store,
        force=force,
    )


def semilock_ablation(
    *,
    arrival_rate: float = 30.0,
    num_transactions: int = 300,
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E6: unified enforcement with semi-locks vs. the naive lock-everything rule.

    The workload is T/O-heavy (two thirds T/O, the rest split), which is where
    Section 4.2 claims semi-locks preserve T/O's degree of concurrency.
    """
    system = system if system is not None else SystemConfig()
    base = workload if workload is not None else WorkloadConfig(num_transactions=num_transactions)
    mix = ProtocolMix(
        {
            Protocol.TIMESTAMP_ORDERING: 4.0,
            Protocol.TWO_PHASE_LOCKING: 1.0,
            Protocol.PRECEDENCE_AGREEMENT: 1.0,
        }
    )
    swept = base.with_overrides(arrival_rate=arrival_rate, protocol_mix=mix)
    modes = (True, False)
    tasks = [
        SimulationTask(
            system=system.with_overrides(semi_locks_enabled=semi_locks), workload=swept
        )
        for semi_locks in modes
    ]
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    rows: List[Dict[str, object]] = []
    for summary, semi_locks in zip(summaries, modes):
        to_stats = summary["protocol_stats"][str(Protocol.TIMESTAMP_ORDERING)]
        rows.append(
            _row_from_summary(
                summary,
                enforcement="semi-locks" if semi_locks else "full locking",
                to_mean_system_time=to_stats["mean_system_time"],
            )
        )
    return rows


def naive_stl_prime(
    model: ThroughputLossModel, initial_loss: float, duration: float
) -> Tuple[float, int]:
    """``STL'`` by direct top-down recursion, no memoisation: ``(value, calls)``.

    The exponential-cost evaluation E7 contrasts with the dynamic program of
    :meth:`~repro.selection.stl.ThroughputLossModel.stl_prime`.  Both use the
    model's time discretisation; the recursion does not cap the number of
    loss levels, so the values agree up to that truncation and float noise.
    """
    lambda_a = model.load.system_throughput
    if duration <= 0 or lambda_a <= 0:
        return 0.0, 0
    initial_loss = max(0.0, initial_loss)
    if initial_loss >= lambda_a:
        return lambda_a * duration, 0
    dt = duration / model.time_steps
    step_gain = model.loss_increment()
    calls = 0

    def recurse(loss: float, steps_left: int) -> float:
        nonlocal calls
        calls += 1
        if steps_left == 0:
            return 0.0
        loss = min(loss, lambda_a)
        block_rate = model.blocking_rate(loss)
        p_block = 1.0 - math.exp(-block_rate * dt) if block_rate > 0 else 0.0
        escalated = 0.0
        if p_block > 0.0:
            escalated = recurse(min(loss + step_gain, lambda_a), steps_left - 1)
        stayed = recurse(loss, steps_left - 1)
        return loss * dt + p_block * escalated + (1.0 - p_block) * stayed

    return recurse(initial_loss, model.time_steps), calls


def stl_cost_experiment(
    *,
    time_steps: Sequence[int] = (8, 12, 16),
    initial_loss: float = 10.0,
    duration: float = 0.5,
    load: Optional[SystemLoadParameters] = None,
) -> List[Dict[str, object]]:
    """E7: cost of evaluating ``STL'`` — dynamic program vs. naive recursion.

    Section 5.1 claims STL' "can be evaluated efficiently through Dynamic
    Programming".  For each discretisation the row reports both values (they
    must agree), the deterministic work counts (DP cells vs. recursion
    calls), and the measured wall-clock times (informational only — the
    counts, not the timings, carry the claim).
    """
    if load is None:
        load = SystemLoadParameters(
            system_throughput=120.0,
            read_throughput=3.0,
            write_throughput=2.0,
            read_fraction=0.6,
            requests_per_transaction=6.0,
        )
    rows: List[Dict[str, object]] = []
    for steps in time_steps:
        model = ThroughputLossModel(load, time_steps=steps)
        started = time.perf_counter()
        dp_value = model.stl_prime(initial_loss, duration)
        dp_seconds = time.perf_counter() - started
        started = time.perf_counter()
        naive_value, naive_calls = naive_stl_prime(model, initial_loss, duration)
        naive_seconds = time.perf_counter() - started
        agreement = abs(dp_value - naive_value) <= 1e-6 * max(1.0, abs(dp_value))
        rows.append(
            {
                "time_steps": steps,
                "stl_prime_dp": dp_value,
                "stl_prime_naive": naive_value,
                "values_agree": agreement,
                "dp_cells": model.dp_cells(initial_loss),
                "naive_calls": naive_calls,
                "dp_seconds": dp_seconds,
                "naive_seconds": naive_seconds,
            }
        )
    return rows


def protocol_switching_ablation(
    *,
    arrival_rate: float = 60.0,
    num_transactions: int = 300,
    thresholds: Sequence[Optional[int]] = (None, 2),
    system: Optional[SystemConfig] = None,
    workload: Optional[WorkloadConfig] = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E8 (extension): protocol switching to PA after repeated aborts.

    The paper lists "allowing transactions to change their concurrency
    control methods" as future work (Section 6, item 4); the reproduction
    bounds starvation by switching a transaction to PA once it has been
    aborted ``protocol_switch_threshold`` times.  The ablation contrasts a
    contended mixed workload with the feature off and on.
    """
    system = system if system is not None else SystemConfig()
    base = workload if workload is not None else WorkloadConfig(num_transactions=num_transactions)
    contended = base.with_overrides(
        arrival_rate=arrival_rate, hotspot_probability=0.5, hotspot_fraction=0.1
    )
    tasks = [
        SimulationTask(
            system=system.with_overrides(protocol_switch_threshold=threshold),
            workload=contended,
        )
        for threshold in thresholds
    ]
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)
    rows: List[Dict[str, object]] = []
    for summary, threshold in zip(summaries, thresholds):
        rows.append(
            {
                "switching": "off" if threshold is None else f"after {threshold} aborts",
                "mean_system_time": summary["mean_system_time"],
                "restarts": summary["restarts"],
                "deadlock_aborts": summary["deadlock_aborts"],
                "protocol_switches": summary["protocol_switches"],
                "committed": summary["committed"],
                "serializable": summary["serializable"],
            }
        )
    return rows


def availability_experiment(
    scenarios: Sequence[str] = FAULT_SCENARIOS,
    *,
    commit_protocols: Sequence[str] = ("one-phase", "two-phase"),
    protocols: Sequence[Protocol] = _ALL_PROTOCOLS,
    transactions: Optional[int] = None,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E10: throughput/availability and write-all atomicity under site failures.

    For every registered fault scenario the driver races each concurrency
    protocol under each commit layer.  Beyond the usual performance columns,
    every row reports the fault-tolerance verdicts: ``atomic`` (the replica
    audit found no half-applied write-all), ``lost_writes`` (write-all
    members silently dropped at crashed sites), ``serializable``, the
    commit-round accounting (mean commit latency, mean blocked-in-doubt
    time, aborted rounds), and the per-phase message counts of the 2PC
    traffic.  Two-phase commit must keep every row atomic and serializable
    across the injected crashes; one-phase commit demonstrably loses
    atomicity (lost writes / divergent replicas) or availability (timeout
    churn) — the claim the E10 benchmark asserts.  Values are averaged (or
    summed, for counts) over ``seeds`` replications; every (scenario,
    commit, protocol, seed) combination is one task, so ``jobs`` parallelism
    and the result store apply per point.
    """
    tasks: List[SimulationTask] = []
    labels: List[Tuple[str, str, str]] = []
    for name in scenarios:
        scenario = get_scenario(name).configured(transactions=transactions)
        for commit_name in commit_protocols:
            commit = dataclasses.replace(scenario.system.commit, protocol=commit_name)
            for protocol in protocols:
                for seed in seeds:
                    tasks.append(
                        SimulationTask(
                            system=scenario.system.with_overrides(
                                seed=scenario.system.seed + seed, commit=commit
                            ),
                            workload=scenario.workload.with_overrides(
                                seed=scenario.workload.seed + seed
                            ),
                            protocol=protocol,
                        )
                    )
                labels.append((name, commit_name, str(protocol)))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)

    def seed_mean(group: Sequence[Dict[str, object]], key: str) -> float:
        return sum(float(summary[key]) for summary in group) / len(group)

    def seed_sum(group: Sequence[Dict[str, object]], key: str) -> int:
        return sum(int(summary[key]) for summary in group)

    rows: List[Dict[str, object]] = []
    per_label = len(seeds)
    for index, (name, commit_name, policy) in enumerate(labels):
        group = summaries[index * per_label : (index + 1) * per_label]
        commit_traffic = sum(
            sum(summary["commit_messages"].values()) for summary in group
        )
        rows.append(
            {
                "scenario": name,
                "commit": commit_name,
                "protocol": policy,
                "committed": seed_sum(group, "committed"),
                "availability": seed_mean(group, "availability"),
                "mean_system_time": seed_mean(group, "mean_system_time"),
                "throughput": seed_mean(group, "throughput"),
                "restarts": seed_sum(group, "restarts"),
                "timeout_restarts": seed_sum(group, "timeout_restarts"),
                "commit_aborts": seed_sum(group, "commit_aborts"),
                "mean_commit_latency": seed_mean(group, "mean_commit_latency"),
                "mean_in_doubt_time": seed_mean(group, "mean_in_doubt_time"),
                "commit_messages": commit_traffic,
                "crashes": seed_sum(group, "crashes"),
                "messages_dropped": seed_sum(group, "messages_dropped"),
                "lost_writes": seed_sum(group, "lost_writes"),
                "divergent_items": seed_sum(group, "replica_divergent_items"),
                "atomic": all(bool(summary["atomic"]) for summary in group),
                "serializable": all(bool(summary["serializable"]) for summary in group),
            }
        )
    return rows


def _scenario_horizon(scenario_name: str) -> float:
    """The availability horizon of one fault scenario.

    Availability-at-horizon asks: of everything submitted, how much had
    committed shortly after the last injected fault cleared?  The horizon is
    therefore the end of the scenario's fault timeline — the latest scheduled
    crash/spike end, or the stochastic fault horizon — plus one time unit of
    settling margin.  A blocking commit layer shows up as transactions still
    undecided (locks held, retries looping) at that instant.
    """
    scenario = get_scenario(scenario_name)
    faults = scenario.system.faults
    if faults is None:
        return 1.0
    ends = [crash.at + crash.duration for crash in faults.crashes]
    ends.extend(crash.at + crash.duration for crash in faults.coordinator_crashes)
    ends.extend(spike.at + spike.duration for spike in faults.spikes)
    if faults.crash_rate > 0 or faults.coordinator_crash_rate > 0:
        ends.append(faults.horizon)
    return max(ends, default=0.0) + 1.0


def recovery_experiment(
    scenarios: Sequence[str] = RECOVERY_SCENARIOS,
    *,
    commit_protocols: Sequence[str] = RECOVERY_COMMIT_PROTOCOLS,
    termination: Sequence[bool] = (False, True),
    transactions: Optional[int] = None,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E11: blocking and availability of the 2PC family under coordinator loss.

    For every fault scenario the driver races each commit-protocol variant
    (presumed-nothing two-phase, presumed-abort, presumed-commit) with the
    cooperative termination protocol off and on.  Each row reports:

    * ``availability`` — fraction of submitted transactions committed by the
      scenario's fault horizon (see :func:`_scenario_horizon`); the blocking
      cost of in-doubt participants shows up here,
    * ``final_availability`` — the same fraction at run end (always 1.0 when
      every transaction eventually commits: 2PC never loses work, it only
      delays it),
    * the blocked-in-doubt accounting (``mean_in_doubt``/``max_in_doubt``),
    * the logging cost (forced vs lazy log writes — the presumed variants'
      failure-free saving), the ack/peer message traffic, and the checkpoint
      truncation counters,
    * the coordinator-recovery accounting: crashes injected, recovery walks
      run, transactions re-driven, mean in-doubt latency the walk resolved,
      and in-doubt records the termination protocol resolved peer-to-peer,
    * the ``atomic``/``serializable`` verdicts, which must hold on every row.

    Values are averaged (or summed, for counts) over ``seeds`` replications;
    every (scenario, variant, termination, seed) combination is one task, so
    ``jobs`` parallelism and the result store apply per point.
    """
    tasks: List[SimulationTask] = []
    labels: List[Tuple[str, str, bool]] = []
    for name in scenarios:
        scenario = get_scenario(name).configured(transactions=transactions)
        for commit_name in commit_protocols:
            for with_termination in termination:
                commit = dataclasses.replace(
                    scenario.system.commit,
                    protocol=commit_name,
                    termination_protocol=with_termination,
                )
                for seed in seeds:
                    tasks.append(
                        SimulationTask(
                            system=scenario.system.with_overrides(
                                seed=scenario.system.seed + seed, commit=commit
                            ),
                            workload=scenario.workload.with_overrides(
                                seed=scenario.workload.seed + seed
                            ),
                        )
                    )
                labels.append((name, commit_name, with_termination))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)

    def seed_mean(group: Sequence[Dict[str, object]], key: str) -> float:
        return sum(float(summary[key]) for summary in group) / len(group)

    def seed_sum(group: Sequence[Dict[str, object]], key: str) -> int:
        return sum(int(summary[key]) for summary in group)

    rows: List[Dict[str, object]] = []
    per_label = len(seeds)
    for index, (name, commit_name, with_termination) in enumerate(labels):
        group = summaries[index * per_label : (index + 1) * per_label]
        horizon = _scenario_horizon(name)
        at_horizon = sum(
            sum(1 for commit_time in summary["commit_times"] if commit_time <= horizon)
            / float(summary["submitted"])
            for summary in group
        ) / len(group)
        peer_traffic = sum(
            summary["recovery_messages"]["peer_query"]
            + summary["recovery_messages"]["peer_reply"]
            for summary in group
        )
        rows.append(
            {
                "scenario": name,
                "commit": commit_name,
                "termination": with_termination,
                "horizon": horizon,
                "availability": at_horizon,
                "final_availability": seed_mean(group, "availability"),
                "committed": seed_sum(group, "committed"),
                "mean_in_doubt": seed_mean(group, "mean_in_doubt_time"),
                "max_in_doubt": max(
                    float(summary["max_in_doubt_time"]) for summary in group
                ),
                "forced_log_writes": seed_sum(group, "forced_log_writes"),
                "lazy_log_writes": seed_sum(group, "lazy_log_writes"),
                "ack_messages": sum(
                    summary["recovery_messages"]["ack"] for summary in group
                ),
                "peer_messages": peer_traffic,
                "coordinator_crashes": seed_sum(group, "coordinator_crashes"),
                "coordinator_recoveries": seed_sum(group, "coordinator_recoveries"),
                "redriven": seed_sum(group, "redriven_transactions"),
                "mean_recovery_latency": seed_mean(group, "mean_recovery_latency"),
                "termination_resolutions": seed_sum(group, "termination_resolutions"),
                "records_truncated": seed_sum(group, "log_records_truncated"),
                "peak_log_records": max(
                    int(summary["peak_log_records"]) for summary in group
                ),
                "timeout_restarts": seed_sum(group, "timeout_restarts"),
                "commit_aborts": seed_sum(group, "commit_aborts"),
                "atomic": all(bool(summary["atomic"]) for summary in group),
                "serializable": all(bool(summary["serializable"]) for summary in group),
            }
        )
    return rows


def drift_adaptation_experiment(
    scenarios: Sequence[str] = DRIFT_SCENARIOS,
    *,
    modes: Sequence[str] = ("adaptive", "frozen"),
    protocols: Sequence[Protocol] = _ALL_PROTOCOLS,
    transactions: Optional[int] = None,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Dict[str, object]]:
    """E9: online adaptation under drifting workloads.

    For every registered drift scenario the driver races the *adaptive*
    selector (sliding-window estimates with exponential decay), the
    *frozen-estimate* selector (parameters pinned as soon as the warm-up
    measurements exist — the stationary-workload assumption made explicit) and each static
    protocol.  Beyond the overall mean system time, each row quotes the
    **post-drift** mean system time — transactions arriving after the last
    drift segment settled — which is where stale estimates hurt: on
    ``hotspot-migration`` the adaptive selector must beat the frozen one
    there.  Values are averaged over ``seeds`` replications; every
    (scenario, policy, seed) combination is one task, so ``jobs``
    parallelism and the result store apply per point.
    """
    policies: List[Tuple[str, Optional[Protocol], Optional[str]]] = [
        (str(protocol), protocol, None) for protocol in protocols
    ]
    policies.extend((mode, None, mode) for mode in modes)

    tasks: List[SimulationTask] = []
    labels: List[Tuple[str, str]] = []
    for name in scenarios:
        scenario = get_scenario(name).configured(transactions=transactions)
        for policy, protocol, mode in policies:
            for seed in seeds:
                tasks.append(
                    SimulationTask(
                        system=scenario.system.with_overrides(seed=scenario.system.seed + seed),
                        workload=scenario.workload.with_overrides(
                            seed=scenario.workload.seed + seed
                        ),
                        protocol=protocol,
                        dynamic_selection=protocol is None,
                        selection_mode=mode,
                    )
                )
            labels.append((name, policy))
    summaries = run_tasks(tasks, jobs=jobs, store=store, force=force)

    def seed_mean(group: Sequence[Dict[str, object]], key: str) -> float:
        return sum(float(summary[key]) for summary in group) / len(group)

    rows: List[Dict[str, object]] = []
    per_policy = len(seeds)
    for index, (name, policy) in enumerate(labels):
        group = summaries[index * per_policy : (index + 1) * per_policy]
        rows.append(
            {
                "scenario": name,
                "policy": policy,
                "mean_system_time": seed_mean(group, "mean_system_time"),
                "post_drift_mean_system_time": seed_mean(group, "post_drift_mean_system_time"),
                "restarts": seed_mean(group, "restarts"),
                "deadlock_aborts": seed_mean(group, "deadlock_aborts"),
                "committed": sum(int(summary["committed"]) for summary in group),
                "serializable": all(bool(summary["serializable"]) for summary in group),
            }
        )
    return rows


def sim_live_equivalence(
    scenario: str = "uniform-baseline",
    *,
    transactions: Optional[int] = None,
    arrival_rate: Optional[float] = None,
    commit: str = "two-phase",
    pacing: float = 0.0,
    compute_scale: float = 0.1,
    request_timeout: float = 2.0,
    drain_timeout: float = 300.0,
) -> List[Dict[str, object]]:
    """E12: the simulator vs. a live localhost cluster on the same workload.

    Resolves ``scenario`` through :func:`repro.live.cluster.live_setup`
    (the same path ``repro.cli serve``/``drive`` use), runs the resulting
    specs once through the simulator and once through an in-process live
    cluster — real TCP between the site daemons — and returns one row per
    mode plus an ``equal`` verdict row.  Equivalence claims, per ISSUE 9's
    differential harness: identical committed-transaction *sets*, identical
    audit verdicts (conflict-serializable, replica-convergent), and a
    unique 2PC decision per commit round across all site logs.  Throughput
    and latency columns are reported for shape comparison only — the live
    run is on the wall clock, so their absolute values differ by the
    pacing/compute scaling.

    Live runs replay on the wall clock against OS scheduling, so no result
    store applies; ``jobs`` parallelism does not either (the cluster already
    runs one asyncio task per site).
    """
    # Imported lazily: the live stack (asyncio, sockets) is irrelevant to
    # every other experiment, and keeps import cycles impossible.
    from repro.live.cluster import live_setup, run_live
    from repro.system.database import DistributedDatabase

    system, specs = live_setup(
        scenario, transactions=transactions, arrival_rate=arrival_rate, commit=commit
    )
    database = DistributedDatabase(system)
    database.load_workload(specs)
    sim = database.run()
    live = run_live(
        system,
        specs,
        pacing=pacing,
        compute_scale=compute_scale,
        request_timeout=request_timeout,
        drain_timeout=drain_timeout,
    )

    def live_commit_latency() -> float:
        weighted = 0.0
        total = 0
        for metrics in live.per_site_metrics.values():
            committed = int(metrics["committed"])
            weighted += committed * float(metrics["mean_commit_latency"])
            total += committed
        return weighted / total if total else 0.0

    sim_row: Dict[str, object] = {
        "mode": "sim",
        "committed": sim.committed,
        "submitted": sim.submitted,
        "serializable": sim.serializable,
        "atomic": sim.atomic,
        "throughput": sim.throughput,
        "mean_commit_latency": sim.metrics.mean_commit_latency,
        "messages_total": sim.messages_total,
        "messages_per_transaction": sim.messages_per_transaction,
        "conflicting_2pc_decisions": 0,
        "committed_set_digest": _committed_set_digest(sim.committed_attempts),
    }
    live_row: Dict[str, object] = {
        "mode": "live",
        "committed": live.committed,
        "submitted": live.submitted,
        "serializable": live.serializable,
        "atomic": live.atomic,
        "throughput": live.throughput,
        "mean_commit_latency": live_commit_latency(),
        "messages_total": live.protocol_messages,
        "messages_per_transaction": (
            live.protocol_messages / live.committed if live.committed else 0.0
        ),
        "conflicting_2pc_decisions": len(live.conflicting_decisions()),
        "committed_set_digest": _committed_set_digest(live.committed_attempts),
    }
    sets_equal = set(sim.committed_attempts) == set(live.committed_attempts)
    verdicts_equal = (
        sim.serializable == live.serializable and sim.atomic == live.atomic
    )
    decisions_unique = not live.conflicting_decisions()
    verdict_row: Dict[str, object] = {
        "mode": "equal",
        "committed": sim.committed == live.committed,
        "submitted": sim.submitted == live.submitted,
        "serializable": verdicts_equal,
        "atomic": verdicts_equal,
        "conflicting_2pc_decisions": decisions_unique,
        "committed_set_digest": sets_equal,
        # The one verdict the harness gates on.
        "equivalent": sets_equal and verdicts_equal and decisions_unique,
    }
    sim_row["equivalent"] = ""
    live_row["equivalent"] = ""
    return [sim_row, live_row, verdict_row]


def _committed_set_digest(committed_attempts: Dict[object, int]) -> str:
    """Short stable digest of a committed-transaction set, for table rows."""
    import hashlib

    text = ",".join(sorted(repr(tid) for tid in committed_attempts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
