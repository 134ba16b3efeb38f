"""The experiment registry: E1-E12 of DESIGN.md's index as data.

An :class:`Experiment` names the parameters it reads (with their defaults)
and the bench's small sizes.  A simulation-backed experiment turns its
parameters into a grid of points — a row label plus the
:class:`~repro.analysis.replications.SimulationTask` values behind it — and
folds each point's summaries into one table row.  :func:`run_experiment`
runs the whole grid in one :func:`~repro.analysis.replications.run_tasks`
call: ``jobs`` fans it across worker processes, ``store``/``force`` make it
resumable, and rows come back in grid order, so a table is byte-identical
serially, in parallel and on a warm re-run.  E7 (the STL' evaluator) and
E12 (the live cluster) run no simulation tasks; each has a plain ``run``
and takes no store.

``python -m repro.cli sweep``, the parametrised bench
(``benchmarks/bench_experiments.py``, which asserts each entry's ``check``
on its bench-size rows), the generated experiment page and
``tools/check_docs.py`` all read this registry.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.replications import SimulationTask, replication_tasks, run_tasks
from repro.common.config import ProtocolMix, SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.common.protocol_names import Protocol
from repro.store import ResultStore
from repro.workload.scenarios import (
    DRIFT_SCENARIOS,
    FAULT_SCENARIOS,
    RECOVERY_SCENARIOS,
    get_scenario,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; E7 imports the model lazily
    from repro.selection.stl import ThroughputLossModel

Row = Dict[str, object]
Summary = Dict[str, object]
Params = Mapping[str, Any]
#: One grid point: the row's label columns and the tasks whose summaries it folds.
Point = Tuple[Row, List[SimulationTask]]

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

#: The system and workload the E1-E8 benches share: small, with a hot spot.
BENCH_SYSTEM = SystemConfig(
    num_sites=3,
    num_items=32,
    replication_factor=1,
    io_time=0.002,
    deadlock_detection_period=0.2,
    restart_delay=0.02,
    seed=17,
)
BENCH_WORKLOAD = WorkloadConfig(
    arrival_rate=20.0,
    num_transactions=150,
    min_size=2,
    max_size=6,
    read_fraction=0.6,
    compute_time=0.003,
    hotspot_probability=0.25,
    hotspot_fraction=0.15,
    seed=23,
)


@dataclass(frozen=True)
class Experiment:
    """One experiment of DESIGN.md's index.

    ``params`` maps every parameter the experiment reads to its default, and
    ``bench`` overrides some of them at the bench's small size.  A ``system``
    or ``workload`` parameter is read whole, except the config fields the
    grid sets itself, which ``overrides`` names (``"workload.arrival_rate"``).
    A simulation-backed experiment has ``points`` (parameters to the grid)
    and ``row`` (a point's label and its summaries in task order to one
    row); E7 and E12 have ``run`` (parameters to rows) instead.  ``columns``
    are the bench table's columns and ``check`` asserts the bench's claims
    on its rows.
    """

    id: str
    title: str
    params: Mapping[str, Any]
    bench: Mapping[str, Any]
    columns: Tuple[str, ...]
    check: Callable[[List[Row]], None]
    overrides: Tuple[str, ...] = ()
    points: Optional[Callable[[Params], List[Point]]] = None
    row: Optional[Callable[[Row, List[Summary]], Row]] = None
    run: Optional[Callable[[Params], List[Row]]] = None

    def reads(self, name: str) -> bool:
        """Whether a parameter, or a ``system.<field>`` / ``workload.<field>``
        of one, reaches this experiment's runs."""
        config = name.split(".", 1)[0]
        return name in self.params or (
            config != name and config in self.params and name not in self.overrides
        )


def run_experiment(
    experiment_id: str,
    params: Optional[Params] = None,
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
) -> List[Row]:
    """The rows of one experiment under ``params`` (defaults fill the rest).

    Parameters the experiment does not read are ignored.  The grid's tasks
    go through one :func:`~repro.analysis.replications.run_tasks` call with
    ``jobs``/``store``/``force``; an experiment with a ``run`` ignores them.
    """
    experiment = get_experiment(experiment_id)
    given = params or {}
    merged = {name: given.get(name, default) for name, default in experiment.params.items()}
    if experiment.run is not None:
        return experiment.run(merged)
    points = experiment.points(merged)
    summaries = iter(
        run_tasks(
            [task for _, tasks in points for task in tasks], jobs=jobs, store=store, force=force
        )
    )
    return [experiment.row(label, [next(summaries) for _ in tasks]) for label, tasks in points]


# --------------------------------------------------------------------------- #
# Rows
# --------------------------------------------------------------------------- #


def _row_from_summary(summary: Summary, **extra: object) -> Row:
    row: Row = dict(extra)
    for column, key in _ROW_METRICS:
        row[column] = summary[key]
    return row


def _standard_row(label: Row, summaries: List[Summary]) -> Row:
    (summary,) = summaries
    return _row_from_summary(summary, **label)


class _Seeds:
    """One grid point's summaries, one per replication seed, folded per metric."""

    def __init__(self, group: Sequence[Summary]) -> None:
        self.group = group

    def mean(self, key: str) -> float:
        return sum(float(summary[key]) for summary in self.group) / len(self.group)

    def total(self, key: str) -> int:
        return sum(int(summary[key]) for summary in self.group)

    def every(self, key: str) -> bool:
        return all(bool(summary[key]) for summary in self.group)


# --------------------------------------------------------------------------- #
# E1-E8: one task per point, built from the given system and workload
# --------------------------------------------------------------------------- #


def _rate_points(params: Params, *, dynamic: bool) -> List[Point]:
    system = params["system"]
    points: List[Point] = []
    for rate in params["rates"]:
        swept = params["workload"].with_overrides(arrival_rate=rate)
        for protocol in _ALL_PROTOCOLS:
            task = SimulationTask(system=system, workload=swept, protocol=protocol)
            points.append(({"arrival_rate": rate, "protocol": str(protocol)}, [task]))
        if dynamic:
            task = SimulationTask(system=system, workload=swept, dynamic_selection=True)
            points.append(({"arrival_rate": rate, "protocol": "dynamic"}, [task]))
    return points


def _size_points(params: Params) -> List[Point]:
    points: List[Point] = []
    for size in params["sizes"]:
        swept = params["workload"].with_overrides(min_size=size, max_size=size)
        for protocol in _ALL_PROTOCOLS:
            task = SimulationTask(system=params["system"], workload=swept, protocol=protocol)
            points.append(({"transaction_size": size, "protocol": str(protocol)}, [task]))
    return points


def _single_item_points(params: Params) -> List[Point]:
    workload = WorkloadConfig(
        arrival_rate=params["arrival_rate"],
        num_transactions=params["transactions"],
        min_size=1,
        max_size=1,
        read_fraction=0.0,
        hotspot_probability=0.6,
        hotspot_fraction=0.05,
    )
    return [
        (
            {"protocol": str(protocol)},
            [SimulationTask(system=params["system"], workload=workload, protocol=protocol)],
        )
        for protocol in _ALL_PROTOCOLS
    ]


_AUDIT_MIXES = {
    "mixed": ProtocolMix.uniform(),
    "pure-PA": ProtocolMix.pure(Protocol.PRECEDENCE_AGREEMENT),
    "pure-T/O": ProtocolMix.pure(Protocol.TIMESTAMP_ORDERING),
}


def _audit_points(params: Params) -> List[Point]:
    points: List[Point] = []
    for rate in params["rates"]:
        for label, mix in _AUDIT_MIXES.items():
            swept = params["workload"].with_overrides(arrival_rate=rate, protocol_mix=mix)
            task = SimulationTask(system=params["system"], workload=swept)
            points.append(({"arrival_rate": rate, "mix": label}, [task]))
    return points


def _audit_row(label: Row, summaries: List[Summary]) -> Row:
    (summary,) = summaries
    protocol_stats = summary["protocol_stats"]
    pa_stats = protocol_stats[str(Protocol.PRECEDENCE_AGREEMENT)]
    to_stats = protocol_stats[str(Protocol.TIMESTAMP_ORDERING)]
    return {
        **label,
        "serializable": summary["serializable"],
        "pa_restarts": pa_stats["restarts"] + pa_stats["deadlock_aborts"],
        "to_deadlock_aborts": to_stats["deadlock_aborts"],
        "non_2pl_deadlock_victims": summary["non_2pl_deadlock_victims"],
        "deadlocks_found": summary["deadlocks_found"],
        "committed": summary["committed"],
    }


def _semilock_points(params: Params) -> List[Point]:
    # T/O-heavy (two thirds T/O, the rest split): where Section 4.2 claims
    # semi-locks preserve T/O's degree of concurrency.
    mix = ProtocolMix(
        {
            Protocol.TIMESTAMP_ORDERING: 4.0,
            Protocol.TWO_PHASE_LOCKING: 1.0,
            Protocol.PRECEDENCE_AGREEMENT: 1.0,
        }
    )
    workload = params["workload"].with_overrides(protocol_mix=mix)
    return [
        (
            {"enforcement": "semi-locks" if semi_locks else "full locking"},
            [
                SimulationTask(
                    system=params["system"].with_overrides(semi_locks_enabled=semi_locks),
                    workload=workload,
                )
            ],
        )
        for semi_locks in (True, False)
    ]


def _semilock_row(label: Row, summaries: List[Summary]) -> Row:
    (summary,) = summaries
    to_stats = summary["protocol_stats"][str(Protocol.TIMESTAMP_ORDERING)]
    return _row_from_summary(summary, **label, to_mean_system_time=to_stats["mean_system_time"])


def _switching_points(params: Params) -> List[Point]:
    contended = params["workload"].with_overrides(hotspot_probability=0.5, hotspot_fraction=0.1)
    return [
        (
            {"switching": "off" if threshold is None else f"after {threshold} aborts"},
            [
                SimulationTask(
                    system=params["system"].with_overrides(protocol_switch_threshold=threshold),
                    workload=contended,
                )
            ],
        )
        for threshold in (None, 2)
    ]


def _switching_row(label: Row, summaries: List[Summary]) -> Row:
    (summary,) = summaries
    return {
        **label,
        **{
            key: summary[key]
            for key in (
                "mean_system_time",
                "restarts",
                "deadlock_aborts",
                "protocol_switches",
                "committed",
                "serializable",
            )
        },
    }


# --------------------------------------------------------------------------- #
# E9-E11: registered scenarios, one task per replication seed
# --------------------------------------------------------------------------- #


def _drift_points(params: Params) -> List[Point]:
    policies: List[Tuple[str, Optional[Protocol], Optional[str]]] = [
        (str(protocol), protocol, None) for protocol in _ALL_PROTOCOLS
    ]
    policies.extend((mode, None, mode) for mode in ("adaptive", "frozen"))
    points: List[Point] = []
    for name in params["scenarios"]:
        scenario = get_scenario(name).configured(transactions=params["transactions"])
        for policy, protocol, mode in policies:
            tasks = replication_tasks(
                scenario.system,
                scenario.workload,
                protocol=protocol,
                dynamic_selection=protocol is None,
                selection_mode=mode,
                seeds=params["seeds"],
            )
            points.append(({"scenario": name, "policy": policy}, tasks))
    return points


def _drift_row(label: Row, summaries: List[Summary]) -> Row:
    seeds = _Seeds(summaries)
    return {
        **label,
        "mean_system_time": seeds.mean("mean_system_time"),
        "post_drift_mean_system_time": seeds.mean("post_drift_mean_system_time"),
        "restarts": seeds.mean("restarts"),
        "deadlock_aborts": seeds.mean("deadlock_aborts"),
        "committed": seeds.total("committed"),
        "serializable": seeds.every("serializable"),
    }


def _availability_points(params: Params) -> List[Point]:
    points: List[Point] = []
    for name in params["scenarios"]:
        scenario = get_scenario(name).configured(transactions=params["transactions"])
        for commit_name in ("one-phase", "two-phase"):
            commit = dataclasses.replace(scenario.system.commit, protocol=commit_name)
            system = scenario.system.with_overrides(commit=commit)
            for protocol in _ALL_PROTOCOLS:
                tasks = replication_tasks(
                    system, scenario.workload, protocol=protocol, seeds=params["seeds"]
                )
                label = {"scenario": name, "commit": commit_name, "protocol": str(protocol)}
                points.append((label, tasks))
    return points


def _availability_row(label: Row, summaries: List[Summary]) -> Row:
    seeds = _Seeds(summaries)
    return {
        **label,
        "committed": seeds.total("committed"),
        "availability": seeds.mean("availability"),
        "mean_system_time": seeds.mean("mean_system_time"),
        "throughput": seeds.mean("throughput"),
        "restarts": seeds.total("restarts"),
        "timeout_restarts": seeds.total("timeout_restarts"),
        "commit_aborts": seeds.total("commit_aborts"),
        "mean_commit_latency": seeds.mean("mean_commit_latency"),
        "mean_in_doubt_time": seeds.mean("mean_in_doubt_time"),
        "commit_messages": sum(sum(summary["commit_messages"].values()) for summary in summaries),
        "crashes": seeds.total("crashes"),
        "messages_dropped": seeds.total("messages_dropped"),
        "lost_writes": seeds.total("lost_writes"),
        "divergent_items": seeds.total("replica_divergent_items"),
        "atomic": seeds.every("atomic"),
        "serializable": seeds.every("serializable"),
    }


#: Commit-protocol variants E11 races (the full 2PC family; one-phase has
#: no prepared state and nothing to recover).
RECOVERY_COMMIT_PROTOCOLS = ("two-phase", "presumed-abort", "presumed-commit")


def _scenario_horizon(scenario_name: str) -> float:
    """The availability horizon of one fault scenario.

    Availability-at-horizon asks: of everything submitted, how much had
    committed shortly after the last injected fault cleared?  The horizon is
    therefore the end of the scenario's fault timeline — the latest scheduled
    crash/spike end, or the stochastic fault horizon — plus one time unit of
    settling margin.  A blocking commit layer shows up as transactions still
    undecided (locks held, retries looping) at that instant.
    """
    faults = get_scenario(scenario_name).system.faults
    if faults is None:
        return 1.0
    ends = [crash.at + crash.duration for crash in faults.crashes]
    ends.extend(crash.at + crash.duration for crash in faults.coordinator_crashes)
    ends.extend(spike.at + spike.duration for spike in faults.spikes)
    if faults.crash_rate > 0 or faults.coordinator_crash_rate > 0:
        ends.append(faults.horizon)
    return max(ends, default=0.0) + 1.0


def _recovery_points(params: Params) -> List[Point]:
    points: List[Point] = []
    for name in params["scenarios"]:
        scenario = get_scenario(name).configured(transactions=params["transactions"])
        for commit_name in RECOVERY_COMMIT_PROTOCOLS:
            for termination in (False, True):
                commit = dataclasses.replace(
                    scenario.system.commit,
                    protocol=commit_name,
                    termination_protocol=termination,
                )
                tasks = replication_tasks(
                    scenario.system.with_overrides(commit=commit),
                    scenario.workload,
                    seeds=params["seeds"],
                )
                label = {"scenario": name, "commit": commit_name, "termination": termination}
                points.append((label, tasks))
    return points


def _recovery_row(label: Row, summaries: List[Summary]) -> Row:
    seeds = _Seeds(summaries)
    horizon = _scenario_horizon(label["scenario"])
    at_horizon = sum(
        sum(1 for commit_time in summary["commit_times"] if commit_time <= horizon)
        / float(summary["submitted"])
        for summary in summaries
    ) / len(summaries)
    messages = [summary["recovery_messages"] for summary in summaries]
    return {
        **label,
        "horizon": horizon,
        "availability": at_horizon,
        "final_availability": seeds.mean("availability"),
        "committed": seeds.total("committed"),
        "mean_in_doubt": seeds.mean("mean_in_doubt_time"),
        "max_in_doubt": max(float(summary["max_in_doubt_time"]) for summary in summaries),
        "forced_log_writes": seeds.total("forced_log_writes"),
        "lazy_log_writes": seeds.total("lazy_log_writes"),
        "ack_messages": sum(counts["ack"] for counts in messages),
        "peer_messages": sum(counts["peer_query"] + counts["peer_reply"] for counts in messages),
        "coordinator_crashes": seeds.total("coordinator_crashes"),
        "coordinator_recoveries": seeds.total("coordinator_recoveries"),
        "redriven": seeds.total("redriven_transactions"),
        "mean_recovery_latency": seeds.mean("mean_recovery_latency"),
        "termination_resolutions": seeds.total("termination_resolutions"),
        "records_truncated": seeds.total("log_records_truncated"),
        "peak_log_records": max(int(summary["peak_log_records"]) for summary in summaries),
        "timeout_restarts": seeds.total("timeout_restarts"),
        "commit_aborts": seeds.total("commit_aborts"),
        "atomic": seeds.every("atomic"),
        "serializable": seeds.every("serializable"),
    }


# --------------------------------------------------------------------------- #
# E7 and E12: no simulation tasks
# --------------------------------------------------------------------------- #


def naive_stl_prime(
    model: "ThroughputLossModel", initial_loss: float, duration: float
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


def _stl_cost_rows(params: Params) -> List[Row]:
    """E7: ``STL'`` by the dynamic program and by the naive recursion.

    For each discretisation the row reports both values (they must agree),
    the deterministic work counts (DP cells vs. recursion calls), and the
    measured wall-clock times (informational only — the counts, not the
    timings, carry the claim).
    """
    from repro.selection.parameters import SystemLoadParameters
    from repro.selection.stl import ThroughputLossModel

    load = SystemLoadParameters(
        system_throughput=120.0,
        read_throughput=3.0,
        write_throughput=2.0,
        read_fraction=0.6,
        requests_per_transaction=6.0,
    )
    initial_loss, duration = 10.0, 0.5
    rows: List[Row] = []
    for steps in params["time_steps"]:
        model = ThroughputLossModel(load, time_steps=steps)
        started = time.perf_counter()
        dp_value = model.stl_prime(initial_loss, duration)
        dp_seconds = time.perf_counter() - started
        started = time.perf_counter()
        naive_value, naive_calls = naive_stl_prime(model, initial_loss, duration)
        naive_seconds = time.perf_counter() - started
        rows.append(
            {
                "time_steps": steps,
                "stl_prime_dp": dp_value,
                "stl_prime_naive": naive_value,
                "values_agree": abs(dp_value - naive_value) <= 1e-6 * max(1.0, abs(dp_value)),
                "dp_cells": model.dp_cells(initial_loss),
                "naive_calls": naive_calls,
                "dp_seconds": dp_seconds,
                "naive_seconds": naive_seconds,
            }
        )
    return rows


def _sim_live_rows(params: Params) -> List[Row]:
    """E12: the simulator vs. a live localhost cluster on the same workload.

    Resolves the first of ``scenarios`` through
    :func:`repro.live.cluster.live_setup` (the path ``repro.cli
    serve``/``drive`` use), runs the specs once through the simulator and
    once through an in-process live cluster — real TCP between the site
    daemons — and returns one row per mode plus an ``equal`` verdict row:
    identical committed-transaction sets, identical audit verdicts and a
    unique 2PC decision per commit round.  Throughput and latency are for
    shape only; the live run is on the wall clock.
    """
    if params["commit"] == "one-phase":
        raise ConfigurationError(
            "e12 runs a live cluster, which refuses one-phase commit "
            "(no prepare/vote exchange to run over a real network)"
        )
    # Imported lazily: the live stack (asyncio, sockets) is irrelevant to
    # every other experiment.
    from repro.live.cluster import live_setup, run_live
    from repro.system.database import DistributedDatabase

    system, specs = live_setup(
        params["scenarios"][0], transactions=params["transactions"], commit=params["commit"]
    )
    database = DistributedDatabase(system)
    database.load_workload(specs)
    sim = database.run()
    live = run_live(
        system,
        specs,
        pacing=0.0,
        compute_scale=params["compute_scale"],
        request_timeout=2.0,
        drain_timeout=300.0,
    )

    committed_live = sum(int(metrics["committed"]) for metrics in live.per_site_metrics.values())
    weighted_latency = sum(
        int(metrics["committed"]) * float(metrics["mean_commit_latency"])
        for metrics in live.per_site_metrics.values()
    )
    sim_row: Row = {
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
        "equivalent": "",
    }
    live_row: Row = {
        "mode": "live",
        "committed": live.committed,
        "submitted": live.submitted,
        "serializable": live.serializable,
        "atomic": live.atomic,
        "throughput": live.throughput,
        "mean_commit_latency": weighted_latency / committed_live if committed_live else 0.0,
        "messages_total": live.protocol_messages,
        "messages_per_transaction": (
            live.protocol_messages / live.committed if live.committed else 0.0
        ),
        "conflicting_2pc_decisions": len(live.conflicting_decisions()),
        "committed_set_digest": _committed_set_digest(live.committed_attempts),
        "equivalent": "",
    }
    sets_equal = set(sim.committed_attempts) == set(live.committed_attempts)
    verdicts_equal = sim.serializable == live.serializable and sim.atomic == live.atomic
    decisions_unique = not live.conflicting_decisions()
    verdict_row: Row = {
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
    return [sim_row, live_row, verdict_row]


def _committed_set_digest(committed_attempts: Dict[object, int]) -> str:
    """Short stable digest of a committed-transaction set, for table rows."""
    import hashlib

    text = ",".join(sorted(repr(tid) for tid in committed_attempts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------------- #
# The bench's checks, one per experiment
# --------------------------------------------------------------------------- #


def _check_arrival_sweep(rows: List[Row]) -> None:
    by_key = {(row["arrival_rate"], row["protocol"]): row for row in rows}
    rates = sorted({row["arrival_rate"] for row in rows})
    assert all(row["serializable"] for row in rows)
    # At the highest load 2PL suffers at least as many deadlock aborts as at
    # the lowest, and T/O's restarts never turn into deadlocks.
    assert (
        by_key[(rates[-1], "2PL")]["deadlock_aborts"]
        >= by_key[(rates[0], "2PL")]["deadlock_aborts"]
    )
    assert all(by_key[(rate, "T/O")]["deadlock_aborts"] == 0 for rate in rates)
    assert all(by_key[(rate, "PA")]["restarts"] == 0 for rate in rates)


def _check_size_sweep(rows: List[Row]) -> None:
    assert all(row["serializable"] for row in rows)
    sizes = sorted({row["transaction_size"] for row in rows})
    for protocol in ("2PL", "T/O", "PA"):
        by_size = {row["transaction_size"]: row for row in rows if row["protocol"] == protocol}
        # Every protocol takes longer on big transactions than on small ones.
        assert by_size[sizes[-1]]["mean_system_time"] > by_size[sizes[0]]["mean_system_time"]
        if protocol == "T/O":
            # T/O restart pressure must not shrink as transactions grow.
            assert by_size[sizes[-1]]["restarts"] >= by_size[sizes[0]]["restarts"]


def _check_single_item(rows: List[Row]) -> None:
    by_protocol = {row["protocol"]: row for row in rows}
    assert all(row["serializable"] for row in rows)
    # No deadlock is possible for single-item 2PL, so 2PL never restarts.
    assert by_protocol["2PL"]["deadlock_aborts"] == 0
    assert by_protocol["2PL"]["restarts"] == 0
    assert by_protocol["PA"]["restarts"] == 0


def _check_audit(rows: List[Row]) -> None:
    for row in rows:
        assert row["serializable"] is True  # Theorem 2
        assert row["pa_restarts"] == 0  # Corollary 1
        assert row["to_deadlock_aborts"] == 0
        assert row["non_2pl_deadlock_victims"] == 0  # Corollary 2
        if row["mix"] in ("pure-PA", "pure-T/O"):
            assert row["deadlocks_found"] == 0


def _check_dynamic(rows: List[Row]) -> None:
    assert all(row["serializable"] for row in rows)
    for rate in {row["arrival_rate"] for row in rows}:
        at_rate = {
            row["protocol"]: row["mean_system_time"]
            for row in rows
            if row["arrival_rate"] == rate
        }
        static = [at_rate[name] for name in ("2PL", "T/O", "PA")]
        # Within a factor of the best static protocol, never worse than the worst.
        assert at_rate["dynamic"] <= max(static) * 1.05
        assert at_rate["dynamic"] <= min(static) * 2.5


def _check_semilocks(rows: List[Row]) -> None:
    by_mode = {row["enforcement"]: row for row in rows}
    assert all(row["serializable"] for row in rows)
    # Semi-locks must not slow down the T/O transactions they exist for.
    assert (
        by_mode["semi-locks"]["to_mean_system_time"]
        <= by_mode["full locking"]["to_mean_system_time"] * 1.05
    )


def _check_stl_cost(rows: List[Row]) -> None:
    for row in rows:
        assert row["stl_prime_dp"] > 0.0
        assert abs(row["stl_prime_naive"] - row["stl_prime_dp"]) <= 0.05 * row["stl_prime_dp"]


def _check_switching(rows: List[Row]) -> None:
    by_mode = {row["switching"]: row for row in rows}
    assert all(row["serializable"] for row in rows)
    assert by_mode["off"]["protocol_switches"] == 0
    # Repeated victimisation of the same transaction is bounded.
    aborts_off = by_mode["off"]["restarts"] + by_mode["off"]["deadlock_aborts"]
    switched = by_mode["after 2 aborts"]
    if aborts_off > 0:
        assert switched["restarts"] + switched["deadlock_aborts"] <= aborts_off * 1.5


def _check_drift(rows: List[Row]) -> None:
    assert all(row["serializable"] for row in rows)
    by_key = {(row["scenario"], row["policy"]): row["post_drift_mean_system_time"] for row in rows}
    # On the migrating hot spot, adapting the estimates beats freezing them
    # once the drift has settled, and lands between the best and the worst
    # static protocol.
    adaptive = by_key[("hotspot-migration", "adaptive")]
    assert adaptive < by_key[("hotspot-migration", "frozen")]
    static = [by_key[("hotspot-migration", name)] for name in ("2PL", "T/O", "PA")]
    assert min(static) < adaptive < max(static)


def _check_availability(rows: List[Row]) -> None:
    assert all(row["crashes"] >= 1 for row in rows)
    two_phase = [row for row in rows if row["commit"] == "two-phase"]
    one_phase = [row for row in rows if row["commit"] == "one-phase"]
    assert two_phase and one_phase
    # 2PC keeps every write-all atomic and the schedule serializable.
    assert all(row["atomic"] and row["serializable"] for row in two_phase)
    assert all(row["lost_writes"] == 0 for row in two_phase)
    # One-phase commit demonstrably loses atomicity on every fault scenario.
    assert all(
        row["lost_writes"] > 0 or row["divergent_items"] > 0 or not row["serializable"]
        for row in one_phase
    )
    # Safety is not free: 2PC's mean system time is higher on the same point.
    by_key = {(row["scenario"], row["commit"], row["protocol"]): row for row in rows}
    for row in two_phase:
        one = by_key[(row["scenario"], "one-phase", row["protocol"])]
        assert row["mean_system_time"] > one["mean_system_time"]


def _check_recovery(rows: List[Row]) -> None:
    assert all(row["atomic"] and row["serializable"] for row in rows)
    by_key = {(row["scenario"], row["commit"], row["termination"]): row for row in rows}
    for termination in (False, True):
        # Failure-free, presumed abort forces fewer log writes than presumed
        # nothing, paying in ack messages; the control sees no coordinator crash.
        presumed = by_key[("uniform-baseline", "presumed-abort", termination)]
        nothing = by_key[("uniform-baseline", "two-phase", termination)]
        assert presumed["forced_log_writes"] < nothing["forced_log_writes"]
        assert presumed["ack_messages"] > 0
        assert nothing["ack_messages"] == 0
        assert all(
            by_key[("uniform-baseline", commit, termination)]["coordinator_crashes"] == 0
            for commit in RECOVERY_COMMIT_PROTOCOLS
        )
    # Under the coordinator blackout the termination protocol frees blocked
    # participants from their peers: higher availability at the horizon and
    # a shorter worst in-doubt time.
    with_term = by_key[("coordinator-blackout", "two-phase", True)]
    without = by_key[("coordinator-blackout", "two-phase", False)]
    assert with_term["coordinator_crashes"] >= 1
    assert with_term["availability"] > without["availability"]
    assert with_term["termination_resolutions"] > 0
    assert with_term["max_in_doubt"] < without["max_in_doubt"]


def _check_sim_live(rows: List[Row]) -> None:
    assert [row["mode"] for row in rows] == ["sim", "live", "equal"]
    sim_row, live_row, verdict = rows
    # The same committed set, the same audit verdicts, no split 2PC decision.
    assert sim_row["committed_set_digest"] == live_row["committed_set_digest"]
    assert sim_row["committed"] == live_row["committed"]
    assert sim_row["serializable"] and live_row["serializable"]
    assert sim_row["atomic"] and live_row["atomic"]
    assert live_row["conflicting_2pc_decisions"] == 0
    assert verdict["equivalent"]


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #

_CONFIGS = {"system": SystemConfig(), "workload": WorkloadConfig()}
_BENCH_CONFIGS = {"system": BENCH_SYSTEM, "workload": BENCH_WORKLOAD}
_RATES = (5.0, 20.0, 60.0)
_RATE_COLUMNS = ("arrival_rate", "protocol", "mean_system_time", "throughput", "restarts")

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        id="e1",
        title="Mean system time `S` vs. arrival rate `lambda`, per protocol",
        params={**_CONFIGS, "rates": _RATES},
        bench={**_BENCH_CONFIGS, "rates": _RATES},
        columns=(*_RATE_COLUMNS, "deadlock_aborts", "messages_per_txn", "serializable"),
        check=_check_arrival_sweep,
        overrides=("workload.arrival_rate",),
        points=lambda params: _rate_points(params, dynamic=False),
        row=_standard_row,
    ),
    Experiment(
        id="e2",
        title="`S` vs. transaction size `st`, per protocol",
        params={**_CONFIGS, "sizes": (1, 4, 8)},
        bench={
            "system": BENCH_SYSTEM,
            "workload": BENCH_WORKLOAD.with_overrides(arrival_rate=30.0, hotspot_probability=0.4),
            "sizes": (1, 4, 8),
        },
        columns=(
            "transaction_size",
            "protocol",
            "mean_system_time",
            "restarts",
            "deadlock_aborts",
            "backoff_rounds",
            "serializable",
        ),
        check=_check_size_sweep,
        overrides=("workload.min_size", "workload.max_size"),
        points=_size_points,
        row=_standard_row,
    ),
    Experiment(
        id="e3",
        title="Single-item write-only workload: 2PL cannot deadlock, T/O restarts",
        params={"system": SystemConfig(), "arrival_rate": 40.0, "transactions": 300},
        bench={"system": BENCH_SYSTEM, "arrival_rate": 50.0, "transactions": 200},
        columns=(
            "protocol",
            "mean_system_time",
            "throughput",
            "restarts",
            "deadlock_aborts",
            "messages_per_txn",
            "serializable",
        ),
        check=_check_single_item,
        points=_single_item_points,
        row=_standard_row,
    ),
    Experiment(
        id="e4",
        title="Correctness audit of mixed runs (Theorems 2–3, corollaries)",
        params={**_CONFIGS, "rates": _RATES},
        bench={**_BENCH_CONFIGS, "rates": (15.0, 50.0)},
        columns=(
            "arrival_rate",
            "mix",
            "serializable",
            "pa_restarts",
            "to_deadlock_aborts",
            "non_2pl_deadlock_victims",
            "deadlocks_found",
            "committed",
        ),
        check=_check_audit,
        overrides=("workload.arrival_rate", "workload.protocol_mix"),
        points=_audit_points,
        row=_audit_row,
    ),
    Experiment(
        id="e5",
        title="STL-based dynamic selection vs. each static protocol",
        params={**_CONFIGS, "rates": _RATES},
        bench={**_BENCH_CONFIGS, "rates": (10.0, 40.0)},
        columns=(*_RATE_COLUMNS, "deadlock_aborts", "serializable"),
        check=_check_dynamic,
        overrides=("workload.arrival_rate",),
        points=lambda params: _rate_points(params, dynamic=True),
        row=_standard_row,
    ),
    Experiment(
        id="e6",
        title="Semi-locks vs. naive lock-everything enforcement (Section 4.2 ablation)",
        params=_CONFIGS,
        bench={
            "system": BENCH_SYSTEM,
            "workload": BENCH_WORKLOAD.with_overrides(arrival_rate=40.0),
        },
        columns=(
            "enforcement",
            "mean_system_time",
            "to_mean_system_time",
            "throughput",
            "restarts",
            "deadlock_aborts",
            "serializable",
        ),
        check=_check_semilocks,
        overrides=("system.semi_locks_enabled", "workload.protocol_mix"),
        points=_semilock_points,
        row=_semilock_row,
    ),
    Experiment(
        id="e7",
        title="Cost of evaluating `STL'`: dynamic program vs. naive recursion",
        params={"time_steps": (8, 12, 16)},
        bench={"time_steps": (8, 14)},
        columns=(),
        check=_check_stl_cost,
        run=_stl_cost_rows,
    ),
    Experiment(
        id="e8",
        title="Extension: switching aborted transactions to PA (future-work item 4)",
        params=_CONFIGS,
        bench={
            "system": BENCH_SYSTEM,
            "workload": BENCH_WORKLOAD.with_overrides(arrival_rate=60.0),
        },
        columns=(
            "switching",
            "mean_system_time",
            "restarts",
            "deadlock_aborts",
            "protocol_switches",
            "serializable",
        ),
        check=_check_switching,
        overrides=(
            "system.protocol_switch_threshold",
            "workload.hotspot_probability",
            "workload.hotspot_fraction",
        ),
        points=_switching_points,
        row=_switching_row,
    ),
    Experiment(
        id="e9",
        title="Online adaptive selection under drifting workloads",
        params={"scenarios": DRIFT_SCENARIOS, "transactions": None, "seeds": (0, 1, 2)},
        # The canonical scale: shrinking the stream shortens the post-drift
        # phase the adaptive-vs-frozen claim is made on.
        bench={},
        columns=(
            "scenario",
            "policy",
            "mean_system_time",
            "post_drift_mean_system_time",
            "restarts",
            "deadlock_aborts",
            "serializable",
        ),
        check=_check_drift,
        points=_drift_points,
        row=_drift_row,
    ),
    Experiment(
        id="e10",
        title="Availability and write-all atomicity under site failures, per commit layer",
        params={"scenarios": FAULT_SCENARIOS, "transactions": None, "seeds": (0, 1, 2)},
        # 150 transactions keep every fault window inside the stream.
        bench={"transactions": 150, "seeds": (0, 1)},
        columns=(
            "scenario",
            "commit",
            "protocol",
            "availability",
            "mean_system_time",
            "timeout_restarts",
            "commit_aborts",
            "mean_commit_latency",
            "mean_in_doubt_time",
            "commit_messages",
            "crashes",
            "lost_writes",
            "divergent_items",
            "atomic",
            "serializable",
        ),
        check=_check_availability,
        points=_availability_points,
        row=_availability_row,
    ),
    Experiment(
        id="e11",
        title="Blocking and availability under coordinator loss, per commit-protocol variant",
        params={"scenarios": RECOVERY_SCENARIOS, "transactions": None, "seeds": (0, 1, 2)},
        # uniform-baseline is the failure-free control the forced-write
        # saving of the presumed variants is measured on.
        bench={
            "scenarios": ("uniform-baseline", "coordinator-blackout", "in-doubt-storm"),
            "transactions": 150,
            "seeds": (0, 1),
        },
        columns=(
            "scenario",
            "commit",
            "termination",
            "availability",
            "mean_in_doubt",
            "max_in_doubt",
            "forced_log_writes",
            "lazy_log_writes",
            "ack_messages",
            "peer_messages",
            "coordinator_crashes",
            "redriven",
            "mean_recovery_latency",
            "termination_resolutions",
            "records_truncated",
            "atomic",
            "serializable",
        ),
        check=_check_recovery,
        points=_recovery_points,
        row=_recovery_row,
    ),
    Experiment(
        id="e12",
        title="Does a live TCP cluster reproduce the simulator's outcome on the same workload?",
        params={
            "scenarios": ("uniform-baseline",),
            "transactions": None,
            "commit": "two-phase",
            "compute_scale": 0.1,
        },
        bench={"transactions": 60, "compute_scale": 0.05},
        columns=(
            "mode",
            "committed",
            "submitted",
            "serializable",
            "atomic",
            "throughput",
            "mean_commit_latency",
            "messages_total",
            "messages_per_transaction",
            "conflicting_2pc_decisions",
            "committed_set_digest",
            "equivalent",
        ),
        check=_check_sim_live,
        run=_sim_live_rows,
    ),
)

_BY_ID = {experiment.id: experiment for experiment in EXPERIMENTS}


def all_experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, in index order."""
    return EXPERIMENTS


def get_experiment(experiment_id: str) -> Experiment:
    """The experiment called ``experiment_id`` (raises for unknown ids)."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        known = ", ".join(_BY_ID)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from None
