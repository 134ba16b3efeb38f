"""One run of one workload, in this process: ``python -m benchmarks.ledger.child``.

The ledger starts this module in a fresh interpreter for every run, so that
``peak_rss_mb`` and the import cost belong to the run alone.  The run mirrors
``repro.system.runner.run_simulation`` step by step (the self-tests hold the two
to the same summary digest) in order to time the steps, and hands the program
only the generated transaction specs.  The last line printed is one JSON
document; a run that raises still prints one, with ``ok`` false and the
traceback, so the parent counts its transactions as failed instead of crashing.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger import spec
from benchmarks.ledger.tracer import STREAMING_AUDIT, Tracer


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile: with 600 samples, p98 leaves 12 beyond it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(percent / 100.0 * len(ordered)), 1) - 1]


def summary_digest(summary: Dict[str, object]) -> str:
    """SHA-256 of a run summary, the identity simulator repeats must share."""
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode("utf-8")).hexdigest()


def resolve(workload: spec.Workload, seed: int, transactions: Optional[int]):
    """The system and workload configuration of ``workload`` under ``seed``."""
    from dataclasses import replace

    from repro.common.config import ProtocolMix
    from repro.common.protocol_names import Protocol
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario(workload.scenario).configured(
        transactions=transactions or workload.transactions,
        arrival_rate=workload.arrival_rate,
    )
    config = scenario.workload.with_overrides(
        seed=seed,
        protocol_mix=ProtocolMix({Protocol.from_name(name): 1.0 for name in workload.mix}),
    )
    if workload.live:
        from repro.live.daemon import live_system

        commit = replace(scenario.system.commit, protocol="two-phase")
        system = live_system(
            scenario.system.with_overrides(commit=commit, num_sites=spec.LIVE_SITES)
        )
    else:
        system = scenario.system.with_overrides(audit=workload.audit)
    return system, config


def end_to_end(started: float, setup_end: float, ended: float, committed: int) -> Dict[str, float]:
    """The four metrics every workload has, from this process's clocks and rusage."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    per_txn = max(committed, 1)
    return {
        "setup_s": setup_end - started,
        "committed_txn_per_s": committed / (ended - started),
        "cpu_ms_per_txn": (usage.ru_utime + usage.ru_stime) * 1000.0 / per_txn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


# --------------------------------------------------------------------------- #
# Simulator workloads
# --------------------------------------------------------------------------- #


def run_simulated(
    workload: spec.Workload,
    seed: int,
    tracer: Optional[Tracer],
    started: float,
    transactions: Optional[int],
) -> Dict[str, Any]:
    """Generate, build, run, audit and summarise one simulator workload."""
    from repro.analysis.replications import SimulationTask, summarize_run
    from repro.store import ResultStore, task_key, task_payload
    from repro.system.database import DistributedDatabase
    from repro.workload.generator import TransactionGenerator

    system, config = resolve(workload, seed, transactions)
    selector = None
    if workload.dynamic:
        from repro.selection.selector import STLProtocolSelector

        selector = STLProtocolSelector.from_configs(system, config, mode="adaptive")

    stamp = monotonic()
    database = DistributedDatabase(
        system, choose_protocol=selector.choose if selector is not None else None
    )
    if selector is not None:
        selector.bind_metrics(database.metrics)
    build_s = monotonic() - stamp

    stamp = monotonic()
    generator = TransactionGenerator(system, config, assign_protocols=not workload.dynamic)
    specs = generator.generate()
    generate_s = monotonic() - stamp

    stamp = monotonic()
    database.load_workload(specs, config)
    boundaries = generator.drift_boundaries()
    database.metrics.register_arrival_cut(boundaries[-1] if boundaries else 0.0)
    setup_end = monotonic()
    build_s += setup_end - stamp

    result = database.run()
    result.drift_boundaries = boundaries
    run_end = monotonic()
    summary = summarize_run(result)
    ended = monotonic()

    violations = []
    if not result.serializable:
        violations.append("not serializable")
    if not result.atomic:
        violations.append("replicas diverged")
    if result.committed != result.submitted:
        violations.append(f"committed {result.committed} of {result.submitted}")

    outcome: Dict[str, Any] = {
        "submitted": result.submitted,
        "committed": result.committed,
        "violations": violations,
        "summary_sha256": summary_digest(summary),
        "wall_s": ended - started,
        "end_to_end": {
            **end_to_end(started, setup_end, ended, result.committed),
            "sim_mean_system_time": result.mean_system_time,
        },
        "counts": simulated_counts(result, database, selector),
    }
    if tracer is not None:
        task = SimulationTask(
            system,
            config,
            dynamic_selection=workload.dynamic,
            selection_mode="adaptive" if workload.dynamic else None,
        )
        # Inside the checkout: the benchmark may write nowhere else.
        with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".ledger-") as directory:
            stamp = monotonic()
            key = task_key(task)
            key_ms = (monotonic() - stamp) * 1000.0
            store = ResultStore(Path(directory) / "store.jsonl")
            stamp = monotonic()
            store.put(key, task_payload(task), summary)
            put_ms = (monotonic() - stamp) * 1000.0
            stamp = monotonic()
            stored = store.lookup(key)
            get_ms = (monotonic() - stamp) * 1000.0
        if stored != summary:
            violations.append("result store returned a different summary")
        loop_s = tracer.phase_s["sim.loop_s"]
        outcome["per_layer"] = {
            "workload.generate_s": generate_s,
            "system.build_s": build_s,
            "system.run_s": run_end - setup_end,
            "analysis.summarize_s": ended - run_end,
            "store.key_ms": key_ms,
            "store.put_ms": put_ms,
            "store.get_ms": get_ms,
            "sim.events_per_s": database.simulator.events_processed / loop_s,
            **{name: tracer.phase_s[name] for name in ("sim.loop_s", "core.batch_audit_s")},
            **{name: tracer.self_s[name] for name in spec.LOOP_SELF_TIMES},
        }
    return outcome


def simulated_counts(result, database, selector) -> Dict[str, float]:
    """The count and ratio metrics of a simulator run; they repeat exactly."""
    statistics = list(result.metrics.all_protocol_statistics().values())
    requests = sum(s.read_requests + s.write_requests for s in statistics)
    read_grants, write_grants, _ = result.metrics.grant_totals()
    committed = max(result.committed, 1)
    return {
        "sim.events": database.simulator.events_processed,
        "sim.messages_per_txn": result.messages_total / committed,
        "sim.messages_remote": result.messages_remote,
        "sim.messages_dropped": result.messages_dropped,
        "system.restarts_per_txn": sum(s.attempts for s in statistics) / committed - 1.0,
        "system.deadlock_aborts": result.deadlock_aborts,
        "system.timeout_restarts": result.timeout_restarts,
        "core.grants": read_grants + write_grants,
        "core.rejections": sum(s.read_rejections + s.write_rejections for s in statistics),
        "core.backoffs": sum(s.read_backoffs + s.write_backoffs for s in statistics),
        "core.grant_ratio": (read_grants + write_grants) / max(requests, 1),
        "core.detector_scans": result.detector_scans,
        "core.conflict_edges": result.serializability.conflict_edges,
        "core.audit_peak_live_entries": result.audit_stats.get("peak_live_entries", 0),
        "commit.aborts": result.commit_aborts,
        "commit.commit_ratio": result.committed / max(result.committed + result.commit_aborts, 1),
        "storage.forced_log_writes": result.forced_log_writes,
        "storage.lazy_log_writes": result.lazy_log_writes,
        "storage.peak_log_records": result.peak_log_records,
        "selection.choices": selector.decisions if selector is not None else 0,
        "selection.protocol_switches": result.protocol_switches,
    }


# --------------------------------------------------------------------------- #
# The live workload
# --------------------------------------------------------------------------- #


class LatencyProbe:
    """Times a live run from outside: submit sends and observed commit points.

    Wraps two attributes of one ``LiveDriver`` instance — its transport's
    ``send`` (kind ``submit``) and its checker's ``note_commit`` — so nothing
    outside that driver is touched.  The driver's own start instant is not
    visible from outside; it is recovered as the lower envelope of
    ``send − arrival_time × pacing`` (the submit that ran least late).
    """

    def __init__(self, driver, specs) -> None:
        self._arrival = {item.tid: item.arrival_time * spec.LIVE_PACING for item in specs}
        self.sent: Dict[Any, float] = {}
        self.seen: Dict[Any, float] = {}
        send = driver.transport.send
        note_commit = driver.checker.note_commit

        def timed_send(sender, receiver_name, kind, payload=None, extra_delay=0.0):
            if kind == "submit":
                self.sent[payload.tid] = monotonic()
            return send(sender, receiver_name, kind, payload, extra_delay)

        def timed_note_commit(transaction, attempt, copies):
            self.seen[transaction] = monotonic()
            return note_commit(transaction, attempt, copies)

        driver.transport.send = timed_send
        driver.checker.note_commit = timed_note_commit

    @property
    def start(self) -> float:
        """The instant the open-loop schedule is anchored at."""
        return min(sent - self._arrival[tid] for tid, sent in self.sent.items())

    def latencies_ms(self) -> List[float]:
        """Per committed transaction: from when its submit was due to its commit."""
        start = self.start
        return [
            (seen - start - self._arrival[tid]) * 1000.0
            for tid, seen in self.seen.items()
            if tid in self.sent
        ]

    def lateness_ms(self) -> List[float]:
        """Per submit: how long after it was due the generator sent it."""
        start = self.start
        return [
            (sent - start - self._arrival[tid]) * 1000.0 for tid, sent in self.sent.items()
        ]


def run_live(
    workload: spec.Workload,
    seed: int,
    tracer: Optional[Tracer],
    started: float,
    transactions: Optional[int],
) -> Dict[str, Any]:
    """Boot an in-process TCP cluster, drive one paced workload, audit it."""
    from repro.live.cluster import InProcessCluster, free_ports, local_cluster_map
    from repro.live.driver import LiveDriver, LiveRunError
    from repro.workload.generator import TransactionGenerator

    system, config = resolve(workload, seed, transactions)
    stamp = monotonic()
    specs = TransactionGenerator(system, config, assign_protocols=True).generate()
    generate_s = monotonic() - stamp
    state: Dict[str, Any] = {}

    async def drive():
        addresses = local_cluster_map(free_ports(spec.LIVE_SITES))
        state["boot"] = monotonic()
        async with InProcessCluster(
            system, addresses, request_timeout=spec.LIVE_REQUEST_TIMEOUT
        ):
            driver = LiveDriver(
                system,
                addresses,
                specs,
                pacing=spec.LIVE_PACING,
                drain_timeout=spec.LIVE_DRAIN_TIMEOUT,
            )
            state["driver"] = driver
            state["probe"] = LatencyProbe(driver, specs)
            state["run"] = monotonic()
            if tracer is not None:
                tracer.recording = True
            try:
                return await driver.run()
            finally:
                if tracer is not None:
                    tracer.recording = False
                state["ran"] = monotonic()

    error = None
    result = None
    try:
        result = asyncio.run(drive())
    except LiveRunError as failure:
        # A wedge or a dead site: the message carries each site's last status.
        error = f"LiveRunError: {failure}"
    ended = monotonic()

    probe: Optional[LatencyProbe] = state.get("probe")
    driver = state.get("driver")
    committed = result.committed if result is not None else len(driver.committed_seen)
    violations = []
    if result is None:
        violations.append("run did not complete")
    else:
        if not result.serializable:
            violations.append("not serializable")
        if not result.atomic:
            violations.append("replicas diverged")
        if result.committed != result.submitted:
            violations.append(f"committed {result.committed} of {result.submitted}")
        if result.conflicting_decisions():
            violations.append("a 2PC round has two decisions")

    setup_end = probe.start if probe is not None and probe.sent else ended
    outcome: Dict[str, Any] = {
        "submitted": len(specs),
        "committed": committed,
        "violations": violations,
        "error": error,
        "wall_s": ended - started,
        "end_to_end": end_to_end(started, setup_end, ended, committed),
        "counts": {},
    }
    if probe is not None and probe.seen:
        latencies = probe.latencies_ms()
        outcome["end_to_end"]["commit_latency_p50_ms"] = percentile(latencies, 50)
        outcome["end_to_end"]["commit_latency_p98_ms"] = percentile(latencies, 98)
        outcome["latency_samples"] = len(latencies)
        outcome["counts"]["live.late_submit_p98_ms"] = percentile(probe.lateness_ms(), 98)
    if result is not None:
        sites = result.per_site_metrics.values()
        per_txn = max(result.committed, 1)
        timeouts = sum(int(site["timeout_restarts"]) for site in sites)
        outcome["counts"].update(
            {
                "live.messages_per_txn": result.messages_total / per_txn,
                "live.restarts_per_txn": (sum(int(site["restarts"]) for site in sites) + timeouts)
                / per_txn,
                "live.timeout_restarts": timeouts,
            }
        )
    if tracer is not None and result is not None:
        outcome["per_layer"] = {
            "workload.generate_s": generate_s,
            "system.build_s": state["run"] - state["boot"],
            "system.run_s": state["ran"] - state["run"],
            "core.batch_audit_s": tracer.phase_s["core.batch_audit_s"],
            "live.audit_fold_self_s": tracer.self_s[STREAMING_AUDIT],
            "live.frames": tracer.frames_encoded,
            "live.bytes_per_txn": tracer.bytes_encoded / max(result.committed, 1),
            **{
                name: tracer.self_s[name]
                for name, (_, _, scope) in spec.PER_LAYER.items()
                if name.endswith("_self_s") and scope == spec.ALL
            },
            **{
                name: tracer.self_s[name]
                for name in (
                    "live.wire_encode_self_s",
                    "live.wire_decode_self_s",
                    "live.transport_send_self_s",
                )
            },
        }
    return outcome


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #


def measure(
    name: str,
    seed: int = spec.DEFAULT_SEED,
    *,
    trace: bool = False,
    started: Optional[float] = None,
    transactions: Optional[int] = None,
) -> Dict[str, Any]:
    """Run workload ``name`` once in this process and return its record.

    ``started`` is the parent's ``time.monotonic()`` just before it spawned
    this interpreter (the clock is system-wide), so ``setup_s`` and the wall
    include interpreter start-up and ``import repro``.  ``transactions``
    shrinks the workload for the self-tests.
    """
    workload = spec.WORKLOADS[name]
    started = monotonic() if started is None else started
    tracer = Tracer() if trace else None
    record: Dict[str, Any] = {"workload": name, "seed": seed, "traced": trace}
    try:
        if tracer is not None:
            tracer.install()
        run = run_live if workload.live else run_simulated
        record.update(run(workload, seed, tracer, started, transactions))
    except Exception:  # noqa: BLE001 - the boundary that must report, not crash
        record.update(
            submitted=transactions or workload.transactions,
            committed=0,
            violations=["run raised"],
            error=traceback.format_exc(),
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["ok"] = not record["violations"]
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload and print its record as the last line of stdout."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, default=None)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, trace=bool(args.trace), started=args.started)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
