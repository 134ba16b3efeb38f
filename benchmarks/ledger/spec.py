"""What the ledger measures: the pinned workloads and the metric names.

Pure data — importing this module imports nothing of the program, so the
parent process (which only spawns children and aggregates) stays light and
``setup_s`` of a child includes the whole ``import repro``.

``BENCHMARK.json`` at the repository root declares the same names; the
self-tests check the two agree.  Its schema has no "applies to" column and the
driver wants every end-to-end metric from every workload, so only the four
metrics every workload has are ``end_to_end`` there; ``sim_mean_system_time``,
the two commit latencies and ``failed_fraction`` are listed under its
``per_layer`` key and keep their bounds here, for ``--compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: System seed of every workload (the scenarios' own); ``--seed`` replaces only
#: the workload seed.
DEFAULT_SEED = 13


@dataclass(frozen=True)
class Workload:
    """One pinned workload: a registered scenario plus the knobs the ledger fixes."""

    name: str
    why: str
    scenario: str
    transactions: int
    #: Arrival rate replacing the scenario's own (``None`` keeps it).
    arrival_rate: Optional[float] = None
    #: Untraced repeats of a full ledger invocation.
    repeats: int = 7
    audit: str = "batch"
    #: Protocols the transactions draw from with equal weight.
    mix: Tuple[str, ...] = ("2PL", "PA")
    #: STL dynamic selection (adaptive mode) instead of a static mix.
    dynamic: bool = False
    #: Run on the live TCP cluster instead of the simulator.
    live: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hotspot-batch",
            why=(
                "High contention on a Zipf hot spot: queue managers, semi-locks, deadlock "
                "scans and the batch oracle after the loop (a third of the wall)."
            ),
            scenario="zipf-hotspot",
            transactions=2000,
        ),
        Workload(
            name="blackout-2pc-streaming",
            why=(
                "2PC over 2x replication through a site crash: commit layer, commit log "
                "and network do the most; audits the other way (streaming, in-loop)."
            ),
            scenario="site-blackout",
            transactions=2500,
            arrival_rate=15.0,
            audit="streaming",
        ),
        Workload(
            name="readmostly-streaming",
            why=(
                "Almost no conflicts: event list, network and coordinator dominate; the "
                "bypass workload for every audit, contention and commit optimisation."
            ),
            scenario="read-mostly-analytics",
            transactions=6000,
            audit="streaming",
            mix=("2PL", "T/O", "PA"),
        ),
        Workload(
            name="drift-adaptive",
            why=(
                "The only workload where selection/ runs (STL, adaptive mode, drifting hot "
                "spot); it does most of the work here and exactly none elsewhere."
            ),
            scenario="hotspot-migration",
            transactions=500,
            dynamic=True,
        ),
        Workload(
            name="live-paced",
            why=(
                "Same actors over real TCP and live/wire.py, open loop at ~51 txn/s "
                "offered (a fifth of saturation); sim kernel and sim network do nothing."
            ),
            scenario="uniform-baseline",
            transactions=600,
            repeats=5,
            live=True,
        ),
    )
}

#: Live-cluster shape of ``live-paced`` (``LiveDriver`` / ``InProcessCluster`` arguments).
LIVE_SITES = 3
LIVE_PACING = 0.4
LIVE_REQUEST_TIMEOUT = 1.0
LIVE_DRAIN_TIMEOUT = 30.0

SIM = "sim"
LIVE = "live"
ALL = "all"


def applies(scope: str, workload: Workload) -> bool:
    """Whether a metric of ``scope`` is measured on ``workload``."""
    return scope == ALL or (scope == LIVE) == workload.live


#: End-to-end metrics every workload reports: name -> (unit, better, bound).
#: ``bound`` is the share of the parent's median a median may worsen by.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "committed_txn_per_s": ("txn/s", "higher", 0.25),
    "cpu_ms_per_txn": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: End-to-end metrics some workloads report: name -> (unit, better, bound, scope).
#: ``failed_fraction`` is bounded absolutely: any rise is a regression.
END_TO_END_SCOPED: Dict[str, Tuple[str, str, float, str]] = {
    "sim_mean_system_time": ("simtime", "lower", 0.01, SIM),
    "commit_latency_p50_ms": ("ms", "lower", 0.10, LIVE),
    "commit_latency_p98_ms": ("ms", "lower", 0.25, LIVE),
    "failed_fraction": ("ratio", "lower", 0.0, ALL),
}

#: Per-layer metrics (traced run only): name -> (unit, better, scope).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    # Phases.
    "workload.generate_s": ("s", "lower", ALL),
    "system.build_s": ("s", "lower", ALL),
    "system.run_s": ("s", "lower", ALL),
    "sim.loop_s": ("s", "lower", SIM),
    "core.batch_audit_s": ("s", "lower", ALL),
    "analysis.summarize_s": ("s", "lower", SIM),
    "store.key_ms": ("ms", "lower", SIM),
    "store.put_ms": ("ms", "lower", SIM),
    "store.get_ms": ("ms", "lower", SIM),
    # Self times; the SIM and ALL ones partition sim.loop_s on a simulator workload.
    "sim.kernel_self_s": ("s", "lower", SIM),
    "sim.network_send_self_s": ("s", "lower", SIM),
    "system.coordinator_self_s": ("s", "lower", ALL),
    "core.queue_manager_self_s": ("s", "lower", ALL),
    "core.deadlock_scan_self_s": ("s", "lower", SIM),
    "commit.participant_self_s": ("s", "lower", ALL),
    "storage.execution_log_self_s": ("s", "lower", ALL),
    "storage.commit_log_self_s": ("s", "lower", ALL),
    "core.streaming_audit_self_s": ("s", "lower", SIM),
    "system.metrics_self_s": ("s", "lower", ALL),
    "selection.choose_self_s": ("s", "lower", SIM),
    # Counts and ratios; they repeat exactly on a simulator workload.
    "sim.events": ("count", "lower", SIM),
    "sim.events_per_s": ("1/s", "higher", SIM),
    "sim.messages_per_txn": ("count", "lower", SIM),
    "sim.messages_remote": ("count", "lower", SIM),
    "sim.messages_dropped": ("count", "lower", SIM),
    "system.restarts_per_txn": ("ratio", "lower", SIM),
    "system.deadlock_aborts": ("count", "lower", SIM),
    "system.timeout_restarts": ("count", "lower", SIM),
    "core.grants": ("count", "higher", SIM),
    "core.rejections": ("count", "lower", SIM),
    "core.backoffs": ("count", "lower", SIM),
    "core.grant_ratio": ("ratio", "higher", SIM),
    "core.detector_scans": ("count", "lower", SIM),
    "core.conflict_edges": ("count", "lower", SIM),
    "core.audit_peak_live_entries": ("count", "lower", SIM),
    "commit.aborts": ("count", "lower", SIM),
    "commit.commit_ratio": ("ratio", "higher", SIM),
    "storage.forced_log_writes": ("count", "lower", SIM),
    "storage.lazy_log_writes": ("count", "lower", SIM),
    "storage.peak_log_records": ("count", "lower", SIM),
    "selection.choices": ("count", "lower", SIM),
    "selection.protocol_switches": ("count", "lower", SIM),
    # The live cluster.
    "live.wire_encode_self_s": ("s", "lower", LIVE),
    "live.wire_decode_self_s": ("s", "lower", LIVE),
    "live.transport_send_self_s": ("s", "lower", LIVE),
    "live.audit_fold_self_s": ("s", "lower", LIVE),
    "live.frames": ("count", "lower", LIVE),
    "live.bytes_per_txn": ("count", "lower", LIVE),
    "live.messages_per_txn": ("count", "lower", LIVE),
    "live.restarts_per_txn": ("ratio", "lower", LIVE),
    "live.timeout_restarts": ("count", "lower", LIVE),
    "live.late_submit_p98_ms": ("ms", "lower", LIVE),
    "live.collapsed_runs": ("count", "lower", LIVE),
    "trace_overhead_ratio": ("ratio", "lower", ALL),
}

#: The self times that partition ``sim.loop_s`` on a simulator workload.
LOOP_SELF_TIMES: Tuple[str, ...] = tuple(
    name for name, (_, _, scope) in PER_LAYER.items() if name.endswith("_self_s") and scope != LIVE
)

#: The counts and ratios a simulator workload must repeat exactly, run after run.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    name
    for name, (unit, _, scope) in PER_LAYER.items()
    if scope == SIM and unit in ("count", "ratio")
)


def metric_unit(name: str) -> Optional[str]:
    """The unit of a declared metric, or ``None`` for an unknown name."""
    for table in (END_TO_END, END_TO_END_SCOPED, PER_LAYER):
        if name in table:
            return table[name][0]
    return None
