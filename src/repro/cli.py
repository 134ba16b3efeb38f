"""Command-line interface for running simulations, sweeps and scenarios.

Four subcommands are provided::

    python -m repro.cli run      --protocol PA --arrival-rate 30 --transactions 300
    python -m repro.cli sweep    --experiment e1 --rates 5 20 60 --jobs 4
    python -m repro.cli scenario zipf-hotspot --replications 5 --jobs 4
    python -m repro.cli store    table runs.jsonl

``run`` executes a single workload under one protocol (or the dynamic
selector) and prints the result summary; ``sweep`` regenerates one of the
experiments of DESIGN.md's index (E1-E12) with configurable parameters and
prints the result table; ``scenario`` runs a named end-to-end workload
profile from the registry in :mod:`repro.workload.scenarios` (``--list``
shows them all; ``--windows PATH`` additionally writes the per-window
time series of every replication); ``store`` inspects a result store
without running anything.  ``--jobs N`` fans simulation runs across N
worker processes; results are bit-identical to a serial run.

``sweep`` and ``scenario`` accept ``--store PATH`` to persist every
completed run in a content-addressed result store and to reuse cached runs
instead of re-simulating them — an interrupted ``--jobs N`` sweep resumed
against the same store loses nothing, and a warm re-run executes zero
simulation tasks.  ``--resume`` insists the store file already exists
(fail-fast against path typos); ``--force`` re-executes even cached points
and appends the fresh results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.tables import (
    STORE_COLUMNS,
    kv_table,
    rows_to_table,
    store_rows,
    windowed_table,
)
from repro.commit import commit_protocol_names
from repro.common.config import CommitConfig, SystemConfig, WorkloadConfig
from repro.common.errors import ConfigurationError
from repro.store import ResultStore
from repro.system.runner import run_simulation
from repro.workload.scenarios import (
    DRIFT_SCENARIOS,
    FAULT_SCENARIOS,
    RECOVERY_SCENARIOS,
    all_scenarios,
    get_scenario,
)

#: Experiment ids accepted by ``sweep``; must match DESIGN.md's index.
EXPERIMENT_IDS = (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
)

#: Default transaction count of ``run``/``sweep`` when ``--transactions``
#: is not given (E9 instead falls back to each scenario's own size).
DEFAULT_TRANSACTIONS = 300


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with the ``run``/``sweep``/``scenario``/``store`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Unified concurrency control (Wang & Li, ICDE 1988) — simulation runner"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one workload and print its summary")
    _add_system_arguments(run_parser)
    _add_workload_arguments(run_parser)
    run_parser.add_argument(
        "--protocol",
        choices=["2PL", "T/O", "PA", "mixed", "dynamic"],
        default="mixed",
        help="concurrency control method (default: a uniform mix of the three)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="regenerate one of the experiments from DESIGN.md"
    )
    _add_system_arguments(sweep_parser)
    _add_workload_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--experiment",
        choices=list(EXPERIMENT_IDS),
        required=True,
        help="experiment id from the DESIGN.md index (E1-E12)",
    )
    sweep_parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[5.0, 20.0, 60.0],
        help="arrival rates for e1/e4/e5 (transactions per time unit)",
    )
    sweep_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1, 4, 8],
        help="transaction sizes for e2",
    )
    sweep_parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "scenarios for e9/e10/e11 (defaults: the registered drift suite "
            f"{', '.join(DRIFT_SCENARIOS)} for e9; the fault suite "
            f"{', '.join(FAULT_SCENARIOS)} for e10; the recovery suite "
            f"{', '.join(RECOVERY_SCENARIOS)} for e11)"
        ),
    )
    _add_jobs_argument(sweep_parser)
    _add_store_arguments(sweep_parser)

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="run a named workload scenario from the registry (see DESIGN.md)",
    )
    scenario_parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario name (omit with --list to enumerate)",
    )
    scenario_parser.add_argument(
        "--list", action="store_true", help="list the registered scenarios and exit"
    )
    scenario_parser.add_argument(
        "--replications",
        type=int,
        default=3,
        help="number of independent replications (seeds 0..R-1)",
    )
    scenario_parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="override the scenario's transaction count",
    )
    scenario_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="override the scenario's arrival rate",
    )
    scenario_parser.add_argument(
        "--windows",
        default=None,
        metavar="PATH",
        help="write the per-window time series of every replication to this file",
    )
    _add_jobs_argument(scenario_parser)
    _add_store_arguments(scenario_parser)

    store_parser = subparsers.add_parser(
        "store", help="inspect a result store without running any simulation"
    )
    store_parser.add_argument(
        "action",
        choices=["stats", "table"],
        help="stats: accounting summary; table: render the stored summaries",
    )
    store_parser.add_argument("path", help="path to the result store (JSONL)")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run one site of a live cluster as a networked daemon",
    )
    _add_live_arguments(serve_parser)
    serve_parser.add_argument(
        "--site", type=int, required=True, help="the site this daemon hosts"
    )

    drive_parser = subparsers.add_parser(
        "drive",
        help="replay a scenario's workload against a live cluster and audit it",
    )
    _add_live_arguments(drive_parser)
    drive_parser.add_argument(
        "--spawn",
        action="store_true",
        help="spawn the site daemons as subprocesses on free ports "
        "(otherwise --cluster must point at already-running daemons)",
    )
    drive_parser.add_argument(
        "--pacing",
        type=float,
        default=0.0,
        help="wall-clock seconds per unit of arrival time (0: submit "
        "immediately in arrival order)",
    )
    drive_parser.add_argument(
        "--compute-scale",
        type=float,
        default=0.1,
        help="factor applied to each transaction's compute time",
    )
    drive_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=300.0,
        help="hard wall-clock deadline for the whole run (seconds)",
    )
    drive_parser.add_argument(
        "--log-dir",
        default="live-logs",
        metavar="PATH",
        help="with --spawn: directory for the captured per-site daemon logs",
    )
    drive_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the run summary as JSON to this file",
    )
    return parser


def _add_live_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags ``serve`` and ``drive`` share; both sides must pass the same
    scenario flags so they derive identical catalogs and workloads."""
    parser.add_argument(
        "--scenario",
        default="uniform-baseline",
        help="registered scenario supplying the system and workload",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="override the scenario's transaction count",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="override the scenario's arrival rate",
    )
    parser.add_argument(
        "--num-sites",
        type=int,
        default=None,
        help="override the scenario's site count (applied before workload "
        "generation, so daemons and driver still agree)",
    )
    parser.add_argument(
        "--commit",
        choices=[name for name in commit_protocol_names() if name != "one-phase"],
        default="two-phase",
        help="atomic-commit layer (one-phase cannot run over a real network)",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="HOST:PORT,...",
        help="listen addresses of sites 0..N-1, comma-separated "
        "(required for serve; required for drive without --spawn)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=2.0,
        help="per-attempt liveness watchdog of the site daemons (seconds)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persist completed runs in this content-addressed result store "
            "and reuse cached runs instead of re-simulating them"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="require the --store file to exist (fail fast on a mistyped path)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="with --store: re-execute every run even when cached, appending fresh results",
    )


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """Validate the store flags and open the store (or return ``None``)."""
    if args.store is None:
        if args.resume or args.force:
            raise ConfigurationError("--resume/--force make sense only together with --store")
        return None
    if args.resume and args.force:
        raise ConfigurationError("--resume (reuse cached runs) contradicts --force (recompute)")
    path = Path(args.store)
    if args.resume and not path.exists():
        raise ConfigurationError(f"--resume: store {path} does not exist")
    return ResultStore(path)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation runs (results are identical to --jobs 1)",
    )


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sites", type=int, default=4, help="number of sites")
    parser.add_argument("--items", type=int, default=64, help="number of logical data items")
    parser.add_argument("--replication", type=int, default=1, help="copies per data item")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--detection-period", type=float, default=0.2, help="deadlock detection period"
    )
    parser.add_argument("--restart-delay", type=float, default=0.02, help="restart back-off delay")
    parser.add_argument(
        "--no-semi-locks",
        action="store_true",
        help="use the naive lock-everything enforcement instead of semi-locks",
    )
    parser.add_argument(
        "--switch-after",
        type=int,
        default=None,
        help="switch a transaction to PA after this many aborts (future-work item 4)",
    )
    parser.add_argument(
        "--commit",
        choices=list(commit_protocol_names()),
        default="one-phase",
        help="atomic-commit layer (one-phase: the paper's implicit commit; "
        "two-phase: presumed-nothing 2PC)",
    )
    parser.add_argument(
        "--audit",
        choices=list(SystemConfig.AUDIT_MODES),
        default="batch",
        help="audit pipeline (batch: whole-log oracle at the end; streaming: "
        "incremental oracle with bounded resident state, same verdict)",
    )


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrival-rate", type=float, default=20.0, help="arrival rate lambda")
    parser.add_argument(
        "--transactions",
        type=int,
        default=None,
        help=f"number of transactions (default {DEFAULT_TRANSACTIONS}; "
        "e9 defaults to each scenario's own size)",
    )
    parser.add_argument("--min-size", type=int, default=2, help="minimum transaction size")
    parser.add_argument("--max-size", type=int, default=6, help="maximum transaction size")
    parser.add_argument("--read-fraction", type=float, default=0.6, help="fraction of reads")
    parser.add_argument(
        "--hotspot", type=float, default=0.0, help="probability an access hits the hot region"
    )
    parser.add_argument(
        "--access-pattern",
        choices=list(WorkloadConfig.ACCESS_PATTERNS),
        default="uniform",
        help="item-selection skew (uniform, hotspot, zipfian, site-skewed)",
    )
    parser.add_argument(
        "--arrival-process",
        choices=list(WorkloadConfig.ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process shape at the configured mean rate",
    )


def _system_from_args(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        num_sites=args.sites,
        num_items=args.items,
        replication_factor=args.replication,
        deadlock_detection_period=args.detection_period,
        restart_delay=args.restart_delay,
        semi_locks_enabled=not args.no_semi_locks,
        protocol_switch_threshold=args.switch_after,
        commit=CommitConfig(protocol=args.commit),
        audit=args.audit,
        seed=args.seed,
    )


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    transactions = args.transactions if args.transactions is not None else DEFAULT_TRANSACTIONS
    return WorkloadConfig(
        arrival_rate=args.arrival_rate,
        num_transactions=transactions,
        min_size=args.min_size,
        max_size=args.max_size,
        read_fraction=args.read_fraction,
        hotspot_probability=args.hotspot,
        access_pattern=args.access_pattern,
        arrival_process=args.arrival_process,
        seed=args.seed + 1,
    )


def _command_run(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    workload = _workload_from_args(args)
    protocol = None if args.protocol in ("mixed", "dynamic") else args.protocol
    result = run_simulation(
        system,
        workload,
        protocol=protocol,
        dynamic_selection=args.protocol == "dynamic",
    )
    print(kv_table(result.summary()))
    return 0 if result.serializable else 1


def _report_store(store: Optional[ResultStore]) -> None:
    """Cache accounting on stderr so tables on stdout stay byte-identical."""
    if store is not None:
        print(store.report(), file=sys.stderr)


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import (
        availability_experiment,
        correctness_audit,
        drift_adaptation_experiment,
        dynamic_vs_static,
        protocol_switching_ablation,
        recovery_experiment,
        semilock_ablation,
        sim_live_equivalence,
        single_item_write_experiment,
        stl_cost_experiment,
        sweep_arrival_rate,
        sweep_transaction_size,
    )

    system = _system_from_args(args)
    workload = _workload_from_args(args)
    jobs = args.jobs
    store = _open_store(args)
    force = args.force
    transactions = args.transactions if args.transactions is not None else DEFAULT_TRANSACTIONS
    if args.experiment == "e1":
        rows = sweep_arrival_rate(
            args.rates, system=system, workload=workload, jobs=jobs, store=store, force=force
        )
    elif args.experiment == "e2":
        rows = sweep_transaction_size(
            args.sizes, system=system, workload=workload, jobs=jobs, store=store, force=force
        )
    elif args.experiment == "e3":
        rows = single_item_write_experiment(
            arrival_rate=args.arrival_rate,
            num_transactions=transactions,
            system=system,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e4":
        rows = correctness_audit(
            arrival_rates=args.rates,
            num_transactions=transactions,
            system=system,
            workload=workload,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e5":
        rows = dynamic_vs_static(
            args.rates, system=system, workload=workload, jobs=jobs, store=store, force=force
        )
    elif args.experiment == "e6":
        rows = semilock_ablation(
            arrival_rate=args.arrival_rate,
            num_transactions=transactions,
            system=system,
            workload=workload,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e7":
        # E7 measures the STL' evaluator itself, not a simulation run; the
        # system/workload/--jobs/--store flags do not apply to it.
        print(
            "note: e7 evaluates the STL' model directly; "
            "system/workload/--jobs/--store flags are ignored",
            file=sys.stderr,
        )
        rows = stl_cost_experiment()
    elif args.experiment == "e9":
        # E9 runs the registered drift scenarios; the generic system /
        # workload flags do not apply (each scenario carries its own).
        rows = drift_adaptation_experiment(
            tuple(args.scenarios) if args.scenarios else DRIFT_SCENARIOS,
            transactions=args.transactions,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e10":
        # E10 runs the registered fault scenarios under both commit layers;
        # like e9, each scenario carries its own system and workload.
        rows = availability_experiment(
            tuple(args.scenarios) if args.scenarios else FAULT_SCENARIOS,
            transactions=args.transactions,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e11":
        # E11 races the 2PC family (with and without the termination
        # protocol) across the coordinator-recovery fault scenarios; each
        # scenario carries its own system and workload.
        rows = recovery_experiment(
            tuple(args.scenarios) if args.scenarios else RECOVERY_SCENARIOS,
            transactions=args.transactions,
            jobs=jobs,
            store=store,
            force=force,
        )
    elif args.experiment == "e12":
        # E12 replays one scenario through the simulator and through an
        # in-process live TCP cluster; the run is on the wall clock, so
        # the store/--jobs machinery does not apply.
        print(
            "note: e12 boots a live localhost cluster; "
            "system/workload/--jobs/--store flags are ignored "
            "(use --scenarios, --transactions, --commit)",
            file=sys.stderr,
        )
        rows = sim_live_equivalence(
            args.scenarios[0] if args.scenarios else "uniform-baseline",
            transactions=args.transactions,
            commit=args.commit if args.commit != "one-phase" else "two-phase",
        )
    else:
        rows = protocol_switching_ablation(
            arrival_rate=args.arrival_rate,
            num_transactions=transactions,
            system=system,
            workload=workload,
            jobs=jobs,
            store=store,
            force=force,
        )
    print(rows_to_table(rows))
    _report_store(store)
    all_serializable = all(row.get("serializable", True) for row in rows)
    # E12's verdict row carries the differential harness's gate.
    all_equivalent = all(
        bool(row["equivalent"]) for row in rows if row.get("mode") == "equal"
    )
    return 0 if all_serializable and all_equivalent else 1


def _command_scenario(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        rows = [
            {"scenario": scenario.name, "description": scenario.description}
            for scenario in all_scenarios()
        ]
        print(rows_to_table(rows))
        # A bare `scenario` without a name is a usage error; `--list` is not.
        return 0 if args.list else 2
    try:
        scenario = get_scenario(args.name)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.replications < 1:
        print("at least one replication is required", file=sys.stderr)
        return 2
    configured = scenario.configured(
        transactions=args.transactions, arrival_rate=args.arrival_rate
    )
    store = _open_store(args)
    result = configured.run(
        seeds=tuple(range(args.replications)),
        jobs=args.jobs,
        store=store,
        force=args.force,
    )
    print(rows_to_table([result.as_row()]))
    if args.windows is not None:
        _write_windows(Path(args.windows), configured.name, result)
    _report_store(store)
    return 0 if result.all_serializable else 1


def _write_windows(path: Path, name: str, result) -> None:
    """Write the per-window time series of every replication to ``path``.

    One table per replication, in seed order, headed by the scenario name
    and the replication index.  Stored summaries round-trip through JSON
    unchanged, so the file is byte-identical between cache-cold, parallel
    and resumed runs.
    """
    sections = []
    for index, summary in enumerate(result.summaries):
        sections.append(f"== {name} · replication {index} ==")
        sections.append(windowed_table(summary))
        sections.append("")
    path.write_text("\n".join(sections), encoding="utf-8")


def _command_store(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"store {path} does not exist", file=sys.stderr)
        return 2
    store = ResultStore(path)
    if args.action == "stats":
        print(
            kv_table(
                {
                    "path": str(store.path),
                    "entries": len(store),
                    "corrupt_lines_skipped": store.corrupt_lines,
                    "file_bytes": path.stat().st_size,
                }
            )
        )
        return 0
    print(rows_to_table(store_rows(store), STORE_COLUMNS))
    return 0


def _parse_cluster(text: str):
    """Parse ``host:port,host:port,...`` into a site → address map."""
    addresses = {}
    for site, part in enumerate(text.split(",")):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"malformed cluster address {part!r}")
        addresses[site] = (host, int(port))
    return addresses


def _command_serve(args: argparse.Namespace) -> int:
    """Run one site daemon until the driver's ``ctl_shutdown`` arrives."""
    import asyncio

    from repro.live.cluster import live_setup
    from repro.live.daemon import SiteDaemon

    if args.cluster is None:
        raise ConfigurationError("serve requires --cluster")
    cluster = _parse_cluster(args.cluster)
    if args.site not in cluster:
        raise ConfigurationError(
            f"--site {args.site} has no address in the {len(cluster)}-site cluster"
        )
    system, _ = live_setup(
        args.scenario,
        transactions=args.transactions,
        arrival_rate=args.arrival_rate,
        commit=args.commit,
        num_sites=args.num_sites,
    )
    if system.num_sites != len(cluster):
        raise ConfigurationError(
            f"scenario {args.scenario!r} has {system.num_sites} sites but the "
            f"cluster map lists {len(cluster)} addresses"
        )

    async def _serve() -> None:
        daemon = SiteDaemon(
            args.site, system, cluster, request_timeout=args.request_timeout
        )
        print(
            f"site {args.site} serving {args.scenario!r} "
            f"({args.commit}) on {cluster[args.site][0]}:{cluster[args.site][1]}",
            file=sys.stderr,
            flush=True,
        )
        await daemon.serve()

    asyncio.run(_serve())
    return 0


def _command_drive(args: argparse.Namespace) -> int:
    """Replay a scenario against a live cluster; print and gate on the audit."""
    import json

    from repro.live.cluster import (
        SubprocessCluster,
        free_ports,
        live_setup,
        local_cluster_map,
    )
    from repro.live.driver import LiveRunError, drive_cluster

    if args.cluster is None and not args.spawn:
        raise ConfigurationError("drive requires --cluster, or --spawn to boot one")
    system, specs = live_setup(
        args.scenario,
        transactions=args.transactions,
        arrival_rate=args.arrival_rate,
        commit=args.commit,
        num_sites=args.num_sites,
    )
    if args.cluster is not None:
        cluster = _parse_cluster(args.cluster)
    else:
        cluster = local_cluster_map(free_ports(system.num_sites))

    def _drive() -> "object":
        return drive_cluster(
            system,
            cluster,
            specs,
            pacing=args.pacing,
            compute_scale=args.compute_scale,
            drain_timeout=args.drain_timeout,
        )

    try:
        if args.spawn:
            serve_args = ["--scenario", args.scenario, "--commit", args.commit]
            if args.transactions is not None:
                serve_args += ["--transactions", str(args.transactions)]
            if args.arrival_rate is not None:
                serve_args += ["--arrival-rate", str(args.arrival_rate)]
            if args.num_sites is not None:
                serve_args += ["--num-sites", str(args.num_sites)]
            serve_args += ["--request-timeout", str(args.request_timeout)]
            with SubprocessCluster(cluster, serve_args, Path(args.log_dir)) as spawned:
                spawned.check_alive()
                result = _drive()
        else:
            result = _drive()
    except LiveRunError as error:
        print(f"live run failed: {error}", file=sys.stderr)
        return 1
    summary = result.summary()
    print(kv_table(summary))
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
    ok = (
        result.serializable
        and result.atomic
        and result.committed == result.submitted
        and not result.conflicting_decisions()
    )
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "scenario":
            return _command_scenario(args)
        if args.command == "store":
            return _command_store(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "drive":
            return _command_drive(args)
        return _command_sweep(args)
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
